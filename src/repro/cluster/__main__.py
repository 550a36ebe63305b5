"""Cluster sweep CLI: ``python -m repro.cluster`` / ``repro-cluster``.

Replays one :mod:`repro.workloads` traffic scenario over a node-count
sweep for each requested routing policy and prints one line per
(nodes, policy) cell: model throughput, makespan, load imbalance,
install share, cache hit rate, and shape spread.  Same seed → same job
stream in every cell, so the cells are directly comparable.

With ``--churn-rate`` (and/or ``--autoscale``) each cell instead runs
the failure-aware scenario path: jobs submitted at their arrival times,
a seeded crash/recovery trace targeting the requested node-downtime
fraction, deterministic crash retries, and optional plan-cost-driven
autoscaling — the printout then adds deadline-miss, retry, and churn
columns.

``--events PATH`` writes the structured JSONL event log
(:mod:`repro.sim.events`) of a single cell — one ``--nodes`` value and
one policy, closed batch or ``--open-loop``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.carbon import (
    CARBON_POLICIES,
    CarbonConfig,
    CarbonIntensityTrace,
    node_watts,
)
from repro.cli import (
    cache_capacity,
    carbon_trace,
    int_list,
    multiplier,
    nonnegative_float,
    nonnegative_int,
    positive_float,
    positive_int,
    rate_fraction,
)
from repro.cluster.autoscale import AutoscalePolicy
from repro.cluster.core import ClusterConfig, ProvingCluster
from repro.cluster.nodes import DEFAULT_NODE_CACHE_CAPACITY, NodeConfig
from repro.cluster.routing import DEFAULT_REPLICAS, ROUTING_POLICIES
from repro.cluster.timemodel import TIME_MODEL_PRESETS
from repro.service.traffic import TrafficGenerator
from repro.workloads import CHURN_HORIZON_SLACK_S, SCENARIOS, trace_for_downtime


def policy_list(text: str) -> list[str]:
    """Comma-separated routing policy names, validated + deduplicated."""
    out: list[str] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part not in ROUTING_POLICIES:
            raise argparse.ArgumentTypeError(
                f"unknown policy {part!r}; choose from "
                + ", ".join(ROUTING_POLICIES)
            )
        if part not in out:
            out.append(part)
    if not out:
        raise argparse.ArgumentTypeError(f"{text!r} names no policies")
    return out


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-cluster`` argument parser (shared with tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-cluster",
        description=(
            "Replay a proof-request traffic scenario over a simulated "
            "multi-node proving cluster, sweeping node counts and "
            "routing policies."
        ),
    )
    parser.add_argument(
        "--scenario",
        default="zipf-mixed",
        choices=sorted(SCENARIOS),
        help="named traffic mix (repro.workloads)",
    )
    parser.add_argument(
        "--jobs",
        type=positive_int,
        default=64,
        help="number of proof requests to generate",
    )
    parser.add_argument(
        "--nodes",
        type=int_list,
        default=[1, 2, 4],
        help="comma-separated node counts to sweep (e.g. 1,2,4,8)",
    )
    parser.add_argument(
        "--policies",
        type=policy_list,
        default=list(ROUTING_POLICIES),
        help=f"comma-separated routing policies ({', '.join(ROUTING_POLICIES)})",
    )
    parser.add_argument(
        "--time-model",
        default="accelerator",
        choices=TIME_MODEL_PRESETS,
        help="fleet time model: accelerator-resident proving with "
        "host-side index installs, or all-functional CPU replay",
    )
    parser.add_argument(
        "--cache-capacity",
        type=cache_capacity,
        default=DEFAULT_NODE_CACHE_CAPACITY,
        help="LRU entries in each node's index cache (0 = unbounded)",
    )
    parser.add_argument(
        "--replicas",
        type=positive_int,
        default=DEFAULT_REPLICAS,
        help="virtual points per node on the affinity hash ring",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="traffic-generator seed (same seed = same job stream)",
    )
    parser.add_argument(
        "--wave-s",
        type=nonnegative_float,
        default=1.0,
        help="execute-mode drain-wave window in model seconds (0 = single wave)",
    )
    parser.add_argument(
        "--churn-rate",
        type=rate_fraction,
        default=0.0,
        help="target fraction of node-time spent down (0 disables churn; "
        "must be in [0, 1))",
    )
    parser.add_argument(
        "--churn-mttr",
        type=positive_float,
        default=2.0,
        help="mean model seconds a crashed node stays down",
    )
    parser.add_argument(
        "--churn-seed",
        type=int,
        default=0,
        help="churn-trace seed (same seed = same crash/recovery trace)",
    )
    parser.add_argument(
        "--max-retries",
        type=nonnegative_int,
        default=2,
        help="crash-retry budget per job in scenario runs",
    )
    parser.add_argument(
        "--autoscale",
        action="store_true",
        help="enable the plan-cost-driven autoscaler (scenario runs)",
    )
    parser.add_argument(
        "--scale-out-s",
        type=positive_float,
        default=2.0,
        help="mean predicted backlog s/node above which a node is added",
    )
    parser.add_argument(
        "--scale-in-s",
        type=nonnegative_float,
        default=0.25,
        help="mean predicted backlog s/node below which an idle node retires",
    )
    parser.add_argument(
        "--autoscale-interval",
        type=positive_float,
        default=0.5,
        help="model seconds between autoscaler evaluations",
    )
    parser.add_argument(
        "--provision-s",
        type=nonnegative_float,
        default=0.5,
        help="model seconds before a scaled-out node accepts traffic",
    )
    parser.add_argument(
        "--max-nodes",
        type=positive_int,
        default=8,
        help="autoscaler fleet-size ceiling",
    )
    parser.add_argument(
        "--execute",
        action="store_true",
        help="really prove on every node (slow; adds measured stats)",
    )
    parser.add_argument(
        "--open-loop",
        action="store_true",
        help="run the open-loop multi-tenant traffic path "
        "(repro.traffic) instead of replaying a closed batch",
    )
    parser.add_argument(
        "--rate-rps",
        type=positive_float,
        default=None,
        help="open-loop base arrival rate (default: the scenario's)",
    )
    parser.add_argument(
        "--horizon-s",
        type=positive_float,
        default=None,
        help="open-loop model-time horizon (default: stop after --jobs)",
    )
    parser.add_argument(
        "--tenants",
        type=positive_int,
        default=3,
        help="open-loop tenant count (Zipf weights, cycling SLO tiers)",
    )
    parser.add_argument(
        "--admission",
        action="store_true",
        help="gate open-loop arrivals through the admission controller "
        "(budgeted shedding + backpressure); requires --open-loop",
    )
    parser.add_argument(
        "--admission-window",
        type=positive_float,
        default=10.0,
        help="admission budget horizon in model seconds per up node",
    )
    parser.add_argument(
        "--diurnal-amplitude",
        type=rate_fraction,
        default=0.5,
        help="open-loop diurnal rate swing, a fraction in [0, 1)",
    )
    parser.add_argument(
        "--burst-mult",
        type=multiplier,
        default=3.0,
        help="open-loop burst-window rate multiplier (>= 1)",
    )
    parser.add_argument(
        "--carbon-trace",
        type=carbon_trace,
        default=None,
        help="carbon-intensity trace: 'diurnal' (defaults) or "
        "'diurnal:BASE:AMP:PERIOD' (mean gCO2/kWh, swing fraction, "
        "period s); seeded from --seed",
    )
    parser.add_argument(
        "--carbon-policy",
        default="none",
        choices=CARBON_POLICIES,
        help="carbon-aware scheduling policy (repro.carbon); "
        "'none' prices joules and grams without moving any job",
    )
    parser.add_argument(
        "--power-cap",
        type=positive_float,
        default=None,
        help="fleet power cap in watts; pauses deferrable work at "
        "checkpoint boundaries first (requires --carbon-trace)",
    )
    parser.add_argument(
        "--carbon-threshold",
        type=positive_float,
        default=None,
        help="gCO2/kWh below which carbon_waiting releases deferrable "
        "jobs (default: the trace's mean intensity)",
    )
    parser.add_argument(
        "--respect-arrivals",
        action="store_true",
        help="let node clocks idle until each job's model-time arrival "
        "instead of running saturated",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the raw summary rows as JSON",
    )
    parser.add_argument(
        "--events",
        metavar="PATH",
        default=None,
        help="write the JSONL event log of the run to PATH "
        "(a single cell: one --nodes value and one policy)",
    )
    return parser


def scenario_mode(args) -> bool:
    """True when the failure-aware path should run."""
    return args.churn_rate > 0 or args.autoscale


def make_carbon(args) -> CarbonConfig | None:
    """The run's :class:`CarbonConfig`, or None without --carbon-trace."""
    if args.carbon_trace is None:
        return None
    trace = CarbonIntensityTrace(seed=args.seed, **args.carbon_trace)
    return CarbonConfig(
        trace=trace,
        policy=args.carbon_policy,
        power_cap_w=args.power_cap,
        low_threshold_g_per_kwh=args.carbon_threshold,
    )


def print_carbon(rows: list[dict]) -> None:
    """The carbon table (only for runs that priced joules and grams)."""
    carbon_rows = [row for row in rows if "carbon" in row]
    if not carbon_rows:
        return
    first = carbon_rows[0]["carbon"]
    cap = first["power_cap_w"]
    print(
        f"\ncarbon (policy {first['policy']}, power model "
        f"{first['power_model']}, cap {f'{cap:g} W' if cap else 'off'})"
    )
    cheader = (
        f"{'nodes':>5}  {'policy':<12} {'energy':>9} {'carbon':>9} "
        f"{'g/proof':>9} {'held':>5} {'susp':>5} {'defer':>5}"
    )
    print(cheader)
    print("-" * len(cheader))
    for row in carbon_rows:
        carbon = row["carbon"]
        print(
            f"{row['nodes']:>5}  {row['policy']:<12} "
            f"{carbon['energy_j'] / 1e3:>8.3f}kJ "
            f"{carbon['carbon_g']:>8.4f}g "
            f"{carbon['carbon_per_proof_g']:>9.6f} "
            f"{carbon['held_starts']:>5} "
            f"{carbon['suspends']:>5} "
            f"{carbon['cap_deferrals']:>5}"
        )


def run_cell(args, num_nodes: int, policy: str) -> dict:
    """One (nodes, policy) sweep cell; scenario path when churn is on."""
    generator = TrafficGenerator(args.scenario, seed=args.seed)
    autoscale = None
    if args.autoscale:
        autoscale = AutoscalePolicy(
            scale_out_threshold_s=args.scale_out_s,
            scale_in_threshold_s=args.scale_in_s,
            interval_s=args.autoscale_interval,
            min_nodes=1,
            max_nodes=max(args.max_nodes, num_nodes),
            provision_s=args.provision_s,
        )
    config = ClusterConfig(
        num_nodes=num_nodes,
        policy=policy,
        time_model=args.time_model,
        execute=args.execute,
        respect_arrivals=args.respect_arrivals,
        replicas=args.replicas,
        max_retries=args.max_retries,
        autoscale=autoscale,
        carbon=make_carbon(args),
        node=NodeConfig(
            cache_capacity=args.cache_capacity,
            max_vars=generator.max_vars(),
            wave_s=args.wave_s or None,
        ),
    )
    jobs = generator.jobs(args.jobs)
    with ProvingCluster(config) as cluster:
        if scenario_mode(args):
            horizon = max(j.arrival_s for j in jobs) + CHURN_HORIZON_SLACK_S
            churn = trace_for_downtime(
                num_nodes,
                horizon,
                downtime_fraction=args.churn_rate,
                mttr_s=args.churn_mttr,
                seed=args.churn_seed,
            )
            cluster.run_scenario(jobs, churn=churn)
        else:
            cluster.run(jobs)
        if args.events:
            cluster.events.write(args.events)
        return cluster.summary()


def run_open_loop_cell(args, num_nodes: int, policy: str) -> dict:
    """One (nodes, policy) open-loop cell; returns its traffic summary."""
    # imported here so the closed-batch sweep keeps its import surface
    from repro.cluster.admission import AdmissionPolicy
    from repro.traffic import (
        OpenLoopEngine,
        OpenLoopTraffic,
        default_tenants,
        make_admission,
        traffic_summary,
    )

    traffic = OpenLoopTraffic(
        args.scenario,
        seed=args.seed,
        tenants=default_tenants(args.tenants),
        rate_rps=args.rate_rps,
        diurnal_amplitude=args.diurnal_amplitude,
        burst_mult=args.burst_mult,
        max_jobs=None if args.horizon_s is not None else args.jobs,
        horizon_s=args.horizon_s,
    )
    config = ClusterConfig(
        num_nodes=num_nodes,
        policy=policy,
        time_model=args.time_model,
        replicas=args.replicas,
        max_retries=args.max_retries,
        carbon=make_carbon(args),
        node=NodeConfig(
            cache_capacity=args.cache_capacity,
            max_vars=traffic.max_vars(),
        ),
    )
    with ProvingCluster(config) as cluster:
        admission = None
        if args.admission:
            admission = make_admission(
                cluster,
                AdmissionPolicy(window_s=args.admission_window),
                traffic.tenants,
            )
        engine = OpenLoopEngine(cluster, traffic, admission=admission)
        churn = ()
        if args.churn_rate > 0:
            churn = trace_for_downtime(
                num_nodes,
                args.horizon_s,
                downtime_fraction=args.churn_rate,
                mttr_s=args.churn_mttr,
                seed=args.churn_seed,
            )
        engine.run_open_loop(churn=churn)
        if args.events:
            engine.events.write(args.events)
        summary = traffic_summary(engine)
        summary["nodes"] = num_nodes
        summary["policy"] = policy
        return summary


def print_open_loop(args, rows: list[dict]) -> None:
    """The open-loop table: goodput, shedding, SLO, tail, fairness."""
    scenario = SCENARIOS[args.scenario]
    print(
        f"scenario   : {args.scenario} ({scenario.description})\n"
        f"open loop  : rate {args.rate_rps or scenario.rate_rps} rps   "
        f"tenants: {args.tenants}   "
        f"admission: {'on' if args.admission else 'off'}   "
        f"seed: {args.seed}"
    )
    header = (
        f"{'nodes':>5}  {'policy':<12} {'offered':>8} {'shed%':>6} "
        f"{'goodput':>8} {'slo%':>6} {'p99':>9} {'jain':>5} {'pauses':>6}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        model = row["model"]
        print(
            f"{row['nodes']:>5}  {row['policy']:<12} "
            f"{row['offered']:>8} "
            f"{row['shed_rate'] * 100:>5.1f}% "
            f"{model['goodput_jobs_per_s']:>8.2f} "
            f"{model['slo_attainment'] * 100:>5.1f}% "
            f"{model['latency_s']['p99']:>8.3f}s "
            f"{row['jain_fairness']:>5.2f} "
            f"{row['pauses']:>6}"
        )


def main(argv: list[str] | None = None) -> int:
    """Run the sweep and print (or JSON-dump) one row per cell."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.autoscale and args.scale_in_s >= args.scale_out_s:
        parser.error(
            f"--scale-in-s ({args.scale_in_s}) must be below "
            f"--scale-out-s ({args.scale_out_s})"
        )
    if args.admission and not args.open_loop:
        parser.error("--admission requires --open-loop")
    if args.open_loop and args.execute:
        parser.error("--open-loop is a model-time path; drop --execute")
    if args.open_loop and args.autoscale:
        parser.error(
            "--open-loop does not take --autoscale (admission and "
            "backpressure bound the backlog instead)"
        )
    if args.open_loop and args.churn_rate > 0 and args.horizon_s is None:
        parser.error("--open-loop with --churn-rate needs --horizon-s "
                     "to size the churn trace")
    if args.carbon_trace is None:
        if args.carbon_policy != "none":
            parser.error(
                f"--carbon-policy {args.carbon_policy} needs --carbon-trace"
            )
        if args.power_cap is not None:
            parser.error("--power-cap needs --carbon-trace")
        if args.carbon_threshold is not None:
            parser.error("--carbon-threshold needs --carbon-trace")
    if args.power_cap is not None:
        busy_w = node_watts(args.time_model).busy_w
        if args.power_cap < busy_w:
            parser.error(
                f"--power-cap ({args.power_cap:g} W) is below one busy "
                f"node ({busy_w:g} W) for --time-model {args.time_model}; "
                "no job could ever start"
            )
    if args.events:
        if len(args.nodes) != 1 or len(args.policies) != 1:
            parser.error(
                "--events writes one run's log: give one --nodes value "
                "and one --policies name"
            )
        # fail before the run, without creating the file
        events = Path(args.events)
        if events.is_dir() or not os.access(
            events if events.exists() else events.parent, os.W_OK
        ):
            parser.error(f"--events {args.events}: cannot write there")
    if args.open_loop:
        rows = [
            run_open_loop_cell(args, num_nodes, policy)
            for num_nodes in sorted(args.nodes)
            for policy in args.policies
        ]
        if args.json:
            print(
                json.dumps({"scenario": args.scenario, "rows": rows}, indent=2)
            )
        else:
            print_open_loop(args, rows)
            print_carbon(rows)
        return 0
    rows = [
        run_cell(args, num_nodes, policy)
        for num_nodes in sorted(args.nodes)
        for policy in args.policies
    ]
    if args.json:
        print(json.dumps({"scenario": args.scenario, "rows": rows}, indent=2))
        return 0

    scenario = SCENARIOS[args.scenario]
    print(
        f"scenario   : {args.scenario} ({scenario.description})\n"
        f"time model : {args.time_model}   jobs: {args.jobs}   "
        f"seed: {args.seed}   node cache: "
        f"{args.cache_capacity or 'unbounded'}"
    )
    header = (
        f"{'nodes':>5}  {'policy':<12} {'jobs/s':>9} {'makespan':>9} "
        f"{'imbalance':>9} {'install%':>8} {'hit-rate':>8} {'spread':>6} "
        f"{'p95':>9}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        model = row["model"]
        cache = row["cache"]["sim"]
        print(
            f"{row['nodes']:>5}  {row['policy']:<12} "
            f"{model['throughput_jobs_per_s']:>9.2f} "
            f"{model['makespan_s']:>8.3f}s "
            f"{model['load_imbalance']:>9.2f} "
            f"{model['install_share'] * 100:>7.1f}% "
            f"{cache['hit_rate']:>8.2f} "
            f"{row['routing']['shape_spread']:>6.2f} "
            f"{model['latency_s']['p95']:>8.3f}s"
        )
    if scenario_mode(args):
        print(
            f"\nresilience (churn rate {args.churn_rate}, "
            f"mttr {args.churn_mttr}s, max retries {args.max_retries}, "
            f"autoscale {'on' if args.autoscale else 'off'})"
        )
        rheader = (
            f"{'nodes':>5}  {'policy':<12} {'miss%':>6} {'failed':>6} "
            f"{'retries':>7} {'requeue':>7} {'crashes':>7} {'scale+':>6} "
            f"{'scale-':>6}"
        )
        print(rheader)
        print("-" * len(rheader))
        for row in rows:
            deadlines = row.get("deadlines", {})
            resilience = row.get("resilience", {})
            autoscale = resilience.get("autoscale", {})
            print(
                f"{row['nodes']:>5}  {row['policy']:<12} "
                f"{deadlines.get('miss_rate', 0.0) * 100:>5.1f}% "
                f"{resilience.get('failed_jobs', 0):>6} "
                f"{resilience.get('retries', 0):>7} "
                f"{resilience.get('requeues', 0):>7} "
                f"{resilience.get('crashes', 0):>7} "
                f"{autoscale.get('scale_outs', 0):>6} "
                f"{autoscale.get('scale_ins', 0):>6}"
            )
    print_carbon(rows)
    if args.execute:
        print("\nmeasured (execute mode): real per-node caches + prove times")
        for row in rows:
            real = row["cache"].get("real", {})
            measured = row.get("measured", {})
            print(
                f"{row['nodes']:>5}  {row['policy']:<12} "
                f"real hit-rate {real.get('hit_rate', 0.0):.2f}  "
                f"preprocess {real.get('preprocess_s', 0.0):.3f}s  "
                f"measured makespan {measured.get('makespan_s', 0.0):.3f}s"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
