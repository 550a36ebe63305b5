"""Cluster sweep CLI: ``python -m repro.cluster`` / ``repro-cluster``.

Replays one :mod:`repro.workloads` traffic scenario over a node-count
sweep for each requested routing policy and prints one line per
(nodes, policy) cell: model throughput, makespan, load imbalance,
install share, cache hit rate, and shape spread.  Same seed → same job
stream in every cell, so the cells are directly comparable.

A thin shell over :mod:`repro.fleet.scenario`: the flags parse into one
:class:`~repro.fleet.scenario.Scenario` (a conflict between flags exits
2 with its message), and each cell is that scenario with ``nodes`` and
``policy`` replaced, handed to :func:`~repro.fleet.scenario.run`.
``--churn-rate`` / ``--autoscale`` make the run failure-aware (the
printout adds deadline-miss, retry, and churn columns); ``--open-loop``
keeps the stream's arrivals (``respect_arrivals``) and sets its rate,
horizon and admission policy, and the printout is the open-loop table
(goodput, shedding, SLO, fairness) read from the summary's ``traffic``
block.
``--events PATH`` writes the JSONL event log (:mod:`repro.sim.events`)
of a single cell — one ``--nodes`` value and one policy.  The tables
read their header from the parsed scenario and their columns from one
``(title, width, cell)`` list each, printed by :func:`print_table`.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from dataclasses import replace

from repro.carbon import CARBON_POLICIES, CarbonConfig, CarbonIntensityTrace
from repro.cli import (
    add_run_flags,
    carbon_trace,
    check_writable,
    int_list,
    multiplier,
    nonnegative_float,
    positive_float,
    positive_int,
    rate_fraction,
    run_fields,
)
from repro.cluster.admission import AdmissionPolicy
from repro.cluster.autoscale import AutoscalePolicy
from repro.cluster.routing import ROUTING_POLICIES
from repro.fleet.scenario import Scenario, run
from repro.workloads import SCENARIOS


def policy_list(text: str) -> list[str]:
    """Comma-separated routing policy names, validated + deduplicated."""
    out = list(dict.fromkeys(p.strip() for p in text.split(",") if p.strip()))
    for part in out:
        if part not in ROUTING_POLICIES:
            raise argparse.ArgumentTypeError(
                f"unknown policy {part!r}; choose from " + ", ".join(ROUTING_POLICIES)
            )
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
    add_run_flags(parser, jobs=64, seed=0, time_model="accelerator")
    add = parser.add_argument
    add(
        "--nodes",
        type=int_list,
        default=[1, 2, 4],
        help="comma-separated node counts to sweep (e.g. 1,2,4,8)",
    )
    add(
        "--policies",
        type=policy_list,
        default=list(ROUTING_POLICIES),
        help=f"comma-separated routing policies ({', '.join(ROUTING_POLICIES)})",
    )
    add(
        "--autoscale",
        action="store_true",
        help="enable the plan-cost-driven autoscaler (scenario runs)",
    )
    add(
        "--scale-out-s",
        type=positive_float,
        default=2.0,
        help="mean predicted backlog s/node above which a node is added",
    )
    add(
        "--scale-in-s",
        type=nonnegative_float,
        default=0.25,
        help="mean predicted backlog s/node below which an idle node retires",
    )
    add(
        "--autoscale-interval",
        type=positive_float,
        default=0.5,
        help="model seconds between autoscaler evaluations",
    )
    add(
        "--provision-s",
        type=nonnegative_float,
        default=0.5,
        help="model seconds before a scaled-out node accepts traffic",
    )
    add(
        "--max-nodes",
        type=positive_int,
        default=8,
        help="autoscaler fleet-size ceiling",
    )
    add(
        "--open-loop",
        action="store_true",
        help="pace the job stream at --rate-rps (default: the "
        "scenario's) and report goodput, shedding and tenants instead of "
        "draining a closed batch",
    )
    add(
        "--rate-rps",
        type=positive_float,
        default=None,
        help="job-stream base arrival rate (default: the scenario's)",
    )
    add(
        "--horizon-s",
        type=positive_float,
        default=None,
        help="open-loop model-time horizon (default: stop after --jobs)",
    )
    add(
        "--tenants",
        type=positive_int,
        default=3,
        help="tenants of the job stream (Zipf weights, cycling SLO "
        "tiers; each job's class and deadline come from its tenant)",
    )
    add(
        "--admission",
        action="store_true",
        help="gate open-loop arrivals through the admission controller "
        "(budgeted shedding + backpressure); requires --open-loop",
    )
    add(
        "--admission-window",
        type=positive_float,
        default=10.0,
        help="admission budget horizon in model seconds per up node",
    )
    add(
        "--diurnal-amplitude",
        type=rate_fraction,
        default=0.5,
        help="job-stream diurnal rate swing, a fraction in [0, 1)",
    )
    add(
        "--burst-mult",
        type=multiplier,
        default=3.0,
        help="job-stream burst-window rate multiplier (>= 1)",
    )
    add(
        "--carbon-trace",
        type=carbon_trace,
        default=None,
        help="carbon-intensity trace: 'diurnal' (defaults) or "
        "'diurnal:BASE:AMP:PERIOD' (mean gCO2/kWh, swing fraction, "
        "period s); seeded from --seed",
    )
    add(
        "--carbon-policy",
        default="none",
        choices=CARBON_POLICIES,
        help="carbon-aware scheduling policy (repro.carbon); "
        "'none' prices joules and grams without moving any job",
    )
    add(
        "--power-cap",
        type=positive_float,
        default=None,
        help="fleet power cap in watts; pauses deferrable work at "
        "checkpoint boundaries first (requires --carbon-trace)",
    )
    add(
        "--carbon-threshold",
        type=positive_float,
        default=None,
        help="gCO2/kWh below which carbon_waiting releases deferrable "
        "jobs (default: the trace's mean intensity)",
    )
    return parser


def parse_scenario(args: argparse.Namespace) -> Scenario:
    """The one :class:`Scenario` the flags describe (``nodes`` and
    ``policy`` are the sweep's); raises ``ValueError`` on a conflict."""
    fields = run_fields(args)
    if args.open_loop and args.autoscale:
        raise ValueError(
            "--open-loop does not take --autoscale (admission and "
            "backpressure bound the backlog instead)"
        )
    if args.admission and not args.open_loop:
        raise ValueError("--admission requires --open-loop")
    horizon_s = args.horizon_s if args.open_loop else None
    if args.open_loop:
        fields["respect_arrivals"] = True
        if horizon_s is not None:
            fields["jobs"] = None  # the horizon alone bounds the stream
    trace = args.carbon_trace
    carbon = CarbonConfig(
        None if trace is None else CarbonIntensityTrace(seed=args.seed, **trace),
        args.carbon_policy,
        power_cap_w=args.power_cap,
        low_threshold_g_per_kwh=args.carbon_threshold,
    )
    autoscale = None
    if args.autoscale:
        autoscale = AutoscalePolicy(
            scale_out_threshold_s=args.scale_out_s,
            scale_in_threshold_s=args.scale_in_s,
            interval_s=args.autoscale_interval,
            max_nodes=args.max_nodes,
            provision_s=args.provision_s,
        )
    return Scenario(
        **fields,
        autoscale=autoscale,
        # no carbon flag at all is a carbon-free run
        carbon=None if carbon == CarbonConfig(None) else carbon,
        rate_rps=args.rate_rps,
        horizon_s=horizon_s,
        tenants=args.tenants,
        diurnal_amplitude=args.diurnal_amplitude,
        burst_mult=args.burst_mult,
        admission=(
            AdmissionPolicy(window_s=args.admission_window) if args.admission else None
        ),
    )


#: one table column: its title, its width, and the text of one row's
#: cell; title and cell text are right-justified to the width
Column = tuple[str, int, Callable[[dict], str]]

CLOSED_COLUMNS: list[Column] = [
    ("jobs/s", 9, lambda row: f"{row['model']['throughput_jobs_per_s']:.2f}"),
    ("makespan", 9, lambda row: f"{row['model']['makespan_s']:.3f}s"),
    ("imbalance", 9, lambda row: f"{row['model']['load_imbalance']:.2f}"),
    ("install%", 8, lambda row: f"{row['model']['install_share'] * 100:.1f}%"),
    ("hit-rate", 8, lambda row: f"{row['cache']['sim']['hit_rate']:.2f}"),
    ("spread", 6, lambda row: f"{row['routing']['shape_spread']:.2f}"),
    ("p95", 9, lambda row: f"{row['model']['latency_s']['p95']:.3f}s"),
]

RESILIENCE_COLUMNS: list[Column] = [
    ("miss%", 6, lambda row: f"{row['deadlines']['miss_rate'] * 100:.1f}%"),
    ("failed", 6, lambda row: f"{row['resilience']['failed_jobs']}"),
    ("retries", 7, lambda row: f"{row['resilience']['retries']}"),
    ("requeue", 7, lambda row: f"{row['resilience']['requeues']}"),
    ("crashes", 7, lambda row: f"{row['resilience']['crashes']}"),
    ("scale+", 6, lambda row: f"{row['resilience']['autoscale']['scale_outs']}"),
    ("scale-", 6, lambda row: f"{row['resilience']['autoscale']['scale_ins']}"),
]

OPEN_LOOP_COLUMNS: list[Column] = [
    ("offered", 8, lambda row: f"{row['offered']}"),
    ("shed%", 6, lambda row: f"{row['shed_rate'] * 100:.1f}%"),
    ("goodput", 8, lambda row: f"{row['model']['goodput_jobs_per_s']:.2f}"),
    ("slo%", 6, lambda row: f"{row['model']['slo_attainment'] * 100:.1f}%"),
    ("p99", 9, lambda row: f"{row['model']['latency_s']['p99']:.3f}s"),
    ("jain", 5, lambda row: f"{row['jain_fairness']:.2f}"),
    ("pauses", 6, lambda row: f"{row['pauses']}"),
]

CARBON_COLUMNS: list[Column] = [
    # pads itself to ten characters under a nine-wide title, as the
    # printed table always has
    ("energy", 9, lambda row: f"{row['carbon']['energy_j'] / 1e3:>8.3f}kJ"),
    ("carbon", 9, lambda row: f"{row['carbon']['carbon_g']:.4f}g"),
    ("g/proof", 9, lambda row: f"{row['carbon']['carbon_per_proof_g']:.6f}"),
    ("held", 5, lambda row: f"{row['carbon']['held_starts']}"),
    ("susp", 5, lambda row: f"{row['carbon']['suspends']}"),
    ("defer", 5, lambda row: f"{row['carbon']['cap_deferrals']}"),
]


def print_table(rows: list[dict], columns: list[Column]) -> None:
    """One line per (nodes, policy) cell under a dashed header."""
    header = f"{'nodes':>5}  {'policy':<12} " + " ".join(
        title.rjust(width) for title, width, _ in columns
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        cells = " ".join(cell(row).rjust(width) for _, width, cell in columns)
        print(f"{row['nodes']:>5}  {row['policy']:<12} {cells}")


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
    print_table(carbon_rows, CARBON_COLUMNS)


def print_open_loop(base: Scenario, rows: list[dict]) -> None:
    """The open-loop table (goodput, shedding, SLO, tail, fairness),
    plus the carbon table when the run priced one."""
    scenario = SCENARIOS[base.scenario]
    print(
        f"scenario   : {base.scenario} ({scenario.description})\n"
        f"open loop  : rate {base.rate_rps or scenario.rate_rps} rps   "
        f"tenants: {base.tenants}   "
        f"admission: {'on' if base.admission else 'off'}   "
        f"seed: {base.seed}"
    )
    # each row's stream figures, under its nodes and policy
    print_table([{**row, **row["traffic"]} for row in rows], OPEN_LOOP_COLUMNS)
    print_carbon(rows)


def print_closed(base: Scenario, rows: list[dict]) -> None:
    """The closed-batch table, plus the resilience table when that path
    ran."""
    scenario = SCENARIOS[base.scenario]
    print(
        f"scenario   : {base.scenario} ({scenario.description})\n"
        f"time model : {base.time_model}   jobs: {base.jobs}   "
        f"seed: {base.seed}   node cache: "
        f"{base.cache_capacity or 'unbounded'}"
    )
    print_table(rows, CLOSED_COLUMNS)
    if base.failure_aware:
        print(
            f"\nresilience (churn rate {base.churn_rate}, "
            f"mttr {base.churn_mttr}s, max retries {base.max_retries}, "
            f"autoscale {'on' if base.autoscale else 'off'})"
        )
        print_table(rows, RESILIENCE_COLUMNS)
    print_carbon(rows)


def main(argv: list[str] | None = None) -> int:
    """Run the sweep and print (or JSON-dump) one row per cell."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        base = parse_scenario(args)
    except ValueError as exc:
        parser.error(str(exc))
    if args.events:
        if len(args.nodes) != 1 or len(args.policies) != 1:
            parser.error(
                "--events writes one run's log: give one --nodes value "
                "and one --policies name"
            )
        check_writable(parser, args.events)
    rows = []
    for num_nodes in sorted(args.nodes):
        for policy in args.policies:
            result = run(replace(base, nodes=num_nodes, policy=policy))
            if args.events:
                result.events.write(args.events)
            rows.append(result.summary)
    if args.json:
        print(json.dumps({"scenario": base.scenario, "rows": rows}, indent=2))
    elif args.open_loop:
        print_open_loop(base, rows)
    else:
        print_closed(base, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
