"""Fleet CLI: ``python -m repro.fleet`` / ``repro-fleet``.

Two modes:

* **Run** (default) — serve one seeded traffic scenario on a real
  :class:`~repro.fleet.core.ProvingFleet` (N worker processes, real
  proofs, real wall clock) and print the measured summary: makespan,
  throughput, latency p95, cache hit rate, per-node placement, and —
  when churn is injected — the resilience counters.  ``--events PATH``
  additionally writes the structured JSONL event log.
* **Validate** (``--validate``) — run the predicted-vs-measured loop of
  :mod:`repro.fleet.validation` across every routing policy and print
  the per-policy comparison, the rankings, and the verdict
  (rank agreement, calibration spread, proof byte-identity).

Bad argument values exit with argparse's status 2, never a traceback —
CI's entry-point smoke step locks this down.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cli import (
    cache_capacity,
    nonnegative_float,
    nonnegative_int,
    positive_float,
    positive_int,
    rate_fraction,
)
from repro.cluster.nodes import DEFAULT_NODE_CACHE_CAPACITY, NodeConfig
from repro.cluster.routing import DEFAULT_REPLICAS, ROUTING_POLICIES
from repro.cluster.timemodel import TIME_MODEL_PRESETS
from repro.fleet.core import FleetConfig, ProvingFleet
from repro.fleet.validation import DEFAULT_SIGNIFICANCE, run_validation
from repro.service.traffic import TrafficGenerator
from repro.workloads import CHURN_HORIZON_SLACK_S, SCENARIOS, trace_for_downtime


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-fleet`` argument parser (shared with tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-fleet",
        description=(
            "Serve a proof-request traffic scenario on a real multi-process "
            "proving fleet, or validate the cluster sim's predictions "
            "against it."
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
        default=12,
        help="number of proof requests to generate",
    )
    parser.add_argument(
        "--nodes",
        type=positive_int,
        default=3,
        help="worker processes to spawn (one per simulated node)",
    )
    parser.add_argument(
        "--policy",
        default="affinity",
        choices=ROUTING_POLICIES,
        help="routing policy for run mode (--validate compares all)",
    )
    parser.add_argument(
        "--time-model",
        default="functional",
        choices=TIME_MODEL_PRESETS,
        help="router cost-model preset (functional matches what the "
        "workers actually execute)",
    )
    parser.add_argument(
        "--cache-capacity",
        type=cache_capacity,
        default=DEFAULT_NODE_CACHE_CAPACITY,
        help="LRU entries in each worker's index cache (0 = unbounded)",
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
        default=7,
        help="traffic-generator seed (same seed = same job stream)",
    )
    parser.add_argument(
        "--max-retries",
        type=nonnegative_int,
        default=2,
        help="crash-retry budget per job",
    )
    parser.add_argument(
        "--heartbeat-s",
        type=positive_float,
        default=0.05,
        help="worker heartbeat period in wall seconds",
    )
    parser.add_argument(
        "--heartbeat-misses",
        type=positive_float,
        default=6.0,
        help="missed beats in a row before a node is declared dead",
    )
    parser.add_argument(
        "--timeout-s",
        type=positive_float,
        default=None,
        help="per-job wall-second timeout (kills + retries; default none)",
    )
    parser.add_argument(
        "--run-timeout-s",
        type=positive_float,
        default=300.0,
        help="hard wall-second cap on the whole run",
    )
    parser.add_argument(
        "--time-scale",
        type=positive_float,
        default=1.0,
        help="model-seconds to wall-seconds factor for arrivals and churn",
    )
    parser.add_argument(
        "--respect-arrivals",
        action="store_true",
        help="submit jobs at their scaled arrival times instead of at once",
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
        help="churn-trace seed (same seed = same kill/respawn schedule)",
    )
    parser.add_argument(
        "--events",
        metavar="PATH",
        default=None,
        help="write the structured JSONL event log to PATH",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="predicted-vs-measured validation across all routing policies",
    )
    parser.add_argument(
        "--significance",
        type=nonnegative_float,
        default=DEFAULT_SIGNIFICANCE,
        help="predicted-makespan gap below which a policy pair is a "
        "modeled tie (validate mode)",
    )
    parser.add_argument(
        "--skip-proof-check",
        action="store_true",
        help="skip the byte-identity oracle run in validate mode",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the raw summary as JSON",
    )
    return parser


def run_fleet(args) -> tuple[ProvingFleet, dict]:
    """Run-mode body: one fleet run, returns (fleet, summary)."""
    generator = TrafficGenerator(args.scenario, seed=args.seed)
    config = FleetConfig(
        num_nodes=args.nodes,
        policy=args.policy,
        time_model=args.time_model,
        replicas=args.replicas,
        max_retries=args.max_retries,
        heartbeat_s=args.heartbeat_s,
        heartbeat_misses=args.heartbeat_misses,
        job_timeout_s=args.timeout_s,
        time_scale=args.time_scale,
        respect_arrivals=args.respect_arrivals,
        run_timeout_s=args.run_timeout_s,
        node=NodeConfig(
            cache_capacity=args.cache_capacity,
            max_vars=generator.max_vars(),
        ),
    )
    jobs = generator.jobs(args.jobs)
    churn = ()
    if args.churn_rate > 0:
        horizon = max(j.arrival_s for j in jobs) + CHURN_HORIZON_SLACK_S
        churn = trace_for_downtime(
            args.nodes,
            horizon,
            downtime_fraction=args.churn_rate,
            mttr_s=args.churn_mttr,
            seed=args.churn_seed,
        )
    fleet = ProvingFleet(config)
    fleet.run(jobs, churn=churn)
    return fleet, fleet.summary()


def print_run(args, summary: dict) -> None:
    """Human-readable run-mode report."""
    measured = summary["measured"]
    cache = summary["cache"]
    print(
        f"scenario  : {args.scenario} ({SCENARIOS[args.scenario].description})\n"
        f"fleet     : {summary['nodes']} nodes, policy {summary['policy']}, "
        f"seed {args.seed}\n"
        f"jobs      : {summary['jobs']} proved"
    )
    print(
        f"measured  : makespan {measured['makespan_s']:.3f}s  "
        f"throughput {measured['throughput_jobs_per_s']:.2f} jobs/s  "
        f"p95 {measured['latency_s']['p95']:.3f}s"
    )
    print(
        f"cache     : hit-rate {cache['hit_rate']:.2f} "
        f"({cache['hits']} hits / {cache['misses']} misses)  "
        f"install share {measured['install_share'] * 100:.1f}%"
    )
    placement = "  ".join(
        f"{node_id}={count}"
        for node_id, count in summary["routing"]["jobs_per_node"].items()
    )
    print(f"placement : {placement}  imbalance {measured['load_imbalance']:.2f}")
    resilience = summary["resilience"]
    if resilience["crashes"] or resilience["failed_jobs"]:
        print(
            f"resilience: crashes {resilience['crashes']}  "
            f"retries {resilience['retries']}  "
            f"requeues {resilience['requeues']}  "
            f"failed {resilience['failed_jobs']}  "
            f"lost {resilience['lost_wall_s']:.3f}s"
        )


def print_validation(doc: dict) -> None:
    """Human-readable validate-mode report."""
    print(
        f"scenario  : {doc['scenario']}  jobs {doc['jobs']}  "
        f"nodes {doc['nodes']}  seed {doc['seed']}  "
        f"cores {doc['effective_cores']}"
    )
    header = (
        f"{'policy':<13} {'model':>9} {'predicted':>10} {'measured':>9} "
        f"{'meas/pred':>9}"
    )
    print(header)
    print("-" * len(header))
    for policy, row in doc["policies"].items():
        print(
            f"{policy:<13} {row['model_makespan_s']:>8.3f}s "
            f"{row['predicted_makespan_s']:>9.3f}s "
            f"{row['measured_makespan_s']:>8.3f}s "
            f"{row['measured_over_predicted']:>9.2f}"
        )
    print(
        f"predicted : {' < '.join(doc['predicted_ranking'])}\n"
        f"measured  : {' < '.join(doc['measured_ranking'])}"
    )
    pairs = ", ".join(f"{a}<{b}" for a, b in doc["significant_pairs"])
    print(
        f"verdict   : rank agreement {doc['rank_agreement']} "
        f"(significant pairs: {pairs or 'none'})  "
        f"calibration spread {doc['calibration_spread']:.3f}"
    )
    if "proofs_identical" in doc:
        print(f"proofs    : byte-identical to service = {doc['proofs_identical']}")


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-fleet``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.validate and args.churn_rate > 0:
        parser.error(
            "--validate assumes a failure-free run; drop --churn-rate"
        )
    if args.validate:
        doc = run_validation(
            args.scenario,
            args.jobs,
            args.nodes,
            seed=args.seed,
            time_model=args.time_model,
            cache_capacity=args.cache_capacity,
            significance=args.significance,
            check_proofs=not args.skip_proof_check,
        )
        if args.json:
            print(json.dumps(doc, indent=2))
        else:
            print_validation(doc)
        return 0
    fleet, summary = run_fleet(args)
    if args.events:
        fleet.events.write(args.events)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print_run(args, summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
