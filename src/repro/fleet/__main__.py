"""Fleet CLI: ``python -m repro.fleet`` / ``repro-fleet``.

Two modes:

In both modes the shared flags parse into one
:class:`~repro.fleet.scenario.Scenario`.

* **Run** (default) — serve that scenario on a real
  :class:`~repro.fleet.core.ProvingFleet` (N worker processes, real
  proofs, real wall clock) and print the measured summary: makespan,
  throughput, latency p95, cache hit rate, per-node placement, and —
  when churn is injected — the resilience counters.  ``--events PATH``
  additionally writes the structured JSONL event log.  The scenario is
  run by :func:`~repro.fleet.scenario.run` with ``runtime="fleet"``;
  the heartbeat, timeout and time-scale flags are the fleet-only
  :class:`~repro.fleet.core.FleetConfig` fields it passes through.
* **Validate** (``--validate``) — hand the scenario to the
  predicted-vs-measured loop of :mod:`repro.fleet.validation`, which
  runs it under every routing policy, and print the per-policy
  comparison, the rankings, and the verdict (rank agreement,
  calibration spread, proof byte-identity).  It runs one fleet per
  policy and writes no event log, so ``--events`` exits 2.

Bad argument values exit with argparse's status 2, never a traceback,
and an unwritable ``--events`` path exits 2 before any worker starts —
CI's entry-point smoke step locks this down.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cli import (
    add_run_flags,
    check_writable,
    nonnegative_float,
    positive_float,
    positive_int,
    run_fields,
)
from repro.cluster.routing import ROUTING_POLICIES
from repro.fleet.scenario import Scenario, run
from repro.fleet.validation import DEFAULT_SIGNIFICANCE, run_validation
from repro.workloads import SCENARIOS


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
    add_run_flags(parser, jobs=12, seed=7, time_model="functional")
    add = parser.add_argument
    add(
        "--nodes",
        type=positive_int,
        default=3,
        help="worker processes to spawn (one per simulated node)",
    )
    add(
        "--policy",
        default="affinity",
        choices=ROUTING_POLICIES,
        help="routing policy for run mode (--validate compares all)",
    )
    add(
        "--heartbeat-s",
        type=positive_float,
        default=0.05,
        help="worker heartbeat period in wall seconds",
    )
    add(
        "--heartbeat-misses",
        type=positive_float,
        default=6.0,
        help="missed beats in a row before a node is declared dead",
    )
    add(
        "--timeout-s",
        type=positive_float,
        default=None,
        help="per-job wall-second timeout (kills + retries; default none)",
    )
    add(
        "--run-timeout-s",
        type=positive_float,
        default=300.0,
        help="hard wall-second cap on the whole run",
    )
    add(
        "--time-scale",
        type=positive_float,
        default=1.0,
        help="model-seconds to wall-seconds factor for arrivals and churn",
    )
    add(
        "--validate",
        action="store_true",
        help="predicted-vs-measured validation across all routing policies",
    )
    add(
        "--significance",
        type=nonnegative_float,
        default=DEFAULT_SIGNIFICANCE,
        help="predicted-makespan gap below which a policy pair is a "
        "modeled tie (validate mode)",
    )
    add(
        "--skip-proof-check",
        action="store_true",
        help="skip the byte-identity oracle run in validate mode",
    )
    return parser


def print_run(base: Scenario, summary: dict) -> None:
    """Human-readable run-mode report."""
    measured = summary["measured"]
    cache = summary["cache"]
    print(
        f"scenario  : {base.scenario} ({SCENARIOS[base.scenario].description})\n"
        f"fleet     : {summary['nodes']} nodes, policy {summary['policy']}, "
        f"seed {base.seed}\n"
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


def print_validation(base: Scenario, doc: dict) -> None:
    """Human-readable validate-mode report."""
    print(
        f"scenario  : {base.scenario}  jobs {base.jobs}  "
        f"nodes {base.nodes}  seed {base.seed}  "
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
        parser.error("--validate assumes a failure-free run; drop --churn-rate")
    if args.validate and args.events:
        parser.error(
            "--validate runs one fleet per policy and writes no event "
            "log; drop --events"
        )
    check_writable(parser, args.events)
    base = Scenario(**run_fields(args), nodes=args.nodes, policy=args.policy)
    if args.validate:
        doc = run_validation(
            base,
            significance=args.significance,
            check_proofs=not args.skip_proof_check,
        )
        if args.json:
            print(json.dumps(doc, indent=2))
        else:
            print_validation(base, doc)
        return 0
    result = run(
        base,
        runtime="fleet",
        heartbeat_s=args.heartbeat_s,
        heartbeat_misses=args.heartbeat_misses,
        job_timeout_s=args.timeout_s,
        time_scale=args.time_scale,
        run_timeout_s=args.run_timeout_s,
    )
    if args.events:
        result.events.write(args.events)
    if args.json:
        print(json.dumps(result.summary, indent=2))
    else:
        print_run(base, result.summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
