"""Proving-service demo CLI: ``python -m repro.service`` / ``repro-serve``.

Draws ``--jobs`` jobs of a traffic scenario from the job stream
(:class:`~repro.traffic.OpenLoopTraffic`), runs them through a
:class:`ProvingService`, verifies every proof, and prints the metrics
summary.  Every job of a shape proves the stream's one shared circuit of
that shape, so repeats hit the index cache.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cli import cache_capacity, nonnegative_float, positive_int
from repro.plan import FunctionalProverCostModel
from repro.service.batching import DRAIN_POLICIES
from repro.service.core import ProvingService, ServiceConfig
from repro.service.workers import EXECUTOR_KINDS
from repro.traffic.openloop import OpenLoopTraffic
from repro.workloads import SCENARIOS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve a proof-request traffic scenario through the "
                    "batched, cached HyperPlonk proving service.",
    )
    parser.add_argument("--scenario", default="uniform-small",
                        choices=sorted(SCENARIOS),
                        help="named traffic mix (repro.workloads)")
    parser.add_argument("--jobs", type=positive_int, default=8,
                        help="number of proof requests to generate")
    parser.add_argument("--executor", default="sync", choices=EXECUTOR_KINDS)
    parser.add_argument("--policy", default="fifo", choices=DRAIN_POLICIES,
                        help="drain order: fifo, shortest-job-first, or "
                             "deadline-aware (cost model: repro.plan)")
    parser.add_argument("--workers", type=positive_int, default=2,
                        help="worker count (process executor only)")
    parser.add_argument("--cache-capacity", type=cache_capacity, default=None,
                        help="LRU index-cache entries (0 or omitted: "
                             "unbounded)")
    parser.add_argument("--wave-s", type=nonnegative_float, default=1.0,
                        help="drain-wave window in model seconds "
                             "(0 = single wave)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-verify", action="store_true",
                        help="skip in-service verification of every proof")
    parser.add_argument("--counters", action="store_true",
                        help="collect aggregate OpCounter tallies")
    parser.add_argument("--json", action="store_true",
                        help="emit the raw summary dict as JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    traffic = OpenLoopTraffic(args.scenario, seed=args.seed, max_jobs=args.jobs)
    config = ServiceConfig(
        max_vars=traffic.max_vars(),
        executor=args.executor,
        num_workers=args.workers,
        cache_capacity=args.cache_capacity,
        verify_proofs=not args.no_verify,
        collect_counters=args.counters,
        drain_policy=args.policy,
        predict_costs=True,
    )
    jobs = list(traffic.jobs())
    with ProvingService(config) as service:
        service.run(jobs, wave_s=args.wave_s or None)
        summary = service.summary()

    if args.json:
        print(json.dumps(summary, indent=2))
        return 0

    scenario = SCENARIOS[args.scenario]
    print(f"scenario        : {args.scenario} ({scenario.description})")
    print(f"predicted cost  : "
          f"{scenario.expected_job_cost_s(FunctionalProverCostModel()):.3f} "
          f"s/job (plan model)")
    print(f"executor        : {summary['executor']} "
          f"x{summary['num_workers']}, "
          f"policy={summary['drain_policy']}")
    print(f"jobs            : {summary['jobs']} "
          f"({summary['by_class']}) in {summary['batches']} batches / "
          f"{summary['drains']} waves")
    print(f"wall time       : {summary['wall_s']:.3f} s  "
          f"-> {summary['throughput_proofs_per_s']:.2f} proofs/s")
    lat = summary["latency_s"]
    print(f"latency         : p50={lat['p50'] * 1e3:.1f} ms  "
          f"p95={lat['p95'] * 1e3:.1f} ms  max={lat['max'] * 1e3:.1f} ms")
    cache = summary["cache"]
    print(f"index cache     : {cache['hits']} hits / {cache['misses']} misses "
          f"/ {cache['evictions']} evictions "
          f"(hit rate {cache['hit_rate']:.0%}; "
          f"preprocess {cache['preprocess_s']:.3f} s)")
    for w in summary["workers"]:
        print(f"worker {w['worker_id']:<10}: {w['jobs']} jobs, "
              f"busy {w['busy_s']:.3f} s "
              f"(utilization {w['utilization']:.0%})")
    if "prediction" in summary:
        pred = summary["prediction"]
        cap = summary["estimated_capacity_proofs_per_s"]
        print(f"prediction      : {pred['predicted_total_s']:.3f} s predicted "
              f"vs {pred['actual_total_s']:.3f} s actual "
              f"(MAPE {pred['mean_abs_error_pct']:.0f}%); "
              f"est. capacity {cap.get('predicted', 0.0):.2f} proofs/s")
    if "ops" in summary:
        ops = summary["ops"]
        print(f"field ops       : {ops['mul']:,} mul / {ops['add']:,} add "
              f"/ {ops['inv']:,} inv")
    if not args.no_verify:
        print("all proofs verified ✔")
    return 0


if __name__ == "__main__":
    sys.exit(main())
