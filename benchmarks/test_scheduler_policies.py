"""Cost-aware drain policies vs FIFO + ``BENCH_scheduler.json`` emitter.

ISSUE 3 acceptance: on the zipf-mixed scenario, cost-aware scheduling
(shortest-job-first over plan-predicted cost) improves the realtime
class's p95 latency over the FIFO drain order.  One expensive early
arrival stops inflating every cheap realtime request behind it; the
worst job finishes when it always did, so nothing is sacrificed.

The same job stream (same seed, same circuits) runs through one service
per policy; latencies are the service's own submit→finish stamps.  Like
the other ``BENCH_*.json`` artifacts, the record is only (re)written
when missing or ``BENCH_SCHEDULER_EMIT=1`` is set (as CI does), and the
ranking of two measured p95s is asserted in that lane only: tier-1
checks the record's structure and prints the ratio.  The cell, job
counts and plan predictions are ``exact``, the p95 improvement a
``ratio``, and every measured latency ``info``.
"""

import json
import os
from pathlib import Path

from repro.service import (
    ProvingService,
    RequestClass,
    ServiceConfig,
    TrafficGenerator,
)
from repro.service.metrics import percentile
from repro.workloads import scenario_cost_annotations

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_scheduler.json"

SCENARIO = "zipf-mixed"
#: seed 9 front-loads an expensive realtime arrival — the traffic shape
#: cost-aware draining exists for (other seeds shade the same way or tie)
SEED = 9
JOBS = 20
POLICIES = ("fifo", "sjf", "deadline")


def run_policy(policy: str) -> dict:
    gen = TrafficGenerator(SCENARIO, seed=SEED)
    config = ServiceConfig(
        max_vars=gen.max_vars(),
        drain_policy=policy,
        predict_costs=True,
    )
    with ProvingService(config) as service:
        results = service.run(gen.jobs(JOBS))
        summary = service.summary()
    assert all(r.predicted_s is not None for r in results)
    realtime = [r.latency_s for r in results
                if r.request_class is RequestClass.REALTIME]
    alljobs = [r.latency_s for r in results]
    capacity = summary["estimated_capacity_proofs_per_s"]
    return {
        "exact": {
            "policy": policy,
            "jobs": len(results),
            "realtime_jobs": len(realtime),
            "estimated_capacity_proofs_per_s": {
                "predicted": capacity["predicted"],
            },
        },
        # latencies are the service's wall-clock submit -> finish stamps
        "info": {
            "realtime_p50_s": round(percentile(realtime, 50), 4),
            "realtime_p95_s": round(percentile(realtime, 95), 4),
            "realtime_mean_s": round(sum(realtime) / len(realtime), 4),
            "overall_p95_s": round(percentile(alljobs, 95), 4),
            "prediction_mape_pct": summary["prediction"]["mean_abs_error_pct"],
            "estimated_capacity_proofs_per_s": {"actual": capacity["actual"]},
        },
    }


class TestSchedulerPolicies:
    def test_smoke_sjf_small(self):
        """Fast sanity: a cost-aware drain completes and predicts."""
        gen = TrafficGenerator("uniform-small", seed=1)
        config = ServiceConfig(max_vars=gen.max_vars(), drain_policy="sjf")
        with ProvingService(config) as service:
            results = service.run(gen.jobs(3))
        assert len(results) == 3
        assert all(r.predicted_s is not None for r in results)

    def test_cost_aware_beats_fifo_and_emit(self):
        rows = [run_policy(p) for p in POLICIES]
        by = {row["exact"]["policy"]: row for row in rows}

        assert set(by) == set(POLICIES)
        for row in rows:
            exact = row["exact"]
            assert exact["jobs"] == JOBS and 0 < exact["realtime_jobs"] <= JOBS
            assert row["info"]["realtime_p95_s"] > 0
        fifo = by["fifo"]["info"]["realtime_p95_s"]
        sjf = by["sjf"]["info"]["realtime_p95_s"]
        print(f"realtime p95 fifo/sjf = {fifo / sjf:.3f} "
              "(sjf < fifo is asserted in the emit lane)")
        # a ranking of two wall clocks decides nothing in tier-1; the bench
        # lane (BENCH_SCHEDULER_EMIT=1) holds it and check_regression.py
        # gates the record it writes
        if os.environ.get("BENCH_SCHEDULER_EMIT") == "1":
            assert sjf < fifo, (
                f"cost-aware drain must improve realtime p95: sjf={sjf} "
                f"vs fifo={fifo}"
            )

        record = {
            "exact": {
                "scenario": SCENARIO,
                "seed": SEED,
                "jobs": JOBS,
                "scenario_predicted_cost_s": {
                    name: round(cost, 4)
                    for name, cost in scenario_cost_annotations().items()
                },
            },
            "ratio": {"realtime_p95_improvement_vs_fifo": round(fifo / sjf, 3)},
            "policies": rows,
        }
        if os.environ.get("BENCH_SCHEDULER_EMIT") == "1" or not BENCH_PATH.exists():
            BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")
        print(json.dumps(record, indent=2))
