"""Failure-aware fleet benchmark + ``BENCH_resilience.json`` emitter.

ISSUE 5 acceptance: under ~20% node-churn on zipf-mixed (accelerator
fleet framing, 4 nodes), **affinity routing with crash retries** must
hold the deadline-miss rate at least ``MISS_RATIO_FLOOR``× lower than
**cost-blind round-robin with no retries**.  The mechanisms compound:
retries turn lost in-flight realtime jobs into late-but-delivered
proofs instead of dropped ones (a dropped realtime job *is* a deadline
miss), and fingerprint affinity keeps post-crash reinstall storms off
the surviving nodes' critical paths.

Every cell runs in pure model time on the discrete-event engine — no
wall clock anywhere — so the record is bit-deterministic across
machines; the seeds below are replications, not noise control.  Crash
counters cover each cell's *serving window* (churn past the last job
resolution is cancelled), which is why the two policies can report
slightly different crash totals over identical traces.  Miss
counts are small by design (a ~2% miss rate is the regime worth
defending), so the headline ratio is Laplace-smoothed —
``(missed_no_retry + 1) / (missed_retry + 1)`` over the pooled
replications — which keeps it finite if a future recalibration drives
the retry cell to zero misses.

A second section records the plan-cost-driven autoscaler on bursty
jellyfish-heavy traffic: scaling 1→6 nodes on the predicted-backlog
signal must improve p50 latency ≥ ``AUTOSCALE_P50_FLOOR``× over the
fixed single node while scaling back in during every lull.

Every replication row carries its two cells as ``retry_scenario`` /
``no_retry_scenario`` blocks, and the autoscale section its two as
``fixed_scenario`` / ``scaled_scenario``
(:meth:`~repro.fleet.scenario.Scenario.as_dict`).  Like the other
``BENCH_*.json`` artifacts, the record is only (re)written when missing
or ``BENCH_RESILIENCE_EMIT=1`` is set (as CI does), and
``benchmarks/check_regression.py`` gates it.
"""

import json
import os
from pathlib import Path

from repro.cluster import AutoscalePolicy
from repro.fleet.scenario import Scenario, run

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_resilience.json"

SCENARIO = "zipf-mixed"
TIME_MODEL = "accelerator"
NODES = 4
JOBS = 96
TRAFFIC_SEEDS = (0, 1, 2, 3, 4)
CHURN_SEED_OFFSET = 100
DOWNTIME_FRACTION = 0.2
MTTR_S = 2.0
MISS_RATIO_FLOOR = 2.0
#: (policy, max_retries) of the defended cell and of its baseline
RETRY = ("affinity", 3)
NO_RETRY = ("round_robin", 0)

AUTOSCALE_SCENARIO = "jellyfish-heavy"
AUTOSCALE_SEED = 11
AUTOSCALE_JOBS = 48
AUTOSCALE_P50_FLOOR = 1.2


def churn_cell(policy: str, max_retries: int, seed: int) -> Scenario:
    """One (policy, retry budget, seed) replication under 20% churn."""
    return Scenario(
        SCENARIO,
        JOBS,
        seed,
        nodes=NODES,
        policy=policy,
        time_model=TIME_MODEL,
        max_retries=max_retries,
        churn_rate=DOWNTIME_FRACTION,
        churn_mttr=MTTR_S,
        churn_seed=seed + CHURN_SEED_OFFSET,
    )


def autoscale_cell(autoscale: bool) -> Scenario:
    """Bursty traffic on 1 starting node, autoscaled or fixed; the fixed
    node replays arrivals in model time like the autoscaled run."""
    policy = None
    if autoscale:
        policy = AutoscalePolicy(
            scale_out_threshold_s=0.5,
            scale_in_threshold_s=0.05,
            interval_s=0.25,
            min_nodes=1,
            max_nodes=6,
            provision_s=0.25,
        )
    return Scenario(
        AUTOSCALE_SCENARIO,
        AUTOSCALE_JOBS,
        AUTOSCALE_SEED,
        nodes=1,
        policy="least_loaded",
        time_model="functional",
        respect_arrivals=True,
        autoscale=policy,
    )


def replication_row(seed: int, retry: dict, no_retry: dict) -> dict:
    """One replication's record row from its two cells' summaries."""
    return {
        "retry_scenario": churn_cell(*RETRY, seed).as_dict(),
        "no_retry_scenario": churn_cell(*NO_RETRY, seed).as_dict(),
        "retry_missed": retry["deadlines"]["missed"],
        "retry_retries": retry["resilience"]["retries"],
        "no_retry_missed": no_retry["deadlines"]["missed"],
        "no_retry_failed": no_retry["resilience"]["failed_jobs"],
        "crashes": no_retry["resilience"]["crashes"],
    }


def pooled(cells: list[dict]) -> dict:
    """Pool deadline and failure counters over the replications."""
    missed = sum(c["deadlines"]["missed"] for c in cells)
    jobs = sum(c["deadlines"]["jobs"] for c in cells)
    return {
        "pooled_missed": missed,
        "pooled_deadline_jobs": jobs,
        "pooled_miss_rate": round(missed / jobs, 4) if jobs else 0.0,
        "retries": sum(c["resilience"]["retries"] for c in cells),
        "requeues": sum(c["resilience"]["requeues"] for c in cells),
        "failed_jobs": sum(c["resilience"]["failed_jobs"] for c in cells),
        "crashes": sum(c["resilience"]["crashes"] for c in cells),
    }


class TestClusterResilience:
    def test_smoke_churn_scenario_small(self):
        """Fast sanity: one small churned replication completes and
        accounts for every job."""
        summary = run(churn_cell(*RETRY, seed=2)).summary
        assert summary["jobs"] + summary["resilience"]["failed_jobs"] == JOBS
        assert summary["resilience"]["crashes"] > 0
        assert summary["deadlines"]["jobs"] > 0

    def test_retry_beats_no_retry_and_emit(self):
        retry_cells = [run(churn_cell(*RETRY, seed)).summary for seed in TRAFFIC_SEEDS]
        no_retry_cells = [
            run(churn_cell(*NO_RETRY, seed)).summary for seed in TRAFFIC_SEEDS
        ]
        retry = pooled(retry_cells)
        no_retry = pooled(no_retry_cells)
        ratio = (no_retry["pooled_missed"] + 1) / (retry["pooled_missed"] + 1)
        assert ratio >= MISS_RATIO_FLOOR, (
            f"affinity+retry must hold deadline misses >= "
            f"{MISS_RATIO_FLOOR}x below no-retry round_robin under "
            f"{DOWNTIME_FRACTION:.0%} churn; got {ratio:.3f}x "
            f"({retry['pooled_missed']} vs {no_retry['pooled_missed']} "
            f"missed)"
        )
        assert retry["failed_jobs"] == 0, "retries must deliver every job"
        assert no_retry["failed_jobs"] > 0, (
            "without retries, churn must actually drop jobs — otherwise "
            "this benchmark is not exercising the failure path"
        )

        fixed_cell, scaled_cell = autoscale_cell(False), autoscale_cell(True)
        auto_fixed = run(fixed_cell).summary
        auto_scaled = run(scaled_cell).summary
        p50_improvement = (
            auto_fixed["model"]["latency_s"]["p50"]
            / auto_scaled["model"]["latency_s"]["p50"]
        )
        scaling = auto_scaled["resilience"]["autoscale"]
        assert p50_improvement >= AUTOSCALE_P50_FLOOR, (
            f"autoscaling must improve p50 latency >= "
            f"{AUTOSCALE_P50_FLOOR}x over the fixed single node; got "
            f"{p50_improvement:.3f}x"
        )
        assert scaling["scale_outs"] >= 1 and scaling["scale_ins"] >= 1

        record = {
            "benchmark": "cluster_resilience",
            "unit": "deadline_miss_rate",
            "miss_ratio_floor": MISS_RATIO_FLOOR,
            "deadline_miss_ratio_smoothed": round(ratio, 3),
            "retry": retry,
            "no_retry": no_retry,
            "replications": [
                replication_row(seed, r, n)
                for seed, r, n in zip(TRAFFIC_SEEDS, retry_cells, no_retry_cells)
            ],
            "autoscale": {
                "fixed_scenario": fixed_cell.as_dict(),
                "scaled_scenario": scaled_cell.as_dict(),
                "p50_floor": AUTOSCALE_P50_FLOOR,
                "p50_improvement_vs_fixed": round(p50_improvement, 3),
                "scale_outs": scaling["scale_outs"],
                "scale_ins": scaling["scale_ins"],
            },
        }
        emit = os.environ.get("BENCH_RESILIENCE_EMIT") == "1"
        if emit or not BENCH_PATH.exists():
            BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")
        print(json.dumps(record, indent=2))
