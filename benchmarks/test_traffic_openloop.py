"""Sim fast path + open-loop admission benchmark; ``BENCH_traffic.json``.

ISSUE 8 acceptance, two sections in one record:

* ``sim_core`` — the churn-heavy driver from ``tools/profile_sim.py``
  (self-rescheduling server chains, cancel-and-rearm watchdogs, a
  standing pool of cancelled far-future events, periodic ``len(sim)``
  polls) fires 10⁶ events on the current engine and 2×10⁵ on the
  vendored pre-fast-path baseline (``benchmarks/legacy_sim.py``).
  Normalized events/sec must show the fast path ≥ ``SPEEDUP_FLOOR``×
  faster; the fired count, final clock, and ``len`` probe are pure
  model values and are pinned exactly.
* ``open_loop`` — a seeded 10⁵-job multi-tenant open-loop run on
  zipf-mixed at ~6× overload, admission-controlled vs unprotected, at
  the *same* seed.  Admission must improve goodput (SLO-met
  completions per model second) ≥ ``GOODPUT_FLOOR``× — unprotected
  queues grow without bound, so almost every deadline burns — while
  shedding bronze before silver before gold.  Every number is
  deterministic model time.

Only the events/sec figures touch the wall clock, so the record is
bit-stable everywhere else.  Like the other ``BENCH_*.json`` artifacts
it is (re)written only when missing or ``BENCH_TRAFFIC_EMIT=1`` is set
(as CI does), and ``benchmarks/check_regression.py`` gates it.
"""

import json
import os
import sys
import time
from pathlib import Path

from legacy_sim import LegacySimulator

from repro.cluster.admission import AdmissionPolicy
from repro.fleet.scenario import Scenario, run
from repro.sim import Simulator

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from profile_sim import churn_heavy  # noqa: E402

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_traffic.json"

#: churn-heavy events fired on the current engine
SIM_EVENTS = 1_000_000
#: events fired on the vendored baseline (normalized to events/sec)
LEGACY_EVENTS = 200_000
SPEEDUP_FLOOR = 3.0

SCENARIO = "zipf-mixed"
SEED = 0
OPEN_LOOP_JOBS = 100_000
#: ~6x the fleet's install-bound service capacity at 4 nodes
RATE_RPS = 40.0
NODES = 4
POLICY = "least_loaded"
TENANTS = 3
ADMISSION_WINDOW_S = 10.0
GOODPUT_FLOOR = 2.0


def run_open_loop_cell(with_admission: bool, jobs: int = OPEN_LOOP_JOBS) -> dict:
    """One seeded open-loop run; returns its traffic summary."""
    admission = AdmissionPolicy(window_s=ADMISSION_WINDOW_S) if with_admission else None
    cell = Scenario(
        SCENARIO,
        jobs,
        SEED,
        nodes=NODES,
        policy=POLICY,
        open_loop=True,
        rate_rps=RATE_RPS,
        tenants=TENANTS,
        admission=admission,
    )
    return run(cell).summary


def openloop_section(summary: dict) -> dict:
    """The per-cell keys the record pins from one traffic summary."""
    model = summary["model"]
    return {
        "offered": summary["offered"],
        "admitted": summary["admitted"],
        "shed": summary["shed"],
        "shed_rate": summary["shed_rate"],
        "completed": summary["completed"],
        "failed": summary["failed"],
        "goodput_jobs_per_s": model["goodput_jobs_per_s"],
        "throughput_jobs_per_s": model["throughput_jobs_per_s"],
        "slo_attainment": model["slo_attainment"],
        "latency_p99_s": model["latency_s"]["p99"],
        "latency_p99_9_s": model["latency_s"]["p99_9"],
        "jain_fairness": summary["jain_fairness"],
        "shed_by_tenant": {
            row["tenant"]: row["shed"] for row in summary["tenants"]
        },
    }


class TestTrafficOpenLoop:
    def test_smoke_small(self):
        """Fast sanity: a small churn-heavy run and a small open-loop
        run are deterministic and conserve every offered job."""
        fired, now, probe = churn_heavy(Simulator(), 20_000, fast=True)
        fired2, now2, probe2 = churn_heavy(Simulator(), 20_000, fast=True)
        assert (fired, now, probe) == (fired2, now2, probe2)
        assert fired >= 20_000

        summary = run_open_loop_cell(True, jobs=2_000)
        assert summary["offered"] == 2_000
        assert (
            summary["offered"]
            == summary["shed"] + summary["completed"] + summary["failed"]
        )
        assert summary["shed"] > 0, "overload must shed through admission"

    def test_fastpath_speedup_and_openloop_and_emit(self):
        started = time.perf_counter()
        fired, final_clock, len_probe = churn_heavy(
            Simulator(), SIM_EVENTS, fast=True
        )
        new_wall = time.perf_counter() - started

        started = time.perf_counter()
        legacy_fired, legacy_clock, legacy_probe = churn_heavy(
            LegacySimulator(), LEGACY_EVENTS, fast=False
        )
        legacy_wall = time.perf_counter() - started

        events_per_s = fired / new_wall
        legacy_events_per_s = legacy_fired / legacy_wall
        speedup = events_per_s / legacy_events_per_s
        assert speedup >= SPEEDUP_FLOOR, (
            f"sim fast path must clear {SPEEDUP_FLOOR}x the pre-rework "
            f"engine on the churn-heavy workload; got {speedup:.2f}x "
            f"({events_per_s:,.0f} vs {legacy_events_per_s:,.0f} events/s)"
        )

        admission = run_open_loop_cell(True)
        no_admission = run_open_loop_cell(False)
        for cell in (admission, no_admission):
            assert cell["offered"] == OPEN_LOOP_JOBS
            assert (
                cell["offered"]
                == cell["shed"] + cell["completed"] + cell["failed"]
            )
        improvement = (
            admission["model"]["goodput_jobs_per_s"]
            / no_admission["model"]["goodput_jobs_per_s"]
        )
        assert improvement >= GOODPUT_FLOOR, (
            f"admission must improve goodput >= {GOODPUT_FLOOR}x over the "
            f"unprotected fleet at the same seed; got {improvement:.2f}x"
        )
        shed = {
            row["tenant"]: row["shed"] for row in admission["tenants"]
        }
        # bronze (tenant-2) caps out before silver before gold
        assert shed["tenant-2"] > shed["tenant-1"] > shed["tenant-0"], shed
        assert admission["jain_fairness"] > no_admission["jain_fairness"]

        record = {
            "benchmark": "traffic_openloop",
            "unit": "sim_events_per_s + goodput_jobs_per_s",
            "sim_core": {
                "workload": "churn_heavy",
                "events": SIM_EVENTS,
                "legacy_events": LEGACY_EVENTS,
                "speedup_floor": SPEEDUP_FLOOR,
                "speedup": round(speedup, 2),
                "events_per_s": round(events_per_s),
                "legacy_events_per_s": round(legacy_events_per_s),
                "fired": fired,
                "final_clock_s": round(final_clock, 6),
                "len_probe": len_probe,
                "legacy_fired": legacy_fired,
                "legacy_final_clock_s": round(legacy_clock, 6),
                "legacy_len_probe": legacy_probe,
            },
            "open_loop": {
                "scenario": SCENARIO,
                "seed": SEED,
                "jobs": OPEN_LOOP_JOBS,
                "rate_rps": RATE_RPS,
                "nodes": NODES,
                "policy": POLICY,
                "tenants": TENANTS,
                "admission_window_s": ADMISSION_WINDOW_S,
                "goodput_floor": GOODPUT_FLOOR,
                "goodput_improvement": round(improvement, 2),
                "admission": openloop_section(admission),
                "no_admission": openloop_section(no_admission),
            },
        }
        emit = os.environ.get("BENCH_TRAFFIC_EMIT") == "1"
        if emit or not BENCH_PATH.exists():
            BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")
        print(json.dumps(record, indent=2))
