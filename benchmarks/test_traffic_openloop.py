"""Sim core + open-loop admission benchmark; ``BENCH_traffic.json``.

Three parts in one record:

* ``sim_core`` — the churn-heavy driver from ``tools/profile_sim.py``
  (self-rescheduling server chains, cancel-and-rearm watchdogs, a
  standing pool of cancelled far-future events, periodic ``len(sim)``
  polls) fires 10⁶ events.  The fired count, final clock, and ``len``
  probe are pure model values, pinned ``exact``; events/sec is
  ``info``.
* ``open_loop_counts`` — the ``sim_openloop_5e3`` cell's counts, read
  by ``open_loop_profile`` in ``tools/profile_sim.py`` off one profiled
  run: shape-pricing calls, ``EventLog.emit`` calls, ``FleetEvent``
  constructions and admission budgets are ``exact``; Python calls per
  offered job also counts stdlib calls, so it is ``info``.
* ``open_loop`` — a seeded 10⁵-job multi-tenant open-loop run on
  zipf-mixed at ~6× overload, admission-controlled vs unprotected, at
  the *same* seed.  Admission must improve goodput (SLO-met
  completions per model second) ≥ ``GOODPUT_FLOOR``× — unprotected
  queues grow without bound, so almost every deadline burns — while
  shedding bronze before silver before gold.  Every number is
  deterministic model time, and each cell carries its
  :class:`~repro.fleet.scenario.Scenario` as a ``scenario`` block in
  its ``exact`` section; goodput, SLO attainment, fairness and the
  admission cell's shed rate are ``ratio`` values.

Only ``info`` values touch the host, and none is asserted.  Like the
other ``BENCH_*.json`` artifacts the record is (re)written only when
missing or ``BENCH_TRAFFIC_EMIT=1`` is set (as CI does), and
``benchmarks/check_regression.py`` gates it.
"""

import json
import os
import sys
import time
from pathlib import Path

from repro.cluster.admission import AdmissionPolicy
from repro.fleet.scenario import Scenario, run
from repro.sim import Simulator

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from profile_sim import churn_heavy, open_loop_profile  # noqa: E402

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_traffic.json"

#: churn-heavy events fired on the sim core
SIM_EVENTS = 1_000_000
#: the profiled ``sim_openloop_5e3`` cell
PROFILE_JOBS = 5_000
PROFILE_SEED = 0

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


def open_loop_cell(with_admission: bool, jobs: int = OPEN_LOOP_JOBS) -> Scenario:
    """One seeded open-loop run, admission-controlled or unprotected."""
    admission = AdmissionPolicy(window_s=ADMISSION_WINDOW_S) if with_admission else None
    return Scenario(
        SCENARIO,
        jobs,
        SEED,
        nodes=NODES,
        policy=POLICY,
        respect_arrivals=True,
        rate_rps=RATE_RPS,
        tenants=TENANTS,
        admission=admission,
    )


def openloop_section(cell: Scenario, summary: dict) -> dict:
    """The cell and the values the record keeps from its traffic summary."""
    model = summary["model"]
    exact = {
        "scenario": cell.as_dict(),
        "offered": summary["offered"],
        "admitted": summary["admitted"],
        "shed": summary["shed"],
        "completed": summary["completed"],
        "failed": summary["failed"],
        "throughput_jobs_per_s": model["throughput_jobs_per_s"],
        "latency_p99_s": model["latency_s"]["p99"],
        "latency_p99_9_s": model["latency_s"]["p99_9"],
        "shed_by_tenant": {row["tenant"]: row["shed"] for row in summary["tenants"]},
    }
    ratio = {
        "goodput_jobs_per_s": model["goodput_jobs_per_s"],
        "slo_attainment": model["slo_attainment"],
        "jain_fairness": summary["jain_fairness"],
    }
    # admission's shed rate is a headline rate; without admission
    # nothing is shed, so the rate is exactly 0
    (ratio if cell.admission else exact)["shed_rate"] = summary["shed_rate"]
    return {"exact": exact, "ratio": ratio}


class TestTrafficOpenLoop:
    def test_smoke_small(self):
        """Fast sanity: a small churn-heavy run and a small open-loop
        run are deterministic and conserve every offered job."""
        fired, now, probe = churn_heavy(Simulator(), 20_000)
        fired2, now2, probe2 = churn_heavy(Simulator(), 20_000)
        assert (fired, now, probe) == (fired2, now2, probe2)
        assert fired >= 20_000

        summary = run(open_loop_cell(True, jobs=2_000)).summary["traffic"]
        assert summary["offered"] == 2_000
        assert (
            summary["offered"]
            == summary["shed"] + summary["completed"] + summary["failed"]
        )
        assert summary["shed"] > 0, "overload must shed through admission"

    def test_fastpath_speedup_and_openloop_and_emit(self):
        started = time.perf_counter()
        fired, final_clock, len_probe = churn_heavy(Simulator(), SIM_EVENTS)
        wall = time.perf_counter() - started
        counts, _ = open_loop_profile(PROFILE_JOBS, PROFILE_SEED)
        calls_per_job = counts.pop("python_calls_per_offered_job")

        admission_cell, no_admission_cell = open_loop_cell(True), open_loop_cell(False)
        admission = run(admission_cell).summary["traffic"]
        no_admission = run(no_admission_cell).summary["traffic"]
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
            "exact": {
                "benchmark": "traffic_openloop",
                "unit": "sim_events_per_s + goodput_jobs_per_s",
            },
            "sim_core": {
                "exact": {
                    "workload": "churn_heavy",
                    "events": SIM_EVENTS,
                    "fired": fired,
                    "final_clock_s": round(final_clock, 6),
                    "len_probe": len_probe,
                },
                "info": {"events_per_s": round(fired / wall)},
            },
            "open_loop_counts": {
                "exact": {"jobs": PROFILE_JOBS, "seed": PROFILE_SEED, **counts},
                "info": {"python_calls_per_offered_job": calls_per_job},
            },
            "open_loop": {
                "exact": {"goodput_floor": GOODPUT_FLOOR},
                "ratio": {"goodput_improvement": round(improvement, 2)},
                "admission": openloop_section(admission_cell, admission),
                "no_admission": openloop_section(no_admission_cell, no_admission),
            },
        }
        emit = os.environ.get("BENCH_TRAFFIC_EMIT") == "1"
        if emit or not BENCH_PATH.exists():
            BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")
        print(json.dumps(record, indent=2))
