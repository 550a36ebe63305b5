"""Carbon-aware scheduling benchmark; ``BENCH_carbon.json``.

ISSUE 10 acceptance: on a diurnal carbon-intensity trace, the
``carbon_waiting`` policy must cut carbon-per-proof ≥ ``RATIO_FLOOR``×
vs the carbon-blind fleet at the *same* seeded job stream, while the
realtime (gold) deadline-miss count stays equal or better.

Three cells, identical traffic and trace seeds throughout:

* ``blind`` — ``policy="none"``: the engine prices joules and gCO₂ but
  never moves a job; this is the passive baseline the parity test pins
  bit-identical to a carbon-free run.
* ``aware`` — ``carbon_waiting`` with a low-intensity release threshold:
  deferrable (bronze-batch) jobs hold at high-intensity windows and
  drain in the diurnal troughs; realtime gold is never delayed.
* ``edd`` — earliest-deadline-first tie-break, recorded as the
  slack-insensitive control (it reorders, never waits, so its carbon
  matches blind).

The substrate is the ``functional`` time model (per-job prove seconds
dominate node energy) over two full trace periods — under the
``accelerator`` model a proof is ~40 μs and fleet energy is all one-off
installs, which no start-time policy can move.  Every number is
deterministic model time; like the other ``BENCH_*.json`` artifacts the
record is (re)written only when missing or ``BENCH_CARBON_EMIT=1`` is
set (as CI does), and ``benchmarks/check_regression.py`` gates it.
"""

import hashlib
import json
import os
from itertools import islice
from pathlib import Path

import pytest

from repro.carbon import CarbonConfig, CarbonIntensityTrace
from repro.cluster import ClusterConfig, NodeConfig, ProvingCluster
from repro.service.jobs import RequestClass
from repro.traffic import SLO_TIERS, OpenLoopTraffic, SLOTier, TenantSpec
from repro.workloads import trace_for_downtime

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_carbon.json"

SCENARIO = "uniform-small"
TRAFFIC_SEED = 11
TRACE_SEED = 7
RATE_RPS = 2.0
HORIZON_S = 480.0  # two full trace periods
NODES = 2
TIME_MODEL = "functional"
TRACE_BASE = 300.0
TRACE_AMPLITUDE = 0.8
TRACE_PERIOD_S = 240.0
TRACE_NOISE = 0.05
LOW_THRESHOLD = 180.0
#: deadline slack for the deferrable batch tier; generous enough that a
#: held job can always reach a ≤ LOW_THRESHOLD window and still finish
BATCH_SLACK_S = 200.0
RATIO_FLOOR = 1.3
#: gold deadlines are tight (slack 2 s); batch slack is 200 s, so the
#: arrival→deadline gap cleanly separates the tiers in the records
GOLD_GAP_S = 10.0


def make_trace() -> CarbonIntensityTrace:
    """The shared diurnal trace (same seed in every cell)."""
    return CarbonIntensityTrace(
        base_g_per_kwh=TRACE_BASE,
        amplitude=TRACE_AMPLITUDE,
        period_s=TRACE_PERIOD_S,
        noise=TRACE_NOISE,
        seed=TRACE_SEED,
    )


def make_jobs() -> list:
    """A fresh copy of the seeded gold + bronze-batch job stream."""
    tenants = [
        TenantSpec(
            "gold-rt", weight=0.3, tier=SLO_TIERS["gold"], quota_fraction=1.0
        ),
        TenantSpec(
            "bronze-batch",
            weight=0.7,
            tier=SLOTier(
                name="batch",
                deadline_slack_s=BATCH_SLACK_S,
                admission_factor=0.7,
                request_class=RequestClass.DEFERRABLE,
            ),
            quota_fraction=1.0,
        ),
    ]
    traffic = OpenLoopTraffic(
        SCENARIO,
        seed=TRAFFIC_SEED,
        tenants=tenants,
        rate_rps=RATE_RPS,
        horizon_s=HORIZON_S,
        burst_mult=1.0,
    )
    return list(islice(traffic.jobs(), 10_000))


def run_cell(policy: str, *, threshold: float | None = None) -> dict:
    """One policy cell over the shared stream; returns its bench section."""
    jobs = make_jobs()
    config = ClusterConfig(
        num_nodes=NODES,
        time_model=TIME_MODEL,
        node=NodeConfig(max_vars=6),
        carbon=CarbonConfig(
            trace=make_trace(),
            policy=policy,
            low_threshold_g_per_kwh=threshold,
        ),
    )
    with ProvingCluster(config) as cluster:
        records = cluster.run_scenario(jobs)
        carbon = cluster.summary()["carbon"]
        gold = [r for r in records if r.deadline_s - r.arrival_s < GOLD_GAP_S]
        batch = [r for r in records if r.deadline_s - r.arrival_s >= GOLD_GAP_S]
        return {
            "policy": policy,
            "low_threshold_g_per_kwh": threshold,
            "completed": len(records),
            "failed": len(cluster.failed_jobs),
            "gold_jobs": len(gold),
            "gold_missed": sum(1 for r in gold if r.missed_deadline),
            "batch_jobs": len(batch),
            "batch_missed": sum(1 for r in batch if r.missed_deadline),
            "energy_j": carbon["energy_j"],
            "carbon_g": carbon["carbon_g"],
            "carbon_per_proof_g": carbon["carbon_per_proof_g"],
            "held_starts": carbon["held_starts"],
            "suspends": carbon["suspends"],
            "resumes": carbon["resumes"],
        }


def run_capped_cell(policy: str, *, jobs: int, churn: bool) -> dict:
    """An *active* start gate end to end: ``policy`` under a power cap
    that admits one busy node of the two (350 + 42 W against 400 W),
    over the first ``jobs`` jobs of the shared stream — holds, cap
    deferrals and phase-boundary parking all fire, and with ``churn``
    nodes crash under parked and parking jobs.  Returns digests of the
    summary and the event log plus the run's counters."""
    config = ClusterConfig(
        num_nodes=NODES,
        policy="least_loaded",
        time_model=TIME_MODEL,
        node=NodeConfig(max_vars=6),
        max_retries=8,
        carbon=CarbonConfig(
            trace=make_trace(),
            policy=policy,
            low_threshold_g_per_kwh=LOW_THRESHOLD,
            power_cap_w=400.0,
        ),
    )
    trace = (
        trace_for_downtime(NODES, jobs / RATE_RPS, downtime_fraction=0.1, seed=3)
        if churn
        else ()
    )
    with ProvingCluster(config) as cluster:
        cluster.run_scenario(make_jobs()[:jobs], churn=trace)
        summary = cluster.summary()
        carbon = summary["carbon"]
        return {
            "summary": sha256(json.dumps(summary, sort_keys=True)),
            "events": sha256(cluster.events.to_jsonl()),
            "resilience": {
                key: cluster.resilience[key]
                for key in ("crashes", "retries", "requeues", "failed_jobs")
            },
            "gate": {
                key: carbon[key]
                for key in (
                    "held_starts", "cap_deferrals", "cap_breaches",
                    "suspends", "resumes",
                )
            },
        }


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


#: what the parent commit of PR 21 (carbon / power-cap scheduling still
#: inside ``ClusterEngine``) produced for :func:`run_capped_cell`
CAPPED_GOLDEN = {
    ("carbon_waiting", 400, False): {
        "summary": "cda31d124bf048da2a2d4945ef3b81cf5a216fe8a17dcd899b50209ee6f3bea1",
        "events": "99a0166062fc62593587fa1111fcf10eeeb935522736420b647e40ba2eac843a",
        "resilience": {"crashes": 0, "retries": 0, "requeues": 0, "failed_jobs": 0},
        "gate": {
            "held_starts": 107, "cap_deferrals": 19, "cap_breaches": 0,
            "suspends": 5, "resumes": 5,
        },
    },
    ("edd", 300, True): {
        "summary": "c619a37ee657bbdc586ba5cbf22fd678c3450c835968f58ec929b6ace2caebc1",
        "events": "3d8a4ab9fca3c83e78edb2fffd0165fae04fb2b49196b01ea2985527f0a82171",
        "resilience": {"crashes": 15, "retries": 4, "requeues": 1, "failed_jobs": 0},
        "gate": {
            "held_starts": 0, "cap_deferrals": 61, "cap_breaches": 0,
            "suspends": 12, "resumes": 11,
        },
    },
}


class TestActiveGateGolden:
    """Moving the carbon / power-cap state machine out of the engine
    must not move a decision: same summary, same counters, same log."""

    @pytest.mark.parametrize("policy, jobs, churn", sorted(CAPPED_GOLDEN))
    def test_capped_cell_reproduces_the_recorded_digests(self, policy, jobs, churn):
        cell = run_capped_cell(policy, jobs=jobs, churn=churn)
        assert cell == CAPPED_GOLDEN[policy, jobs, churn]
        assert cell["gate"]["suspends"] > 0 and cell["gate"]["cap_deferrals"] > 0


class TestCarbonPolicies:
    def test_smoke_cells_comparable(self):
        """Fast sanity: the cells see the same deterministic stream and
        the blind cell prices every completed proof."""
        jobs = make_jobs()
        jobs2 = make_jobs()
        assert [(j.arrival_s, j.deadline_s) for j in jobs] == [
            (j.arrival_s, j.deadline_s) for j in jobs2
        ]
        blind = run_cell("none")
        assert blind["completed"] == len(jobs) - blind["failed"]
        assert blind["carbon_g"] > 0
        assert blind["held_starts"] == 0, "policy 'none' never holds"

    def test_carbon_ratio_and_emit(self):
        blind = run_cell("none")
        aware = run_cell("carbon_waiting", threshold=LOW_THRESHOLD)
        edd = run_cell("edd")

        for cell in (blind, aware, edd):
            assert cell["completed"] == blind["completed"], cell
            assert cell["failed"] == 0, cell
        ratio = blind["carbon_per_proof_g"] / aware["carbon_per_proof_g"]
        assert ratio >= RATIO_FLOOR, (
            f"carbon_waiting must cut carbon-per-proof >= {RATIO_FLOOR}x vs "
            f"the carbon-blind fleet on the diurnal trace; got {ratio:.2f}x "
            f"({blind['carbon_per_proof_g']} vs {aware['carbon_per_proof_g']} g)"
        )
        # the carbon win must not be bought with realtime deadline misses
        assert aware["gold_missed"] <= blind["gold_missed"], (aware, blind)
        assert aware["batch_missed"] <= blind["batch_missed"], (aware, blind)
        assert aware["held_starts"] > 0, "aware cell must actually hold jobs"
        # edd reorders but never waits, so it cannot move carbon
        assert abs(edd["carbon_g"] - blind["carbon_g"]) < 1e-6

        record = {
            "benchmark": "carbon_policies",
            "unit": "carbon_per_proof_g ratio (blind / aware)",
            "scenario": SCENARIO,
            "traffic_seed": TRAFFIC_SEED,
            "rate_rps": RATE_RPS,
            "horizon_s": HORIZON_S,
            "nodes": NODES,
            "time_model": TIME_MODEL,
            "batch_slack_s": BATCH_SLACK_S,
            "trace": {
                "base_g_per_kwh": TRACE_BASE,
                "amplitude": TRACE_AMPLITUDE,
                "period_s": TRACE_PERIOD_S,
                "noise": TRACE_NOISE,
                "seed": TRACE_SEED,
            },
            "carbon_ratio_floor": RATIO_FLOOR,
            "carbon_ratio": round(ratio, 4),
            "cells": {"blind": blind, "aware": aware, "edd": edd},
        }
        emit = os.environ.get("BENCH_CARBON_EMIT") == "1"
        if emit or not BENCH_PATH.exists():
            BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")
        print(json.dumps(record, indent=2))
