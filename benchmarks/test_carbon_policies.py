"""Carbon-aware scheduling benchmark; ``BENCH_carbon.json``.

ISSUE 10 acceptance: on a diurnal carbon-intensity trace, the
``carbon_waiting`` policy must cut carbon-per-proof ≥ ``RATIO_FLOOR``×
vs the carbon-blind fleet at the *same* seeded job stream, while the
realtime (gold) deadline-miss count stays equal or better.

Three cells, identical traffic and trace seeds throughout (the stream and
the trace live in ``tests/goldens.py``, beside the capped cells that pin
them):

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
deterministic model time, so every value is ``exact`` except the
gram-per-proof figures, the headline carbon ratio, blind's joules and
aware's held starts, which are ``ratio`` values.  Like the other
``BENCH_*.json`` artifacts the record is (re)written only when missing
or ``BENCH_CARBON_EMIT=1`` is set (as CI does), and
``benchmarks/check_regression.py`` gates it.
"""

import json
import os
import sys
from pathlib import Path

import pytest

from repro.carbon import CarbonConfig
from repro.cluster import ClusterConfig, NodeConfig, ProvingCluster
from repro.service.jobs import RequestClass

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import goldens  # noqa: E402
from goldens import CAPPED, pinned, run_capped_cell, sha256, summary_text  # noqa: E402

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_carbon.json"

RATIO_FLOOR = 1.3


def run_cell(policy: str, *, threshold: float | None = None) -> dict:
    """One policy cell over the shared stream; returns its bench section."""
    jobs = goldens.make_jobs()
    config = ClusterConfig(
        num_nodes=goldens.NODES,
        time_model=goldens.TIME_MODEL,
        node=NodeConfig(max_vars=6),
        carbon=CarbonConfig(
            trace=goldens.make_trace(),
            policy=policy,
            low_threshold_g_per_kwh=threshold,
        ),
    )
    with ProvingCluster(config) as cluster:
        records = cluster.run(jobs)
        carbon = cluster.summary()["carbon"]
        gold = [r for r in records if r.request_class is RequestClass.REALTIME]
        batch = [r for r in records if r.request_class is RequestClass.DEFERRABLE]
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


#: what the parent commit of PR 21 (carbon / power-cap scheduling still
#: inside ``ClusterEngine``) produced for :func:`run_capped_cell`: these
#: counters, and the summary and event log under ``capped/`` in
#: ``tests/goldens.json``
CAPPED_COUNTERS = {
    ("carbon_waiting", 400, False): {
        "resilience": {"crashes": 0, "retries": 0, "requeues": 0, "failed_jobs": 0},
        "gate": {
            "held_starts": 107,
            "cap_deferrals": 19,
            "cap_breaches": 0,
            "suspends": 5,
            "resumes": 5,
        },
    },
    ("edd", 300, True): {
        "resilience": {"crashes": 15, "retries": 4, "requeues": 1, "failed_jobs": 0},
        "gate": {
            "held_starts": 0,
            "cap_deferrals": 61,
            "cap_breaches": 0,
            "suspends": 12,
            "resumes": 11,
        },
    },
}


def cell_record(cell: dict, *ratio: str) -> dict:
    """A cell's values in their sections: carbon per proof and the
    ``ratio`` keys within tolerance, every other value exact."""
    ratio = ("carbon_per_proof_g", *ratio)
    return {
        "exact": {k: v for k, v in cell.items() if k not in ratio},
        "ratio": {k: v for k, v in cell.items() if k in ratio},
    }


class TestActiveGateGolden:
    """Moving the carbon / power-cap state machine out of the engine
    must not move a decision: same summary, same counters, same log."""

    @pytest.mark.parametrize("policy, jobs, churn", sorted(CAPPED))
    def test_capped_cell_reproduces_the_recorded_digests(self, policy, jobs, churn):
        cell = run_capped_cell(policy, jobs=jobs, churn=churn)
        prefix = CAPPED[policy, jobs, churn]
        assert sha256(summary_text(cell.pop("summary"))) == pinned(f"{prefix}/summary")
        assert sha256(cell.pop("events")) == pinned(f"{prefix}/events")
        assert cell == CAPPED_COUNTERS[policy, jobs, churn]
        assert cell["gate"]["suspends"] > 0 and cell["gate"]["cap_deferrals"] > 0


class TestCarbonPolicies:
    def test_smoke_cells_comparable(self):
        """Fast sanity: the cells see the same deterministic stream and
        the blind cell prices every completed proof."""
        jobs = goldens.make_jobs()
        jobs2 = goldens.make_jobs()
        assert [(j.arrival_s, j.deadline_s) for j in jobs] == [
            (j.arrival_s, j.deadline_s) for j in jobs2
        ]
        blind = run_cell("none")
        assert blind["completed"] == len(jobs) - blind["failed"]
        assert blind["carbon_g"] > 0
        assert blind["held_starts"] == 0, "policy 'none' never holds"

    def test_carbon_ratio_and_emit(self):
        blind = run_cell("none")
        aware = run_cell("carbon_waiting", threshold=goldens.LOW_THRESHOLD)
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
            "exact": {
                "benchmark": "carbon_policies",
                "unit": "carbon_per_proof_g ratio (blind / aware)",
                "scenario": goldens.SCENARIO,
                "traffic_seed": goldens.TRAFFIC_SEED,
                "rate_rps": goldens.RATE_RPS,
                "horizon_s": goldens.HORIZON_S,
                "nodes": goldens.NODES,
                "time_model": goldens.TIME_MODEL,
                "batch_slack_s": goldens.BATCH_SLACK_S,
                "trace": {
                    "base_g_per_kwh": goldens.TRACE_BASE,
                    "amplitude": goldens.TRACE_AMPLITUDE,
                    "period_s": goldens.TRACE_PERIOD_S,
                    "noise": goldens.TRACE_NOISE,
                    "seed": goldens.TRACE_SEED,
                },
                "carbon_ratio_floor": RATIO_FLOOR,
            },
            "ratio": {"carbon_ratio": round(ratio, 4)},
            "cells": {
                "blind": cell_record(blind, "energy_j"),
                "aware": cell_record(aware, "held_starts"),
                "edd": cell_record(edd),
            },
        }
        emit = os.environ.get("BENCH_CARBON_EMIT") == "1"
        if emit or not BENCH_PATH.exists():
            BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")
        print(json.dumps(record, indent=2))
