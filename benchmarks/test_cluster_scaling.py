"""Affinity vs cost-blind sharding + ``BENCH_cluster.json`` emitter.

ISSUE 4 acceptance: on the zipf-mixed scenario at 4 nodes, consistent
hashing on the circuit fingerprint must deliver ≥ 1.2× the round-robin
fleet throughput.  The mechanism is index locality: round-robin spreads
every circuit structure across the fleet, so each node's bounded
:class:`~repro.service.cache.IndexCache` keeps re-installing indexes it
just evicted, while affinity pins each structure to one node and the
install cost is paid ~once per structure.

The acceptance cells run in *execute* mode — every proof is really
produced on a per-node proving service — so the recorded cache hit
rates and preprocess seconds are measured, and the model-time
throughput gate rides on real cache behaviour.  The node-count sweep
rows run in pure simulation (identical model-time arithmetic, locked by
``tests/test_cluster.py``).  Like the other ``BENCH_*.json`` artifacts,
the record is only (re)written when missing or ``BENCH_CLUSTER_EMIT=1``
is set (as CI does).  Each row carries its cell as a ``scenario`` block
(:meth:`~repro.fleet.scenario.Scenario.as_dict`) in its ``exact``
section, beside the model-time counts; throughput and hit rates are
``ratio`` values, and the measured seconds of execute mode ``info``.
"""

import json
import os
from pathlib import Path

from repro.cluster.routing import ROUTING_POLICIES
from repro.fleet.scenario import Scenario, run

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_cluster.json"

SCENARIO = "zipf-mixed"
#: seed 0 is a conservative draw: its affinity/round-robin ratio sits at
#: the low end of the seed distribution (most seeds land higher)
SEED = 0
JOBS = 96
NODES = 4
SPEEDUP_FLOOR = 1.2
SWEEP_NODES = (1, 2, 4, 8)


def cell(policy: str, num_nodes: int, *, execute: bool) -> Scenario:
    return Scenario(
        SCENARIO, JOBS, SEED, nodes=num_nodes, policy=policy, execute=execute
    )


def acceptance_row(scenario: Scenario) -> dict:
    summary = run(scenario).summary
    model = summary["model"]
    return {
        "exact": {
            "scenario": scenario.as_dict(),
            "jobs": summary["jobs"],
            "model_makespan_s": model["makespan_s"],
            "load_imbalance": model["load_imbalance"],
            "install_share": model["install_share"],
            "shape_spread": summary["routing"]["shape_spread"],
        },
        "ratio": {
            "model_jobs_per_s": model["throughput_jobs_per_s"],
            "sim_cache_hit_rate": summary["cache"]["sim"]["hit_rate"],
            "real_cache_hit_rate": summary["cache"]["real"]["hit_rate"],
        },
        "info": {
            "real_preprocess_s": summary["cache"]["real"]["preprocess_s"],
            "measured_makespan_s": summary["measured"]["makespan_s"],
        },
    }


def sweep_row(scenario: Scenario) -> dict:
    summary = run(scenario).summary
    model = summary["model"]
    return {
        "exact": {
            "scenario": scenario.as_dict(),
            "load_imbalance": model["load_imbalance"],
            "install_share": model["install_share"],
            "shape_spread": summary["routing"]["shape_spread"],
        },
        "ratio": {
            "model_jobs_per_s": model["throughput_jobs_per_s"],
            "cache_hit_rate": summary["cache"]["sim"]["hit_rate"],
        },
    }


class TestClusterScaling:
    def test_smoke_sim_small(self):
        """Fast sanity: a small simulated sweep completes and reports."""
        result = run(Scenario(SCENARIO, 6, 1, nodes=2, policy="affinity"))
        summary = result.summary
        assert len(result.records) == 6
        assert summary["model"]["throughput_jobs_per_s"] > 0
        assert summary["routing"]["shape_spread"] == 1.0

    def test_affinity_beats_round_robin_and_emit(self):
        rows = {
            policy: acceptance_row(cell(policy, NODES, execute=True))
            for policy in ("round_robin", "affinity")
        }
        ratio = (
            rows["affinity"]["ratio"]["model_jobs_per_s"]
            / rows["round_robin"]["ratio"]["model_jobs_per_s"]
        )
        assert ratio >= SPEEDUP_FLOOR, (
            f"affinity must beat round_robin by >= {SPEEDUP_FLOOR}x on "
            f"{SCENARIO} at {NODES} nodes; got {ratio:.3f}x"
        )
        assert (
            rows["affinity"]["ratio"]["real_cache_hit_rate"]
            > rows["round_robin"]["ratio"]["real_cache_hit_rate"]
        ), "affinity must improve the measured index-cache hit rate"

        sweep = [
            sweep_row(cell(policy, num_nodes, execute=False))
            for num_nodes in SWEEP_NODES
            for policy in ROUTING_POLICIES
        ]
        record = {
            "exact": {
                "benchmark": "cluster_scaling",
                "unit": "model_jobs_per_s",
                "speedup_floor_affinity_vs_round_robin": SPEEDUP_FLOOR,
            },
            "ratio": {"affinity_vs_round_robin": round(ratio, 3)},
            "acceptance": [rows["round_robin"], rows["affinity"]],
            "sweep": sweep,
        }
        emit = os.environ.get("BENCH_CLUSTER_EMIT") == "1"
        if emit or not BENCH_PATH.exists():
            BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")
        print(json.dumps(record, indent=2))
