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
is set (as CI does).
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


def run_cell(policy: str, num_nodes: int, *, execute: bool) -> dict:
    return run(
        Scenario(SCENARIO, JOBS, SEED, nodes=num_nodes, policy=policy, execute=execute)
    ).summary


def acceptance_row(summary: dict) -> dict:
    model = summary["model"]
    return {
        "policy": summary["policy"],
        "jobs": summary["jobs"],
        "model_jobs_per_s": model["throughput_jobs_per_s"],
        "model_makespan_s": model["makespan_s"],
        "load_imbalance": model["load_imbalance"],
        "install_share": model["install_share"],
        "shape_spread": summary["routing"]["shape_spread"],
        "sim_cache_hit_rate": summary["cache"]["sim"]["hit_rate"],
        "real_cache_hit_rate": summary["cache"]["real"]["hit_rate"],
        "real_preprocess_s": summary["cache"]["real"]["preprocess_s"],
        "measured_makespan_s": summary["measured"]["makespan_s"],
    }


def sweep_row(summary: dict) -> dict:
    model = summary["model"]
    return {
        "nodes": summary["nodes"],
        "policy": summary["policy"],
        "model_jobs_per_s": model["throughput_jobs_per_s"],
        "load_imbalance": model["load_imbalance"],
        "install_share": model["install_share"],
        "cache_hit_rate": summary["cache"]["sim"]["hit_rate"],
        "shape_spread": summary["routing"]["shape_spread"],
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
        cells = {
            policy: run_cell(policy, NODES, execute=True)
            for policy in ("round_robin", "affinity")
        }
        rows = {p: acceptance_row(s) for p, s in cells.items()}
        ratio = (
            rows["affinity"]["model_jobs_per_s"]
            / rows["round_robin"]["model_jobs_per_s"]
        )
        assert ratio >= SPEEDUP_FLOOR, (
            f"affinity must beat round_robin by >= {SPEEDUP_FLOOR}x on "
            f"{SCENARIO} at {NODES} nodes; got {ratio:.3f}x"
        )
        assert (
            rows["affinity"]["real_cache_hit_rate"]
            > rows["round_robin"]["real_cache_hit_rate"]
        ), "affinity must improve the measured index-cache hit rate"

        sweep = [
            sweep_row(run_cell(policy, num_nodes, execute=False))
            for num_nodes in SWEEP_NODES
            for policy in ROUTING_POLICIES
        ]
        record = {
            "benchmark": "cluster_scaling",
            "unit": "model_jobs_per_s",
            "scenario": SCENARIO,
            "seed": SEED,
            "jobs": JOBS,
            "nodes": NODES,
            "time_model": "accelerator",
            "speedup_floor_affinity_vs_round_robin": SPEEDUP_FLOOR,
            "affinity_vs_round_robin": round(ratio, 3),
            "acceptance": [rows["round_robin"], rows["affinity"]],
            "sweep": sweep,
        }
        emit = os.environ.get("BENCH_CLUSTER_EMIT") == "1"
        if emit or not BENCH_PATH.exists():
            BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")
        print(json.dumps(record, indent=2))
