"""The fast-path rework is arithmetically invisible (ISSUE 8).

The sim-core fast path (threshold compaction, ``schedule_fast``), the
router's lazy-invalidation load heap, and the nodes' heap-indexed
pending queues are *performance* changes: every model number the
committed ``BENCH_cluster.json`` / ``BENCH_resilience.json`` baselines
pin must come out bit-identical.  These tests re-run a slice of each
benchmark's cells through the public recipes
(``benchmarks/test_cluster_scaling.py`` /
``test_cluster_resilience.py``) and compare against the committed
records — if a "fast path" ever changes a routing decision, a finish
time, or a deadline verdict, this fails before the bench gate does.
"""

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "benchmarks"))

from test_cluster_resilience import (  # noqa: E402
    NO_RETRY,
    RETRY,
    churn_cell,
    replication_row,
)
from test_cluster_scaling import cell, sweep_row  # noqa: E402

from repro.fleet.scenario import run  # noqa: E402

CLUSTER_RECORD = REPO / "BENCH_cluster.json"
RESILIENCE_RECORD = REPO / "BENCH_resilience.json"

#: the sim-mode sweep slice replayed here (all policies at both sizes)
PARITY_NODES = (1, 4)


class TestClusterSweepParity:
    def test_sim_sweep_rows_match_committed_record(self):
        committed = json.loads(CLUSTER_RECORD.read_text())
        by_key = {}
        for row in committed["sweep"]:
            block = row["exact"]["scenario"]
            by_key[block["nodes"], block["policy"]] = row
        for num_nodes in PARITY_NODES:
            for policy in ("round_robin", "least_loaded", "affinity"):
                fresh = sweep_row(cell(policy, num_nodes))
                assert fresh == by_key[(num_nodes, policy)], (
                    f"model numbers drifted at nodes={num_nodes} "
                    f"policy={policy}: the engine rework must be "
                    f"arithmetically invisible"
                )


class TestResilienceParity:
    def test_churn_replication_matches_committed_record(self):
        committed = json.loads(RESILIENCE_RECORD.read_text())
        baseline = committed["replications"][0]
        seed = baseline["exact"]["retry_scenario"]["seed"]

        retry = run(churn_cell(*RETRY, seed)).summary
        no_retry = run(churn_cell(*NO_RETRY, seed)).summary
        assert replication_row(seed, retry, no_retry) == baseline, (
            "churn-replication counters drifted: the fast-path rework "
            "changed a failure-path decision"
        )
