"""Routing-layer contracts: determinism, consistency, balance.

Satellite coverage for the cluster layer (ISSUE 4):

* affinity hashing is deterministic across router instances, runs, and
  *process boundaries* (the ring hashes with SHA-256, never the
  interpreter-salted ``hash()``);
* adding/removing a ring node only moves ~K/N keys, and every moved key
  moves to (or from) the changed node — the consistent-hashing contract;
* ``least_loaded`` is greedy-argmin on predicted outstanding cost: it
  never assigns to a node whose outstanding cost exceeds another's at
  assignment time, so no node ends more than one job over the minimum.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterRouter, HashRing, stable_hash
from repro.service.jobs import ProofJob
from repro.service.traffic import GATE_TYPES, synthesize_circuit

NODE_IDS = ["node-0", "node-1", "node-2", "node-3"]
KEYS = [f"fingerprint-{i:04d}" for i in range(300)]

RING_SCRIPT = """\
import json
from repro.cluster import HashRing

ring = HashRing({node_ids!r})
keys = {keys!r}
print(json.dumps({{key: ring.node_for(key) for key in keys}}))
"""


def make_job(job_id: int, *, log2: int = 3, gate: str = "vanilla") -> ProofJob:
    circuit = synthesize_circuit(GATE_TYPES[gate], log2, witness_seed=job_id)
    return ProofJob(job_id=job_id, circuit=circuit)


class TestHashRing:
    def test_rejects_empty_and_duplicates(self):
        ring = HashRing(["a"])
        with pytest.raises(ValueError):
            ring.add_node("a")
        with pytest.raises(KeyError):
            ring.remove_node("b")
        with pytest.raises(ValueError):
            HashRing([], replicas=4).node_for("k")

    def test_deterministic_across_instances(self):
        first = HashRing(NODE_IDS)
        second = HashRing(list(reversed(NODE_IDS)))
        assert {k: first.node_for(k) for k in KEYS} == {
            k: second.node_for(k) for k in KEYS
        }

    def test_deterministic_across_process_boundary(self):
        """A fresh interpreter places every key identically."""
        script = RING_SCRIPT.format(node_ids=NODE_IDS, keys=KEYS[:64])
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        ring = HashRing(NODE_IDS)
        expected = {key: ring.node_for(key) for key in KEYS[:64]}
        assert json.loads(out.stdout) == expected

    def test_stable_hash_is_sha256_based(self):
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash("abc") != stable_hash("abd")
        # a known vector, so any change to the scheme is loud
        assert stable_hash("node-0#0") == 0xB66BB0A30B8A176B

    def test_add_node_moves_only_keys_onto_it(self):
        ring = HashRing(NODE_IDS)
        before = {key: ring.node_for(key) for key in KEYS}
        ring.add_node("node-4")
        after = {key: ring.node_for(key) for key in KEYS}
        moved = [key for key in KEYS if before[key] != after[key]]
        assert moved, "adding a node must take over some keys"
        assert all(after[key] == "node-4" for key in moved)
        # ~K/N expected; allow generous spread around 300/5 = 60
        assert len(moved) <= 2.5 * len(KEYS) / 5

    def test_remove_node_moves_only_its_keys(self):
        ring = HashRing(NODE_IDS + ["node-4"])
        before = {key: ring.node_for(key) for key in KEYS}
        ring.remove_node("node-4")
        after = {key: ring.node_for(key) for key in KEYS}
        for key in KEYS:
            if before[key] == "node-4":
                assert after[key] != "node-4"
            else:
                assert after[key] == before[key]

    def test_replicas_spread_keys(self):
        ring = HashRing(NODE_IDS)
        counts = {node_id: 0 for node_id in NODE_IDS}
        for key in KEYS:
            counts[ring.node_for(key)] += 1
        assert all(count > 0 for count in counts.values())

    def test_exclude_only_diverts_the_excluded_nodes_keys(self):
        """Consistent-hash failover: excluding a node mid-stream moves
        exactly its keys, each to the key's next clockwise owner —
        identical to the placement with the node removed outright."""
        ring = HashRing(NODE_IDS)
        before = {key: ring.node_for(key) for key in KEYS}
        failed = "node-2"
        with_exclude = {
            key: ring.node_for(key, exclude={failed}) for key in KEYS
        }
        removed_ring = HashRing(NODE_IDS)
        removed_ring.remove_node(failed)
        removed = {key: removed_ring.node_for(key) for key in KEYS}
        assert with_exclude == removed
        for key in KEYS:
            if before[key] != failed:
                assert with_exclude[key] == before[key]
            else:
                assert with_exclude[key] != failed

    def test_exclude_everything_raises(self):
        from repro.cluster import NoRoutableNodeError

        ring = HashRing(NODE_IDS)
        with pytest.raises(NoRoutableNodeError):
            ring.node_for("k", exclude=set(NODE_IDS))


class TestClusterRouter:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="round_robin"):
            ClusterRouter("nope", NODE_IDS)

    def test_round_robin_cycles_evenly(self):
        router = ClusterRouter("round_robin", NODE_IDS)
        counts = {node_id: 0 for node_id in NODE_IDS}
        for i in range(41):
            counts[router.assign(make_job(i))] += 1
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_affinity_groups_same_fingerprint(self):
        router = ClusterRouter("affinity", NODE_IDS)
        placements = {}
        for i in range(24):
            job = make_job(i, log2=3 + i % 4)
            node_id = router.assign(job)
            placements.setdefault(job.circuit_key, set()).add(node_id)
        assert all(len(nodes) == 1 for nodes in placements.values())

    def test_affinity_matches_ring(self):
        router = ClusterRouter("affinity", NODE_IDS)
        for i in range(12):
            job = make_job(i, log2=3 + i % 4)
            assert router.select(job) == router.ring.node_for(job.circuit_key)

    def test_least_loaded_is_greedy_argmin(self):
        """Each assignment goes to a currently-least-loaded node, so no
        node's predicted outstanding cost ever exceeds another's by more
        than the one job just placed there."""
        router = ClusterRouter("least_loaded", NODE_IDS)
        jobs = [
            make_job(i, log2=3 + i % 4, gate="vanilla" if i % 3 else "jellyfish")
            for i in range(32)
        ]
        max_job_cost = 0.0
        for job in jobs:
            before = dict(router.outstanding_s)
            chosen = router.assign(job)
            assert before[chosen] == min(before.values())
            # routing must never stamp the job: predicted_cost_s belongs
            # to the node's own service cost model
            assert job.predicted_cost_s is None
            max_job_cost = max(max_job_cost, router.job_cost_s(job))
        outstanding = router.outstanding_s.values()
        assert max(outstanding) - min(outstanding) <= max_job_cost + 1e-12

    def test_release_resets_outstanding(self):
        router = ClusterRouter("least_loaded", NODE_IDS)
        node_id = router.assign(make_job(0))
        assert router.outstanding_s[node_id] > 0
        router.release(node_id)
        assert router.outstanding_s[node_id] == 0.0

    def test_mark_down_skips_node_and_mark_up_restores_placement(self):
        """A down node receives nothing under any policy, only its ~K/N
        keys remap, and recovery restores the original placement."""
        for policy in ("round_robin", "least_loaded", "affinity"):
            router = ClusterRouter(policy, NODE_IDS)
            before = {
                i: router.ring.node_for(f"key-{i}") for i in range(64)
            }
            router.mark_down("node-1")
            assert router.up_node_ids == ["node-0", "node-2", "node-3"]
            assert router.down_node_ids == ["node-1"]
            for i in range(24):
                assert router.assign(make_job(i, log2=3 + i % 4)) != "node-1"
            router.mark_up("node-1")
            after = {i: router.ring.node_for(f"key-{i}") for i in range(64)}
            assert after == before

    def test_mark_down_twice_and_unknown_rejected(self):
        router = ClusterRouter("affinity", NODE_IDS)
        router.mark_down("node-0")
        with pytest.raises(ValueError):
            router.mark_down("node-0")
        with pytest.raises(KeyError):
            router.mark_down("ghost")
        with pytest.raises(ValueError):
            router.mark_up("node-1")
        router.mark_up("node-0")

    def test_assign_exclude_respected(self):
        from repro.cluster import NoRoutableNodeError

        for policy in ("round_robin", "least_loaded", "affinity"):
            router = ClusterRouter(policy, NODE_IDS)
            for i in range(16):
                job = make_job(i, log2=3 + i % 4)
                chosen = router.assign(job, exclude=("node-0", "node-2"))
                assert chosen in ("node-1", "node-3")
            with pytest.raises(NoRoutableNodeError):
                router.assign(make_job(99), exclude=tuple(NODE_IDS))

    def test_whole_fleet_may_be_down(self):
        from repro.cluster import NoRoutableNodeError

        router = ClusterRouter("affinity", ["node-0", "node-1"])
        router.mark_down("node-0")
        router.mark_down("node-1")
        with pytest.raises(NoRoutableNodeError):
            router.select(make_job(0))
        router.mark_up("node-0")
        assert router.select(make_job(0)) == "node-0"

    def test_membership_changes(self):
        router = ClusterRouter("affinity", ["node-0"])
        with pytest.raises(ValueError):
            router.remove_node("node-0")
        router.add_node("node-1")
        with pytest.raises(ValueError):
            router.add_node("node-1")
        router.remove_node("node-0")
        assert router.node_ids == ["node-1"]
        with pytest.raises(KeyError):
            router.release("node-0")


class TestUpCount:
    """Admission asks "how many nodes are up" twice per arrival; the
    router answers from two set sizes instead of building the list."""

    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(("mark_down", "mark_up", "add_node", "remove_node")),
                st.integers(min_value=0, max_value=7),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_up_count_is_len_up_node_ids(self, steps):
        router = ClusterRouter("least_loaded", ["node-0", "node-1", "node-2"])
        assert router.up_count() == 3
        for op, index in steps:
            try:
                getattr(router, op)(f"node-{index}")
            except (KeyError, ValueError):
                pass  # an illegal step must leave the count right too
            assert router.up_count() == len(router.up_node_ids)
            assert set(router.down_node_ids) <= set(router.node_ids)
