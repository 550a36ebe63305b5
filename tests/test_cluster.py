"""Cluster-layer contracts: the index cache, pricing and model time.

The simulated fleet runs in model time and proves nothing: these tests
pin its LRU cache, the time model's prices, routing and membership.
Proof bytes — identical whichever node and whichever routing policy
produced them — are checked on the real fleet (``tests/test_fleet.py``
and ``tests/test_scenario.py``).
"""

import pytest

from repro.cluster import (
    ClusterConfig,
    FleetTimeModel,
    NodeConfig,
    ProvingCluster,
    SimIndexCache,
    TIME_MODEL_PRESETS,
)
from repro.traffic import OpenLoopTraffic

SCENARIO = "uniform-small"
SEED = 7


def stream(jobs: int, *, scenario: str = SCENARIO, seed: int = SEED):
    traffic = OpenLoopTraffic(scenario, seed=seed, max_jobs=jobs)
    return traffic, list(traffic.jobs())


def make_config(**kwargs) -> ClusterConfig:
    node = kwargs.pop("node", None)
    if node is None:
        node = NodeConfig(max_vars=6)
    return ClusterConfig(node=node, **kwargs)


class TestSimIndexCache:
    def test_lru_eviction_and_stats(self):
        cache = SimIndexCache(capacity=2)
        assert cache.lookup("a") is False
        assert cache.lookup("a") is True
        assert cache.lookup("b") is False
        assert cache.lookup("c") is False  # evicts "a"
        assert "a" not in cache
        assert cache.lookup("a") is False
        assert cache.stats.hits == 1
        assert cache.stats.misses == 4
        assert cache.stats.evictions == 2

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            SimIndexCache(capacity=0)


class TestFleetTimeModelPrice:
    """A job shape is priced once as an ``(install_s, prove_s)`` pair;
    the pair must be exactly what the two plan-cost models say."""

    @pytest.mark.parametrize("preset", TIME_MODEL_PRESETS)
    def test_price_is_the_two_shape_costs(self, preset):
        time_model = FleetTimeModel.preset(preset)
        _, jobs = stream(40, scenario="zipf-mixed")
        shapes = set()
        for job in jobs:
            shape = (job.circuit.gate_type.name, job.circuit.num_vars)
            shapes.add(shape)
            install_s, prove_s = time_model.price(job)
            assert install_s == time_model.install_model.shape_cost_s(*shape)
            assert prove_s == time_model.prove_model.shape_cost_s(*shape)
            assert time_model.cold_s(job) == install_s + prove_s
            assert time_model.price(job) is time_model.price(job)
        assert len(shapes) > 1

    def test_models_cannot_be_swapped_under_the_prices(self):
        time_model = FleetTimeModel.preset("functional")
        with pytest.raises(AttributeError):
            time_model.prove_model = time_model.install_model


class TestClusterSimulation:
    def test_single_node_policies_agree(self):
        """With one node every policy degenerates to the same timeline."""
        summaries = []
        for policy in ("round_robin", "least_loaded", "affinity"):
            _, jobs = stream(10)
            with ProvingCluster(make_config(num_nodes=1, policy=policy)) as c:
                c.run(jobs)
                summaries.append(c.summary()["model"])
        assert summaries[0] == summaries[1] == summaries[2]

    def test_records_cover_every_job(self):
        _, jobs = stream(12)
        with ProvingCluster(make_config(num_nodes=3)) as cluster:
            records = cluster.run(jobs)
            summary = cluster.summary()
        assert len(records) == 12
        assert sorted(r.job_id for r in records) == list(range(12))
        assert sum(summary["routing"]["jobs_per_node"].values()) == 12
        assert summary["jobs"] == 12
        busy = summary["model"]["busy_s"]
        assert summary["model"]["makespan_s"] >= max(busy.values()) - 1e-9

    def test_affinity_keeps_shapes_on_one_node(self):
        _, jobs = stream(16, scenario="zipf-mixed", seed=3)
        with ProvingCluster(make_config(num_nodes=4, policy="affinity")) as c:
            c.run(jobs)
            summary = c.summary()
        assert summary["routing"]["shape_spread"] == 1.0

    def test_respect_arrivals_inserts_idle_time(self):
        """Arrivals are a property of the stream: the same jobs with
        every ``arrival_s`` zeroed run saturated, never slower."""
        _, jobs = stream(8)
        for job in jobs:
            job.arrival_s = 0.0
        with ProvingCluster(make_config(num_nodes=2)) as saturated:
            saturated.run(jobs)
            fast = saturated.summary()["model"]["makespan_s"]
            assert "deadlines" not in saturated.summary()
        _, jobs = stream(8)
        with ProvingCluster(make_config(num_nodes=2)) as paced:
            paced.run(jobs)
            slow = paced.summary()["model"]["makespan_s"]
            assert "deadlines" in paced.summary()
        assert slow >= fast

    def test_oversized_circuit_rejected(self):
        (job,) = OpenLoopTraffic("jellyfish-heavy", seed=0, max_jobs=1).jobs()
        config = make_config(node=NodeConfig(max_vars=3))
        job.circuit.num_vars = 5  # forged: larger than the node SRS
        with ProvingCluster(config) as cluster:
            with pytest.raises(ValueError, match="exceeds"):
                cluster.run([job])
            assert cluster.records == []

    def test_generator_and_list_give_identical_records(self):
        """The up-front fit check must not use up a generator: the same
        jobs handed over lazily and as a list give the same records."""
        runs = []
        for as_list in (False, True):
            jobs = OpenLoopTraffic(SCENARIO, seed=1, max_jobs=12).jobs()
            with ProvingCluster(make_config(num_nodes=2)) as cluster:
                runs.append(cluster.run(list(jobs) if as_list else jobs))
                assert cluster.failed_jobs == []
        assert len(runs[0]) == 12
        assert runs[0] == runs[1]

    def test_membership_cycle(self):
        _, jobs = stream(8)
        with ProvingCluster(make_config(num_nodes=2)) as cluster:
            cluster.run(jobs[:4])
            new_node = cluster.add_node()
            assert new_node == "node-2"
            cluster.run(jobs[4:])
            cluster.remove_node(new_node)
            summary = cluster.summary()
        assert summary["jobs"] == 8
        # the retired node's history stays visible
        assert new_node in summary["model"]["busy_s"]

    def test_remove_with_pending_refused(self):
        _, jobs = stream(4)
        with ProvingCluster(make_config(num_nodes=1)) as cluster:
            node = cluster.nodes["node-0"]
            for job in jobs:
                job.job_id = cluster.next_job_id()
                node.submit(job)
            with pytest.raises(ValueError, match="pending"):
                cluster.remove_node("node-0")

    def test_time_model_presets(self):
        assert FleetTimeModel.preset("accelerator").name == "accelerator"
        assert FleetTimeModel.preset("functional").name == "functional"
        with pytest.raises(ValueError):
            FleetTimeModel.preset("nope")
