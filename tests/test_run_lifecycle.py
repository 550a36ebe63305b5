"""A finished simulation frees itself.

The sim runtime's object graph is acyclic (DESIGN.md §11, "Ownership"):
no object stores a bound method or closure of an object that holds it,
and back-references travel as call arguments.  So reference counting
alone frees a run as soon as its caller lets go, and what the caller
keeps — a :class:`~repro.fleet.scenario.ScenarioResult` with its
summary, event log and records — keeps no engine, cluster, simulator,
carbon runtime or admission controller alive.

Every test here runs with the cyclic collector disabled, so an object
that only a reference cycle keeps alive shows up as a live weakref.
Nothing is timed and no memory is measured: the checks are object
identities.
"""

import gc
import weakref

import pytest

from repro.carbon import CarbonConfig, CarbonIntensityTrace
from repro.carbon.runtime import CarbonRuntime
from repro.cluster import ClusterConfig, ClusterEngine, NodeConfig, ProvingCluster
from repro.cluster.admission import AdmissionController, AdmissionPolicy
from repro.cluster.autoscale import AutoscalePolicy
from repro.fleet.scenario import Scenario, run
from repro.sim import Simulator
from repro.traffic import OpenLoopTraffic
from repro.workloads import scenario_by_name

#: the run-scoped objects a finished run must free, by the name a
#: test reports them under
TRACKED = {
    "engine": ClusterEngine,
    "cluster": ProvingCluster,
    "simulator": Simulator,
    "carbon": CarbonRuntime,
    "admission": AdmissionController,
}

CELLS = {
    "closed_batch": (Scenario("zipf-mixed", 32, 3), ()),
    "churn_retry": (
        Scenario(
            "zipf-mixed",
            48,
            1,
            nodes=3,
            policy="least_loaded",
            churn_rate=0.3,
            churn_mttr=1.0,
            churn_seed=7,
        ),
        (),
    ),
    "autoscale": (
        Scenario(
            "zipf-mixed",
            120,
            1,
            nodes=3,
            time_model="functional",
            churn_rate=0.3,
            churn_seed=101,
            autoscale=AutoscalePolicy(
                scale_out_threshold_s=0.5,
                scale_in_threshold_s=0.05,
                interval_s=0.25,
                min_nodes=1,
                max_nodes=6,
                provision_s=0.25,
            ),
        ),
        (),
    ),
    "capped_edd": (
        Scenario(
            "uniform-small",
            24,
            nodes=2,
            policy="round_robin",
            carbon=CarbonConfig(
                CarbonIntensityTrace(seed=0), "edd", power_cap_w=375.0
            ),
        ),
        ("carbon",),
    ),
    "open_loop_admission": (
        Scenario(
            "zipf-mixed",
            600,
            2,
            policy="least_loaded",
            max_retries=64,
            churn_rate=0.1,
            churn_seed=2,
            carbon=CarbonConfig(CarbonIntensityTrace(seed=2), policy="none"),
            rate_rps=40.0,
            horizon_s=15.0,
            admission=AdmissionPolicy(window_s=10.0),
        ),
        ("carbon", "admission"),
    ),
}


@pytest.fixture
def no_cyclic_gc():
    """Only reference counting frees anything while the test runs."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture
def made(monkeypatch):
    """name → weakrefs to every tracked object constructed in the test."""
    refs: dict[str, list] = {name: [] for name in TRACKED}
    for name, cls in TRACKED.items():

        def tracking_init(self, *args, _init=cls.__init__, _name=name, **kwargs):
            _init(self, *args, **kwargs)
            refs[_name].append(weakref.ref(self))

        monkeypatch.setattr(cls, "__init__", tracking_init)
    return refs


def alive(refs: dict[str, list]) -> dict[str, int]:
    """How many tracked objects of each kind are still alive."""
    counts = {
        name: sum(ref() is not None for ref in kind) for name, kind in refs.items()
    }
    return {name: count for name, count in counts.items() if count}


def exercised(cell: str, summary: dict) -> bool:
    """Whether ``cell`` reached the machinery it is named for."""
    if cell == "closed_batch":
        return summary["jobs"] == 32
    if cell == "churn_retry":
        return summary["resilience"]["retries"] >= 1
    if cell == "autoscale":
        return summary["resilience"]["autoscale"]["scale_outs"] >= 1
    if cell == "capped_edd":
        return summary["carbon"]["cap_deferrals"] >= 1
    return summary["traffic"]["shed"] > 0 and summary["carbon"]["energy_j"] > 0


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_a_kept_result_keeps_no_run_alive(cell, made, no_cyclic_gc):
    scenario, extra = CELLS[cell]
    result = run(scenario)
    assert exercised(cell, result.summary), result.summary
    built = {name for name, kind in made.items() if kind}
    assert built == {"engine", "cluster", "simulator", *extra}
    # the caller holds only the result: summary, event log, records
    assert alive(made) == {}
    assert result.records and len(result.events) > len(result.records)
    log = weakref.ref(result.events)
    del result
    assert log() is None


def batch(seed: int) -> list:
    """A fresh 24-job zipf-mixed closed batch (runs stamp its jobs)."""
    return list(OpenLoopTraffic("zipf-mixed", seed=seed, max_jobs=24).jobs())


def cluster() -> ProvingCluster:
    max_vars = scenario_by_name("zipf-mixed").max_log2_gates
    config = ClusterConfig(num_nodes=3, node=NodeConfig(max_vars=max_vars))
    return ProvingCluster(config)


def test_a_cluster_run_twice_matches_fresh_clusters(made, no_cyclic_gc):
    reused = cluster()
    reused.run(batch(4))
    first = reused.summary()
    # between runs only the cluster is alive: the first run's engine
    # and simulator went with it
    assert alive(made) == {"cluster": 1}
    reused.add_node()
    reused.run(batch(5))
    second = reused.summary()
    assert alive(made) == {"cluster": 1}
    job_ids = sorted(record.job_id for record in reused.records)
    assert job_ids == list(range(48))  # ids continue across runs
    # the cluster's event log is the last run's
    logged = {event.job_id for event in reused.events if event.job_id is not None}
    assert logged == set(range(24, 48))

    fresh = cluster()
    fresh.run(batch(4))
    assert fresh.summary() == first
    fresh = cluster()
    fresh.run(batch(4))
    fresh.add_node()
    fresh.run(batch(5))
    assert fresh.summary() == second
