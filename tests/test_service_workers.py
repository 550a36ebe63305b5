"""Persistent worker state: the build-once SRS contract.

ISSUE 7 satellite: a persistent worker process constructs its seeded
SRS exactly once and reuses it for every batch it ever proves — and
the worker-local index cache honours the service's configured bound
(the latent bug this PR fixed: ``ProvingService`` never forwarded
``cache_capacity`` to its process workers, leaving them unbounded).
"""

import ast
import pathlib

import pytest

import repro
from repro.hyperplonk.preprocess import circuit_fingerprint
from repro.service.core import ProvingService, ServiceConfig
from repro.service.traffic import GATE_TYPES, synthesize_circuit
from repro.traffic import OpenLoopTraffic
from repro.service.workers import (
    ProveTask,
    WorkerState,
    worker_state,
)

MAX_VARS = 4


def tasks(n: int, start_id: int = 0) -> list[ProveTask]:
    jobs = list(OpenLoopTraffic("uniform-small", seed=3, max_jobs=n).jobs())
    return [
        ProveTask(
            job_id=start_id + i,
            circuit=job.circuit,
            circuit_key=job.circuit_key,
        )
        for i, job in enumerate(jobs)
    ]


class TestWorkerState:
    def test_srs_built_once_across_batches(self):
        state = WorkerState(0x5EED, MAX_VARS, cache_capacity=4)
        for batch in (tasks(2), tasks(2, start_id=2)):
            for task in batch:
                outcome = state.prove(task)
                assert outcome.proof is not None
        assert state.srs_builds == 1
        assert state.jobs_proved == 4

    def test_repeat_circuit_hits_cache_with_zero_install(self):
        state = WorkerState(0x5EED, MAX_VARS, cache_capacity=4)
        first, second = tasks(1)[0], tasks(1)[0]
        miss = state.prove(first)
        hit = state.prove(second)
        assert not miss.cache_hit and miss.install_s > 0.0
        assert hit.cache_hit and hit.install_s == 0.0

    def test_worker_state_guard_reuses_same_params(self):
        a = worker_state(0x5EED, MAX_VARS, cache_capacity=2)
        b = worker_state(0x5EED, MAX_VARS, cache_capacity=2)
        assert a is b
        c = worker_state(0x5EED, MAX_VARS, cache_capacity=3)
        assert c is not a

    def test_probe_snapshot_reflects_state(self):
        state = WorkerState(0x5EED, MAX_VARS, cache_capacity=4)
        state.prove(tasks(1)[0])
        probe = state.probe(worker_id="w-0")
        assert probe.worker_id == "w-0"
        assert probe.srs_builds == 1
        assert probe.jobs_proved == 1
        assert probe.cache_capacity == 4
        assert probe.cache_len == 1

    def test_srs_of_max_vars_proves_max_vars_and_refuses_one_more(self):
        """Nothing in a proof has more variables than the circuit, so a
        worker's SRS is as large as its largest job and no larger."""
        def task(mu: int) -> ProveTask:
            circuit = synthesize_circuit(GATE_TYPES["jellyfish"], mu)
            return ProveTask(job_id=mu, circuit=circuit,
                             circuit_key=circuit_fingerprint(circuit))

        state = WorkerState(0x5EED, 3)
        assert state.prove(task(3)).proof.num_vars == state.kzg.srs.max_vars == 3
        with pytest.raises(ValueError, match="SRS supports up to 3 vars"):
            state.prove(task(4))


    def test_worker_kzg_is_fixed_base(self):
        state = WorkerState(0x5EED, MAX_VARS, cache_capacity=2)
        assert state.params == (0x5EED, MAX_VARS, 2)
        assert state.kzg.fixed_base
        assert state.cache.capacity == 2

    def test_prove_reports_the_given_worker(self):
        state = WorkerState(0x5EED, MAX_VARS)
        named = state.prove(tasks(1)[0], worker_id="sync-0")
        unnamed = state.prove(tasks(1)[0])
        assert named.worker_id == "sync-0"
        assert unnamed.worker_id.startswith("pid-")
        assert named.proof == unnamed.proof

    def test_sharing_state_proves_on_the_given_cache(self):
        owner = WorkerState(0x5EED, MAX_VARS)
        shared = WorkerState.sharing(owner.cache)
        assert shared.cache is owner.cache and shared.kzg is owner.kzg
        assert shared.srs_builds == 0
        miss, hit = shared.prove(tasks(1)[0]), owner.prove(tasks(1)[0])
        assert (miss.cache_hit, hit.cache_hit) == (False, True)
        assert hit.proof == miss.proof
        assert (owner.cache.stats.misses, owner.cache.stats.hits) == (1, 1)

    def test_outcome_counts_the_evictions_of_its_lookup(self):
        state = WorkerState(0x5EED, MAX_VARS, cache_capacity=1)
        outcomes = [state.prove(t) for t in tasks(3)]  # keys a, b, a
        assert [o.cache_hit for o in outcomes] == [False, False, False]
        assert [o.evictions for o in outcomes] == [0, 1, 1]
        assert state.cache.stats.evictions == 2


class TestSyncExecutor:
    def test_sync_service_proves_on_its_own_cache(self):
        with ProvingService(ServiceConfig(max_vars=MAX_VARS)) as svc:
            assert svc.pool.state.cache is svc.cache
            assert svc.pool.state.srs_builds == 0
            for job in OpenLoopTraffic("uniform-small", seed=3,
                                       max_jobs=3).jobs():
                svc.submit_job(job)
            results = svc.drain()
            assert {r.worker_id for r in results} == {"sync-0"}
            assert svc.cache.stats.lookups == len(results) == 3


@pytest.mark.parametrize("package", ["curves", "hyperplonk", "service"])
def test_proving_layers_import_no_threads(package):
    """One prover per process: nothing that builds an SRS, a KZG or an
    index cache imports a thread or lock primitive."""
    root = pathlib.Path(repro.__file__).parent / package
    modules = sorted(root.rglob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in ("threading", "_thread"), path
                assert name != "concurrent.futures.thread", path


class TestProcessExecutor:
    @pytest.fixture(scope="class")
    def service(self):
        config = ServiceConfig(
            max_vars=MAX_VARS,
            executor="process",
            num_workers=1,
            cache_capacity=3,
        )
        with ProvingService(config) as svc:
            yield svc

    def test_two_batches_one_srs_construction(self, service):
        jobs = list(OpenLoopTraffic("uniform-small", seed=3, max_jobs=4).jobs())
        first = service.run(jobs[:2])
        second = service.run(jobs[2:])
        assert len(first) == 2 and len(second) == 2
        (probe,) = service.pool.probe()
        assert probe.srs_builds == 1
        assert probe.jobs_proved == 4

    def test_worker_cache_is_bounded_by_service_config(self, service):
        (probe,) = service.pool.probe()
        assert probe.cache_capacity == 3
        assert probe.cache_len <= 3


class TestOneProvingPath:
    """Every executor looks an index up once a job, in its worker's
    cache, so the sync and process services report the same lookups."""

    @staticmethod
    def serve(executor: str, num_workers: int = 1):
        traffic = OpenLoopTraffic("uniform-small", seed=3, max_jobs=6)
        config = ServiceConfig(
            max_vars=traffic.max_vars(), executor=executor, num_workers=num_workers
        )
        with ProvingService(config) as svc:
            results = svc.run(list(traffic.jobs()))
            return results, svc.summary()["cache"]

    def test_sync_and_one_process_worker_agree(self):
        sync, sync_cache = self.serve("sync")
        pool, pool_cache = self.serve("process")
        assert [r.proof for r in pool] == [r.proof for r in sync]
        lookups = [(r.cache_hit, r.batch_size) for r in sync]
        assert [(r.cache_hit, r.batch_size) for r in pool] == lookups
        keep = ("hits", "misses", "evictions", "hit_rate")
        assert {k: pool_cache[k] for k in keep} == {k: sync_cache[k] for k in keep}
        assert sync_cache["hits"] + sync_cache["misses"] == len(sync) == 6
        assert sync_cache["preprocess_s"] > 0 and pool_cache["preprocess_s"] > 0

    def test_two_process_workers_count_every_job(self):
        results, cache = self.serve("process", num_workers=2)
        assert cache["hits"] + cache["misses"] == len(results) == 6
        assert cache["hits"] == sum(r.cache_hit for r in results)
