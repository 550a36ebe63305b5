"""Worker pools that drain proving batches.

Every proof is made by one :meth:`WorkerState.prove`, which looks the
job's prover index up in the state's :class:`IndexCache` and reports
the lookup on its :class:`TaskOutcome`.  Two executors share one
interface (:class:`WorkerPool.run_tasks`):

* :class:`SyncExecutor` — inline, single worker; the default and the
  determinism baseline.  Its state proves on the service's own KZG and
  index cache.
* :class:`ProcessExecutor` — a process pool.  Each worker rebuilds an
  *identical* KZG/SRS from the service's seed in its initializer (the
  trapdoor SRS is deterministic in the seed) and keeps a worker-local
  index cache, so no multi-megabyte SRS or index ever crosses the pipe
  and proofs stay bit-identical to the in-process path.

A :class:`~repro.hyperplonk.commitment.MultilinearKZG`, its SRS and an
:class:`~repro.service.cache.IndexCache` are not thread-safe, so the
service runs one prover per process.

Every worker proves on the one :mod:`repro.fields.vector` kernel, so a
task carries no kernel choice across the pipe.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import nullcontext
from dataclasses import InitVar, dataclass, field as dc_field

from repro.fields import Fq, Fr
from repro.fields.counters import OpCounter, recording
from repro.fields.vector import require_fused
from repro.hyperplonk.circuit import Circuit
from repro.hyperplonk.commitment import MultilinearKZG, TrapdoorSRS
from repro.hyperplonk.prover import HyperPlonkProof, HyperPlonkProver
from repro.service.cache import IndexCache


@dataclass
class ProveTask:
    """One unit of worker work: prove ``circuit``, whose prover index
    the worker looks up by ``circuit_key``."""

    job_id: int
    circuit: Circuit
    circuit_key: str
    collect_counter: bool = False
    #: retired: accepts only ``None`` or ``"fused"`` and is not stored,
    #: so a pickled task carries no kernel name
    backend: InitVar[str | None] = None

    def __post_init__(self, backend: str | None) -> None:
        require_fused(backend)


@dataclass
class TaskOutcome:
    """What a worker reports back for one task."""

    job_id: int
    proof: HyperPlonkProof
    worker_id: str
    cache_hit: bool
    started_s: float
    finished_s: float
    prove_s: float
    counter: OpCounter | None = dc_field(default=None, repr=False)
    #: seconds spent preprocessing the index (0.0 on a cache hit)
    install_s: float = 0.0
    #: indexes the lookup pushed out of the worker's bounded cache
    evictions: int = 0


# -- process-worker side ----------------------------------------------------

@dataclass(frozen=True)
class WorkerProbe:
    """A picklable snapshot of one worker process's persistent state.

    The regression contract rides on ``srs_builds``: a persistent
    worker builds its seeded SRS **exactly once** at startup and reuses
    it for every batch it ever proves
    (``tests/test_service_workers.py`` locks this down).
    """

    worker_id: str
    pid: int
    #: times this process constructed an SRS — must stay 1 for its life
    srs_builds: int
    cache_capacity: int | None
    cache_len: int
    cache_hits: int
    cache_misses: int
    jobs_proved: int


class WorkerState:
    """The build-once proving state one worker owns: the one place a
    prover index is looked up.

    One seeded :class:`TrapdoorSRS`/:class:`MultilinearKZG` (identical
    to the coordinator's, since the trapdoor SRS is deterministic in
    the seed) plus a *bounded* worker-local :class:`IndexCache`.
    Constructing the state is the only place an SRS is ever built on
    the worker side; ``srs_builds`` counts constructions so tests and
    probes can assert the build-once invariant.  Both the service's
    :class:`ProcessExecutor` workers and the :mod:`repro.fleet` node
    workers own exactly one of these; the :class:`SyncExecutor` owns
    one made by :meth:`sharing`, on the service's own KZG and cache.
    """

    def __init__(self, srs_seed: int, srs_max_vars: int,
                 cache_capacity: int | None = None):
        self.params = (srs_seed, srs_max_vars, cache_capacity)
        srs = TrapdoorSRS(srs_max_vars, random.Random(srs_seed))
        self.kzg = MultilinearKZG(srs, fixed_base=True)
        self.cache = IndexCache(self.kzg, capacity=cache_capacity)
        self.srs_builds = 1
        self.jobs_proved = 0

    @classmethod
    def sharing(cls, cache: IndexCache) -> "WorkerState":
        """A state that proves on ``cache`` and its KZG and builds no SRS:
        the in-process worker of a service that owns both."""
        state = cls.__new__(cls)
        state.params = None
        state.kzg = cache.kzg
        state.cache = cache
        state.srs_builds = 0
        state.jobs_proved = 0
        return state

    def prove(self, task: ProveTask,
              worker_id: str | None = None) -> TaskOutcome:
        """Prove ``task`` against this state, looking its index up in
        this state's cache."""
        _canonicalize_field(task.circuit)
        evictions = self.cache.stats.evictions
        t0 = time.perf_counter()
        pidx, _, hit = self.cache.get(task.circuit, task.circuit_key)
        install_s = 0.0 if hit else time.perf_counter() - t0
        self.jobs_proved += 1
        # wall stamps use time.time(): they are compared against the
        # coordinator's submit stamps, and perf_counter's epoch is
        # undefined across processes; the prove duration is a
        # same-process delta, so it keeps the high-resolution clock
        started = time.time()
        t0 = time.perf_counter()
        with recording() if task.collect_counter else nullcontext() as counter:
            proof = HyperPlonkProver(task.circuit, pidx, self.kzg).prove()
        return TaskOutcome(
            job_id=task.job_id,
            proof=proof,
            worker_id=worker_id or f"pid-{os.getpid()}",
            cache_hit=hit,
            started_s=started,
            finished_s=time.time(),
            prove_s=time.perf_counter() - t0,
            counter=counter,
            install_s=install_s,
            evictions=self.cache.stats.evictions - evictions,
        )

    def probe(self, worker_id: str | None = None) -> WorkerProbe:
        """Snapshot this state for the coordinator (picklable)."""
        return WorkerProbe(
            worker_id=worker_id or f"pid-{os.getpid()}",
            pid=os.getpid(),
            srs_builds=self.srs_builds,
            cache_capacity=self.cache.capacity,
            cache_len=len(self.cache),
            cache_hits=self.cache.stats.hits,
            cache_misses=self.cache.stats.misses,
            jobs_proved=self.jobs_proved,
        )


_WORKER_STATE: WorkerState | None = None


def worker_state(srs_seed: int, srs_max_vars: int,
                 cache_capacity: int | None = None) -> WorkerState:
    """This process's persistent :class:`WorkerState`, built on first use.

    Re-invocations with the same parameters return the existing state
    untouched — the guard that makes the SRS build-once even if a pool
    re-runs its initializer.
    """
    global _WORKER_STATE
    params = (srs_seed, srs_max_vars, cache_capacity)
    if _WORKER_STATE is None or _WORKER_STATE.params != params:
        _WORKER_STATE = WorkerState(srs_seed, srs_max_vars, cache_capacity)
    return _WORKER_STATE


def _init_process_worker(srs_seed: int, srs_max_vars: int,
                         cache_capacity: int | None = None) -> None:
    """Rebuild the coordinator's KZG deterministically in this worker."""
    worker_state(srs_seed, srs_max_vars, cache_capacity)


def _canonicalize_field(circuit: Circuit) -> None:
    """Swap an unpickled field copy for this process's module singleton
    (Felt arithmetic compares fields by identity)."""
    for known in (Fr, Fq):
        if circuit.field == known:
            circuit.field = known
            return


def process_prove(task: ProveTask) -> TaskOutcome:
    """Prove a task in a pool process, resolving the index locally."""
    if _WORKER_STATE is None:
        raise RuntimeError("process worker used before initialization")
    return _WORKER_STATE.prove(task)


def process_probe() -> WorkerProbe:
    """Snapshot the calling pool process's worker state."""
    if _WORKER_STATE is None:
        raise RuntimeError("process worker used before initialization")
    return _WORKER_STATE.probe()


# -- pools ------------------------------------------------------------------

class WorkerPool:
    """Common executor surface: run tasks, preserve task order."""

    kind = "abstract"

    def __init__(self, num_workers: int):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers

    def run_tasks(self, tasks: list[ProveTask]) -> list[TaskOutcome]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __repr__(self):
        return f"{type(self).__name__}(workers={self.num_workers})"


class SyncExecutor(WorkerPool):
    """One in-process worker proving on the service's own KZG and cache."""

    kind = "sync"

    def __init__(self, cache: IndexCache):
        super().__init__(1)
        self.state = WorkerState.sharing(cache)

    def run_tasks(self, tasks):
        return [self.state.prove(t, worker_id="sync-0") for t in tasks]


class ProcessExecutor(WorkerPool):
    """A process pool whose workers each rebuild the service's SRS.

    ``concurrent.futures.process`` (and with it :mod:`multiprocessing`)
    is imported when the first pool is built, so a process that never
    asks for one — every sync service, every CLI that does not prove —
    does not load it.
    """

    kind = "process"

    def __init__(self, num_workers: int, srs_seed: int, srs_max_vars: int,
                 cache_capacity: int | None = None):
        from concurrent.futures import ProcessPoolExecutor

        super().__init__(num_workers)
        self._pool = ProcessPoolExecutor(
            max_workers=num_workers,
            initializer=_init_process_worker,
            initargs=(srs_seed, srs_max_vars, cache_capacity),
        )

    def run_tasks(self, tasks):
        return list(self._pool.map(process_prove, tasks))

    def probe(self) -> list[WorkerProbe]:
        """Snapshot worker states (one probe per pool slot).

        With one worker the snapshot is exact; with more, an idle
        worker may answer twice, so treat multi-worker probes as a
        sample, not a census.
        """
        futures = [
            self._pool.submit(process_probe) for _ in range(self.num_workers)
        ]
        return [future.result() for future in futures]

    def close(self):
        self._pool.shutdown(wait=True)


EXECUTOR_KINDS = ("sync", "process")


def make_executor(kind: str, num_workers: int, cache: IndexCache,
                  srs_seed: int) -> WorkerPool:
    """The ``kind`` pool for a service owning ``cache``: a sync worker
    proves on it; process workers rebuild its SRS from ``srs_seed`` and
    keep caches of its capacity."""
    if kind == "sync":
        return SyncExecutor(cache)
    if kind == "process":
        return ProcessExecutor(
            num_workers, srs_seed, cache.kzg.srs.max_vars, cache.capacity
        )
    raise ValueError(f"unknown executor {kind!r}; choose from {EXECUTOR_KINDS}")
