"""The proving service: job → cache → batch → worker pipeline.

:class:`ProvingService` accepts proof requests (:meth:`submit` /
:meth:`submit_job`), deduplicates circuit preprocessing through a
content-addressed :class:`~repro.service.cache.IndexCache`, groups
same-circuit requests into batches, and drains them through a
configurable worker pool.
Drain order is policy-driven (``fifo`` / ``sjf`` / ``deadline``): the
cost-aware policies price every job with a :mod:`repro.plan` cost model,
and :class:`~repro.service.metrics.ServiceMetrics` reports the
predicted-vs-actual error plus an estimated service capacity.

Every proof is produced by a plain ``HyperPlonkProver.prove()`` call
with its own fresh Fiat–Shamir transcript (the prover constructs one
per call), so service proofs are bit-identical to direct one-shot
proving and verify with the stock verifier —
``tests/test_proving_service.py`` locks this down differentially.
"""

from __future__ import annotations

import random
import time
from dataclasses import InitVar, dataclass

from repro.fields import Fr
from repro.fields.vector import require_fused
from repro.hyperplonk.circuit import Circuit
from repro.hyperplonk.commitment import MultilinearKZG, TrapdoorSRS
from repro.hyperplonk.verifier import HyperPlonkError, HyperPlonkVerifier
from repro.service.batching import DRAIN_POLICIES, plan_batches
from repro.service.cache import IndexCache
from repro.service.costing import JobCostModel
from repro.service.jobs import ProofJob, ProofResult, RequestClass
from repro.service.metrics import ServiceMetrics
from repro.service.workers import EXECUTOR_KINDS, ProveTask, make_executor


@dataclass
class ServiceConfig:
    """Knobs for one :class:`ProvingService` instance."""

    #: largest circuit μ the service accepts, and the size of its SRS
    max_vars: int = 6
    #: seed for the service-owned deterministic trapdoor SRS
    srs_seed: int = 0x5EED
    #: ``sync`` | ``process``
    executor: str = "sync"
    num_workers: int = 1
    #: LRU entries in the index cache (None = unbounded)
    cache_capacity: int | None = None
    #: drain order: ``fifo`` | ``sjf`` | ``deadline``
    #: (:mod:`repro.service.batching`); the cost-aware policies price
    #: every job through the cost model
    drain_policy: str = "fifo"
    #: shape-level cost model (``shape_cost_s(gate, μ)``); ``None`` uses
    #: the plan layer's :class:`~repro.plan.FunctionalProverCostModel`
    #: whenever a cost-aware policy or prediction metrics need one
    cost_model: object | None = None
    #: predict per-job cost even under ``fifo`` (enables the
    #: predicted-vs-actual metrics without changing drain order)
    predict_costs: bool = False
    #: verify every proof in-service before returning it
    verify_proofs: bool = False
    #: attach an OpCounter to every job and aggregate tallies in metrics
    collect_counters: bool = False
    #: retired: every proof runs the one field-vector kernel; accepts
    #: only ``None`` or ``"fused"`` and is not stored
    default_backend: InitVar[str | None] = None

    def __post_init__(self, default_backend: str | None) -> None:
        require_fused(default_backend)
        if self.executor not in EXECUTOR_KINDS:
            raise ValueError(
                f"unknown executor {self.executor!r}; "
                f"choose from {EXECUTOR_KINDS}"
            )
        if self.drain_policy not in DRAIN_POLICIES:
            raise ValueError(
                f"unknown drain policy {self.drain_policy!r}; "
                f"choose from {DRAIN_POLICIES}"
            )


class ProvingService:
    """A batched, cached, multi-worker proving front-end.

    Pass ``kzg`` to share an existing SRS (e.g. with a direct prover in a
    differential test); otherwise the service builds its own from
    ``config.srs_seed``.  The ``process`` executor requires the
    service-owned SRS, since workers rebuild it from the seed.
    """

    def __init__(self, config: ServiceConfig | None = None, *,
                 kzg: MultilinearKZG | None = None):
        self.config = config = config or ServiceConfig()
        self.cost_model: JobCostModel | None = None
        if (config.cost_model is not None or config.predict_costs
                or config.drain_policy != "fifo"):
            self.cost_model = JobCostModel(config.cost_model)
        if kzg is None:
            srs = TrapdoorSRS(config.max_vars, random.Random(config.srs_seed))
            kzg = MultilinearKZG(srs, fixed_base=True)
        elif config.executor == "process":
            raise ValueError(
                "the process executor requires a service-owned SRS "
                "(drop the kzg argument and set config.srs_seed)"
            )
        self.kzg = kzg
        self.cache = IndexCache(kzg, capacity=config.cache_capacity)
        self.metrics = ServiceMetrics()
        self.pool = make_executor(
            config.executor, config.num_workers,
            srs_seed=config.srs_seed, srs_max_vars=kzg.srs.max_vars,
            cache_capacity=config.cache_capacity,
        )
        self._pending: list[ProofJob] = []
        self._next_id = 0
        self._t0: float | None = None
        self._t_end: float = 0.0

    # -- submission --------------------------------------------------------
    def submit(self, circuit: Circuit, *,
               request_class: RequestClass = RequestClass.REALTIME,
               priority: int = 0, arrival_s: float = 0.0,
               tag: str = "") -> ProofJob:
        """Enqueue one proof request; returns the pending job."""
        job = ProofJob(
            job_id=self._next_id, circuit=circuit,
            request_class=request_class, priority=priority,
            arrival_s=arrival_s, tag=tag,
        )
        return self.submit_job(job)

    def submit_job(self, job: ProofJob) -> ProofJob:
        """Enqueue a pre-built job (e.g. one of the job stream's,
        :class:`~repro.traffic.OpenLoopTraffic`); reassigns ``job_id`` to
        keep service-wide ids unique."""
        if job.circuit.field != Fr:
            raise ValueError("the service proves circuits over Fr only")
        if job.circuit.num_vars > self.kzg.srs.max_vars:
            raise ValueError(
                f"circuit μ={job.circuit.num_vars} exceeds the service "
                f"SRS (max μ={self.kzg.srs.max_vars})"
            )
        job.job_id = self._next_id
        self._next_id += 1
        # time.time(), not perf_counter: worker stamps must be comparable
        # even when the worker is another process
        job.submitted_s = time.time()
        if self._t0 is None:
            self._t0 = time.perf_counter()
        self._pending.append(job)
        return job

    @property
    def pending(self) -> int:
        return len(self._pending)

    # -- draining ----------------------------------------------------------
    def drain(self) -> list[ProofResult]:
        """Batch and prove everything pending; returns results in drain
        order (real-time class first, then priority, then arrival)."""
        jobs, self._pending = self._pending, []
        if not jobs:
            return []
        cfg = self.config
        if self.cost_model is not None:
            for job in jobs:  # stamp predictions for policies + metrics
                self.cost_model.job_cost_s(job)
        batches = plan_batches(
            jobs, policy=cfg.drain_policy, cost_fn=self.cost_model,
        )

        # process workers resolve indexes against their own caches; the
        # coordinator only preprocesses when it must verify
        resolve_here = self.pool.kind != "process" or cfg.verify_proofs
        tasks, meta = [], []
        for batch in batches:
            pidx = vidx = None
            hit = False
            if resolve_here:
                pidx, vidx, hit = self.cache.get(
                    batch.jobs[0].circuit, batch.circuit_key
                )
            for job in batch.jobs:
                tasks.append(ProveTask(
                    job_id=job.job_id, circuit=job.circuit,
                    circuit_key=batch.circuit_key,
                    collect_counter=cfg.collect_counters,
                    index=pidx, cache_hit=hit, batch_size=len(batch),
                ))
                meta.append((job, vidx, len(batch)))

        try:
            outcomes = self.pool.run_tasks(tasks, self.kzg)
        except Exception:
            # a worker/pool failure must not swallow the whole wave: put
            # the jobs back so the caller can retry or inspect them
            self._pending = jobs + self._pending
            raise
        self.metrics.record_drain(len(batches))

        results = []
        for (job, vidx, batch_size), outcome in zip(meta, outcomes):
            result = ProofResult(
                job_id=job.job_id, tag=job.tag, circuit_key=job.circuit_key,
                proof=outcome.proof,
                request_class=job.request_class,
                worker_id=outcome.worker_id, cache_hit=outcome.cache_hit,
                batch_size=batch_size, submitted_s=job.submitted_s,
                started_s=outcome.started_s, finished_s=outcome.finished_s,
                prove_s=outcome.prove_s, predicted_s=job.predicted_cost_s,
                counter=outcome.counter,
            )
            self.metrics.record_result(result)
            results.append(result)
        self._t_end = time.perf_counter()

        if cfg.verify_proofs:
            # verify after every result is recorded, so one bad proof
            # doesn't discard the rest of the wave's (already computed)
            # work; then fail loudly
            bad = []
            for (job, vidx, _), result in zip(meta, results):
                try:
                    HyperPlonkVerifier(Fr, vidx, self.kzg).verify(result.proof)
                    result.verified = True
                except HyperPlonkError:
                    bad.append(job.job_id)
            if bad:
                raise HyperPlonkError(
                    f"service produced unverifiable proofs for jobs {bad}"
                )
        return results

    def run(self, jobs: list[ProofJob], *,
            wave_s: float | None = None) -> list[ProofResult]:
        """Submit and drain a whole job stream.

        ``wave_s`` buckets jobs by model-time arrival into drain waves
        (arrivals within one window batch together; later waves see a
        warm cache), modelling sustained traffic without sleeping.
        ``None`` drains everything in one wave.
        """
        results = []
        if wave_s is None:
            for job in jobs:
                self.submit_job(job)
            return self.drain()
        if wave_s <= 0:
            raise ValueError("wave_s must be positive (or None)")
        for job in sorted(jobs, key=lambda j: (j.arrival_s, j.job_id)):
            if self._pending and job.arrival_s >= self._wave_end(wave_s):
                results.extend(self.drain())
            self.submit_job(job)
        results.extend(self.drain())
        return results

    def _wave_end(self, wave_s: float) -> float:
        first = min(j.arrival_s for j in self._pending)
        return (int(first / wave_s) + 1) * wave_s

    # -- reporting / lifecycle ---------------------------------------------
    def summary(self) -> dict:
        """Metrics summary over everything drained so far."""
        wall = (self._t_end - self._t0
                if self._t0 is not None and self._t_end > self._t0 else 0.0)
        doc = self.metrics.summary(wall, cache_stats=self.cache.stats,
                                   num_workers=self.pool.num_workers)
        doc["executor"] = self.pool.kind
        doc["num_workers"] = self.pool.num_workers
        doc["drain_policy"] = self.config.drain_policy
        return doc

    def close(self) -> None:
        self.pool.close()

    def __enter__(self) -> "ProvingService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
