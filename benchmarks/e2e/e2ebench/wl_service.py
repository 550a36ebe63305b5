"""Workload ``service_zipf_process2``: the serving path, two pool workers.

``ProvingService`` with the ``process`` executor: the same ``curves``
layer used differently from the one-shot path (fixed-base tables for
small arities, small μ), plus pickling, batching and the worker-local
index cache.  One operation is one closed batch — 32 jobs submitted
together and drained once — so two workers are busy and the coordinator
blocks.

The batch has the shape mix of the ``zipf-mixed`` scenario (75% vanilla /
25% Jellyfish, sizes 3..6 weighted 1 : ½ : ¼ : ⅛) as fixed counts in a
fixed order, so the work per batch and its packing onto two workers do
not depend on the seed; the seed picks the SRS and every witness.
"""

from __future__ import annotations

import pickle
import random
import statistics
import time

from repro.fields import Fr
from repro.hyperplonk import (
    JELLYFISH,
    VANILLA,
    HyperPlonkError,
    HyperPlonkVerifier,
    MultilinearKZG,
    TrapdoorSRS,
    circuit_fingerprint,
    preprocess,
)
from repro.service import ProofJob, ProvingService, ServiceConfig
from repro.service.batching import plan_batches
from repro.service.traffic import synthesize_circuit
from repro.service.workers import ProveTask

from e2ebench.measure import Op, Workload, run_ops
from e2ebench.trace import Spans, layer_partition, probe_s

GATE_TYPES = {"vanilla": VANILLA, "jellyfish": JELLYFISH}
#: (gate, μ) -> jobs per batch: the zipf-mixed expectation over 32 jobs
BATCH_MIX = {
    ("vanilla", 3): 13,
    ("vanilla", 4): 6,
    ("vanilla", 5): 3,
    ("vanilla", 6): 2,
    ("jellyfish", 3): 4,
    ("jellyfish", 4): 2,
    ("jellyfish", 5): 1,
    ("jellyfish", 6): 1,
}
TOY_MIX = {("vanilla", 3): 4, ("jellyfish", 3): 2}
#: fixes the order of shapes inside a batch, for every seed
LAYOUT_SEED = 0xE2E
NUM_WORKERS = 2


class ServiceZipf(Workload):
    name = "service_zipf_process2"
    work_unit = "proofs"

    def __init__(self, seed: int, *, toy: bool = False):
        super().__init__(seed, toy=toy)
        self.mix = TOY_MIX if toy else BATCH_MIX
        self.max_vars = max(mu for _, mu in self.mix)
        self.layout = [shape for shape, count in self.mix.items() for _ in range(count)]
        random.Random(LAYOUT_SEED).shuffle(self.layout)
        self.srs_seed = 0x5EED + seed
        self._witness = random.Random(seed)
        self.service: ProvingService | None = None
        self._sync: ProvingService | None = None

    def _jobs(self, shapes, rng: random.Random | None = None) -> list[ProofJob]:
        rng = rng or self._witness
        return [
            ProofJob(
                job_id=0,
                circuit=synthesize_circuit(
                    GATE_TYPES[gate],
                    mu,
                    witness_seed=rng.randrange(1 << 30),
                ),
                tag=f"{gate}-mu{mu}",
            )
            for gate, mu in shapes
        ]

    def _make_service(self, executor: str) -> ProvingService:
        return ProvingService(
            ServiceConfig(
                max_vars=self.max_vars,
                srs_seed=self.srs_seed,
                executor=executor,
                num_workers=NUM_WORKERS,
                default_backend="fused",
            )
        )

    def setup(self, spans: Spans | None = None) -> None:
        spans = spans or Spans(self.name)
        with spans.span("service.construct"):
            # the toy size must not fork a pool inside pytest
            self.service = self._make_service("sync" if self.toy else "process")
        # two jobs of every shape, largest first, so both workers build
        # their SRS bases and fixed-base tables before the clock starts
        largest_first = sorted(self.mix, key=lambda shape: -shape[1])
        with spans.span("service.jobs_build"):
            warmup = self._jobs([s for s in largest_first for _ in range(2)])
        with spans.span("service.warmup"):
            self.service.run(warmup)

    def warmup(self) -> None:
        """Nothing more: the warm-up drain is how the workers build their
        lazy state, so it is part of :meth:`setup`."""

    def op(self, i: int) -> Op:
        jobs = self._jobs(self.layout)
        started = time.perf_counter()
        results = self.service.run(jobs)
        wall = time.perf_counter() - started
        by_id = {job.job_id: job for job in jobs}
        output = [(by_id[r.job_id].circuit, r) for r in results]
        return Op(wall, len(results), (len(jobs), output))

    def close(self) -> None:
        for service in (self.service, self._sync):
            if service is not None:
                service.close()
        self.service = self._sync = None

    def check(self, ops: list[Op]) -> tuple[int, int]:
        """Verify every proof with the stock verifier against an index
        built here, on a KZG the service never touched."""
        kzg = MultilinearKZG(
            TrapdoorSRS(self.max_vars + 1, random.Random(self.srs_seed)),
            fixed_base=False,
        )
        verifiers: dict[str, HyperPlonkVerifier] = {}
        attempted = failed = 0
        for op in ops:
            submitted, output = op.output
            attempted += submitted
            failed += submitted - len(output)  # jobs with no result
            for circuit, result in output:
                verifier = verifiers.get(result.circuit_key)
                if verifier is None:
                    _, vidx = preprocess(circuit, kzg)
                    verifier = HyperPlonkVerifier(Fr, vidx, kzg)
                    verifiers[result.circuit_key] = verifier
                try:
                    verifier.verify(result.proof)
                except HyperPlonkError:
                    failed += 1
        return attempted, failed

    # -- traced run --------------------------------------------------------
    def traced(self, spans: Spans, seconds: float) -> tuple[dict, list[Op]]:
        ops = run_ops(spans.traced("service.batch", self.op), seconds)
        results = [r for op in ops for _, r in op.output[1]]
        wall = sum(op.wall_s for op in ops)
        busy = sum(r.prove_s for r in results)
        latencies = sorted(r.latency_s for r in results)
        workers = self.service.pool.num_workers
        summary = self.service.summary()
        # how many witnesses the timed batches drew depends on the clock,
        # so the exact counts below draw theirs from a generator of their own
        rng = random.Random(self.seed)
        jobs = self._jobs(self.layout, rng)
        circuits = [job.circuit for job in jobs]
        tasks = [
            ProveTask(
                job_id=i, circuit=c, backend="fused", circuit_key=job.circuit_key
            )
            for i, (c, job) in enumerate(zip(circuits, jobs))
        ]

        def setup_span(name: str) -> float:
            return spans.duration(spans.named(name)[0])

        metrics = {
            "service.construct_s": setup_span("service.construct"),
            "service.warmup_s": setup_span("service.warmup"),
            "service.jobs_build_s": setup_span("service.jobs_build"),
            "service.prove_busy_s": busy,
            "service.worker_utilization": busy / (workers * wall),
            "service.overhead_s": wall - busy / workers,
            "service.plan_batches_s": probe_s(lambda: plan_batches(jobs)),
            "service.fingerprint_s": probe_s(
                lambda: [circuit_fingerprint(c) for c in circuits], 3
            ) / len(circuits),
            "service.batches": summary["batches"],
            "service.cache_hit_rate": sum(r.cache_hit for r in results) / len(results),
            "service.cold_jobs": sum(not r.cache_hit for r in results),
            "service.task_pickle_bytes": statistics.mean(
                len(pickle.dumps(task)) for task in tasks
            ),
            "service.proof_pickle_bytes": statistics.mean(
                len(pickle.dumps(r.proof)) for r in results
            ),
            "service.job_latency_p50_s": statistics.median(latencies),
            "service.job_latency_p85_s": latencies[int(0.85 * (len(latencies) - 1))],
        }
        # one job of every shape through a warm in-process ``sync``
        # service: the same prover, cache and fixed-base KZG a pool worker
        # runs, where the profiler can see them
        self._sync = self._make_service("sync")
        self._sync.run(self._jobs(self.mix, rng))  # builds its tables first
        jobs = self._jobs(self.mix, rng)
        metrics.update(layer_partition(lambda: self._sync.run(jobs)))
        return metrics, ops
