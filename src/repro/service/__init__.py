"""A batched, cached, multi-worker proving service (serving layer).

zkPHIRE is an accelerator for *serving* proofs at scale; this package is
the software serving substrate above the functional HyperPlonk stack
(DESIGN.md §5).  The pipeline is **job → cache → batch → worker**:

* :mod:`repro.service.jobs` — :class:`ProofJob` / :class:`ProofResult`
  with priorities and deferrable/real-time request classes;
* :mod:`repro.service.cache` — :class:`IndexCache`, a content-addressed
  LRU of preprocessed circuit indexes (circuit hash → prover/verifier
  index) with hit/miss/eviction stats;
* :mod:`repro.service.batching` — same-circuit batch planning with
  policy-driven drain order (``fifo`` / ``sjf`` / ``deadline``);
* :mod:`repro.service.costing` — :class:`JobCostModel`, per-job cost
  prediction over the shared :mod:`repro.plan` layer;
* :mod:`repro.service.workers` — sync / process executors;
* :mod:`repro.service.metrics` — :class:`ServiceMetrics` (throughput,
  p50/p95 latency, cache hit rate, per-worker utilization, op tallies);
* :mod:`repro.service.traffic` — :func:`synthesize_circuit` and the
  weighted draw the job stream above
  (:class:`repro.traffic.OpenLoopTraffic`) draws its jobs with;
* :mod:`repro.service.core` — :class:`ProvingService` tying it together.

Demo CLI: ``python -m repro.service --scenario zipf-mixed --jobs 12``
(also installed as ``repro-serve``); see ``examples/proving_service.py``
and ``benchmarks/test_service_throughput.py`` (``BENCH_service.json``).
"""

from repro.service.batching import (
    Batch,
    DRAIN_POLICIES,
    order_jobs,
    plan_batches,
)
from repro.service.cache import CacheStats, IndexCache
from repro.service.core import ProvingService, ServiceConfig
from repro.service.costing import JobCostModel
from repro.service.jobs import ProofJob, ProofResult, RequestClass
from repro.service.metrics import ServiceMetrics, percentile
from repro.service.traffic import synthesize_circuit
from repro.service.workers import (
    EXECUTOR_KINDS,
    ProcessExecutor,
    SyncExecutor,
    WorkerPool,
    WorkerProbe,
    WorkerState,
    make_executor,
    worker_state,
)

__all__ = [
    "Batch",
    "CacheStats",
    "DRAIN_POLICIES",
    "EXECUTOR_KINDS",
    "IndexCache",
    "JobCostModel",
    "ProcessExecutor",
    "ProofJob",
    "ProofResult",
    "ProvingService",
    "RequestClass",
    "ServiceConfig",
    "ServiceMetrics",
    "SyncExecutor",
    "WorkerPool",
    "WorkerProbe",
    "WorkerState",
    "make_executor",
    "worker_state",
    "order_jobs",
    "percentile",
    "plan_batches",
    "synthesize_circuit",
]
