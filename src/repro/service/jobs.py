"""Request/response model for the proving service.

A :class:`ProofJob` is one proof request: a circuit (structure + witness)
and scheduling attributes (request class, priority, model-time arrival).  A :class:`ProofResult` is the
matching response: the proof itself plus the bookkeeping the
:class:`~repro.service.metrics.ServiceMetrics` collector consumes.

Request classes follow the deferrable/real-time split of serving-layer
artifacts (ISSUE 2): REALTIME requests are latency-sensitive and drain
first; DEFERRABLE requests tolerate queueing and exist to be batched —
though a deferrable job whose circuit matches a real-time batch rides
along early (see :mod:`repro.service.batching`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dc_field

from repro.fields.counters import OpCounter
from repro.hyperplonk.circuit import Circuit
from repro.hyperplonk.preprocess import circuit_fingerprint
from repro.hyperplonk.prover import HyperPlonkProof


class RequestClass(enum.Enum):
    """Service classes, in drain-priority order."""

    REALTIME = "realtime"
    DEFERRABLE = "deferrable"


@dataclass
class ProofJob:
    """One proof request.

    ``circuit_key`` is the content-addressed fingerprint of the circuit
    *structure* (witness excluded) — jobs sharing a key share one cached
    prover index and are grouped into one batch.
    """

    job_id: int
    circuit: Circuit
    request_class: RequestClass = RequestClass.REALTIME
    #: larger drains earlier within a request class
    priority: int = 0
    #: model-time arrival offset assigned by the traffic generator, seconds
    arrival_s: float = 0.0
    #: model-time completion target for the ``deadline`` drain policy
    #: (absolute, same clock as ``arrival_s``); ``None`` = no deadline
    deadline_s: float | None = None
    #: free-form label (scenario / workload name) carried into results
    tag: str = ""
    circuit_key: str = ""
    #: wall-clock submission stamp, set by the service
    submitted_s: float = 0.0
    #: predicted prove seconds, stamped by the service's cost model
    predicted_cost_s: float | None = None
    #: retry ordinal: 0 on first dispatch, bumped by the cluster's
    #: failure-aware engine each time a node loss requeues this job
    attempt: int = 0
    #: nodes that crashed while holding this job; the retry router
    #: never sends the job back to one of them (ISSUE 5)
    excluded_node_ids: tuple[str, ...] = ()
    #: owning tenant in multi-tenant open-loop runs (None = untenanted)
    tenant: str | None = None

    def __post_init__(self):
        if not self.circuit_key:
            self.circuit_key = circuit_fingerprint(self.circuit)

    def sort_key(self) -> tuple:
        """Drain order: real-time first, then priority, then arrival."""
        return (
            0 if self.request_class is RequestClass.REALTIME else 1,
            -self.priority,
            self.arrival_s,
            self.job_id,
        )


@dataclass
class ProofResult:
    """One completed proof plus its service-side bookkeeping."""

    job_id: int
    tag: str
    circuit_key: str
    proof: HyperPlonkProof
    request_class: RequestClass
    worker_id: str
    #: whether the proving worker's index lookup for this job hit its cache
    cache_hit: bool
    #: how many jobs shared this job's batch (and circuit fingerprint)
    batch_size: int
    submitted_s: float
    started_s: float
    finished_s: float
    #: time spent inside HyperPlonkProver.prove()
    prove_s: float
    #: True if the service verified the proof (config.verify_proofs)
    verified: bool = False
    #: the cost model's predicted prove seconds (None = no cost model)
    predicted_s: float | None = None
    counter: OpCounter | None = dc_field(default=None, repr=False)

    @property
    def latency_s(self) -> float:
        """Submit-to-finish wall time."""
        return self.finished_s - self.submitted_s

    @property
    def queue_s(self) -> float:
        """Time spent waiting before a worker picked the job up."""
        return self.started_s - self.submitted_s
