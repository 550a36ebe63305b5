"""Job bookkeeping shared by the simulated cluster and the real fleet.

:class:`JobRecord` is the per-job completion ledger row both runtimes
produce — the simulated cluster fills it with *model* seconds
(:mod:`repro.cluster.engine`), the real fleet with *measured* wall
seconds relative to its run start (:mod:`repro.fleet.core`) — so one
metrics layer (:mod:`repro.cluster.metrics`) and one validation
harness (:mod:`repro.fleet.validation`) can consume either side
without translation.

:class:`RetryPolicy` is the matching crash-retry contract: attempt
counters, loser exclusion, and the ``max_retries`` → failure rule.  The
discrete-event engine and the asyncio fleet both call
:meth:`RetryPolicy.register_loss` at the one place a node loss is
accounted, so a job's retry history is identical whether the crash was
simulated or a real killed process.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.service.jobs import ProofJob


@dataclass
class JobRecord:
    """Completion-time bookkeeping for one routed job.

    Times are model seconds in the simulated cluster and run-relative
    wall seconds in the real fleet; the field meanings are otherwise
    identical (``prove_model_s`` holds the measured prove seconds on
    the fleet side — the "model" is then the wall clock itself).
    """

    job_id: int
    tag: str
    circuit_key: str
    node_id: str
    arrival_s: float
    start_s: float
    finish_s: float
    prove_model_s: float
    install_model_s: float
    cache_hit: bool
    #: absolute deadline the job carried (None = none), same clock as
    #: ``arrival_s``
    deadline_s: float | None = None
    #: retry ordinal at completion (0 = never lost to a crash)
    attempt: int = 0
    #: times the job was parked at a phase boundary (power capping)
    suspensions: int = 0
    #: model seconds spent parked between suspend and resume
    suspended_s: float = 0.0

    @property
    def latency_s(self) -> float:
        """Arrival-to-finish seconds."""
        return self.finish_s - self.arrival_s

    @property
    def missed_deadline(self) -> bool:
        """True when the job finished past its deadline."""
        return self.deadline_s is not None and self.finish_s > self.deadline_s


@dataclass(frozen=True)
class RetryPolicy:
    """Crash-retry contract shared by sim engine and real fleet.

    A job lost to its ``max_retries + 1``-th crash is failed; every
    loss excludes the losing node from the job's future placements
    (best-effort — routers may waive the exclusion rather than starve
    the job when only excluded nodes are up).
    """

    #: crash-retry budget per job (0 = any loss fails the job)
    max_retries: int = 2

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def register_loss(self, job: ProofJob, node_id: str) -> bool:
        """Account one node loss on ``job``; True = retry, False = fail.

        Bumps ``job.attempt``, appends ``node_id`` to the job's
        exclusion set (deduplicated, order-preserving), and applies the
        retry budget.  Both runtimes call this exactly once per lost
        in-flight job, so attempt histories match between simulation
        and real execution.
        """
        job.attempt += 1
        job.excluded_node_ids = tuple(
            dict.fromkeys((*job.excluded_node_ids, node_id))
        )
        return job.attempt <= self.max_retries
