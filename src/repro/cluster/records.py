"""Job bookkeeping shared by the simulated cluster and the real fleet.

:class:`JobRecord` is the per-job completion ledger row both runtimes
produce — the simulated cluster fills it with *model* seconds
(:mod:`repro.cluster.engine`), the real fleet with *measured* wall
seconds relative to its run start (:mod:`repro.fleet.core`) — so one
metrics layer (:mod:`repro.cluster.metrics`) and one validation
harness (:mod:`repro.fleet.validation`) can consume either side
without translation.

:class:`Dispatcher` is the job lifecycle both runtimes inherit — accept,
route, park, requeue, retry, fail, and a node's loss and return —
counted in :class:`ResilienceStats` under the :class:`RetryPolicy`
crash-retry contract, so a job's history is the same code whether its
crash was simulated or a killed process.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterable

from repro.cluster.routing import ClusterRouter, NoRoutableNodeError
from repro.cluster.timemodel import FleetTimeModel
from repro.service.jobs import ProofJob
from repro.sim.events import EventLog


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
        retry budget.  :meth:`Dispatcher._lose` calls this exactly once
        per lost in-flight job, in either runtime.
        """
        job.attempt += 1
        job.excluded_node_ids = tuple(
            dict.fromkeys((*job.excluded_node_ids, node_id))
        )
        return job.attempt <= self.max_retries


def arrival_order(job: ProofJob) -> tuple[float, int]:
    """The ``(arrival_s, job_id)`` key every queue and requeue drains in."""
    return job.arrival_s, job.job_id


@dataclass
class ResilienceStats:
    """Failure/retry/autoscale accounting for one run.

    Counters cover the *serving window*: once the last job resolves,
    the remaining churn trace is cancelled, so two cells replaying one
    trace can legitimately report slightly different crash/recovery
    counts when their jobs finish at different times.
    """

    crashes: int = 0
    recoveries: int = 0
    #: in-flight jobs lost to a crash and requeued (attempt bumped)
    retries: int = 0
    #: queued jobs moved off a crashed node (no retry penalty)
    requeues: int = 0
    #: times a job had to park because the whole fleet was down
    parked: int = 0
    #: retry exclusions waived because only excluded nodes were up
    exclusion_waivers: int = 0
    #: jobs dropped: retries exhausted or stranded with the fleet down
    failed: int = 0
    #: seconds of in-flight work destroyed by crashes (model seconds in
    #: the sim, wall seconds in the real fleet)
    lost_model_s: float = 0.0
    scale_outs: int = 0
    scale_ins: int = 0
    autoscale_actions: list[dict] = dc_field(default_factory=list)

    def as_dict(self) -> dict:
        """The ``resilience`` section of the cluster summary."""
        return {
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "retries": self.retries,
            "requeues": self.requeues,
            "parked": self.parked,
            "exclusion_waivers": self.exclusion_waivers,
            "failed_jobs": self.failed,
            "lost_model_s": round(self.lost_model_s, 6),
            "autoscale": {
                "scale_outs": self.scale_outs,
                "scale_ins": self.scale_ins,
                "actions": self.autoscale_actions,
            },
        }


class Dispatcher:
    """The job lifecycle shared by the sim engine and the real fleet.

    A runtime (model or wall time) inherits it and supplies three hooks:
    ``_enqueue(node_id, job)`` queues a routed job and returns the
    runtime's node, ``kick(node)`` starts that node's next job if it is
    up and idle, and ``_resolved(job)`` hears of each failed job.  A
    runtime stops a lost node's work its own way, then calls
    :meth:`_node_lost`; a returning node goes through :meth:`_node_back`.
    """

    def __init__(
        self,
        router: ClusterRouter,
        time_model: FleetTimeModel,
        events: EventLog,
        max_retries: int,
    ):
        self.router = router
        self.time_model = time_model
        self.events = events
        self.retry_policy = RetryPolicy(max_retries)
        self.stats = ResilienceStats()
        self.failed_jobs: list[ProofJob] = []
        self._parked: list[ProofJob] = []

    def _accept(self, job: ProofJob, job_id: int, cost_s: float | None = None) -> None:
        """Arrival: stamp ``job_id``, log the acceptance, route."""
        job.job_id = job_id
        self.events.emit("job_accepted", job_id=job_id, tag=job.tag)
        self._route(job, cost_s)

    def _route(self, job: ProofJob, cost_s: float | None = None) -> None:
        """Route one job at ``cost_s`` predicted prove seconds (default:
        its time-model price); park it only when the whole fleet is down.

        Node exclusion is best-effort: when only excluded nodes are up the
        exclusion is waived (and counted) — a recovered loser is still a
        better home than no home.
        """
        router = self.router
        if cost_s is None:
            cost_s = self.time_model.price(job)[1]
        try:
            node_id = router.assign(job, exclude=job.excluded_node_ids, cost_s=cost_s)
        except NoRoutableNodeError:
            if not router.up_count():
                self.stats.parked += 1
                self._parked.append(job)
                return
            self.stats.exclusion_waivers += 1
            node_id = router.assign(job, cost_s=cost_s)
        node = self._enqueue(node_id, job)
        self.events.emit(
            "job_assigned", job_id=job.job_id, node_id=node_id, attempt=job.attempt
        )
        self.kick(node)

    def _unpark(self) -> None:
        """Route every parked job again after a node became routable."""
        parked, self._parked = self._parked, []
        for job in sorted(parked, key=arrival_order):
            self._route(job)

    def _requeue(self, jobs: Iterable[ProofJob]) -> None:
        """Re-route the queued jobs of a lost node (no retry penalty)."""
        for job in sorted(jobs, key=arrival_order):
            self.stats.requeues += 1
            self._route(job)

    def _lose(self, job: ProofJob, node_id: str) -> None:
        """``node_id`` went down with ``job`` in flight: retry or fail it."""
        self.events.emit(
            "job_crashed", job_id=job.job_id, node_id=node_id, attempt=job.attempt
        )
        if self.retry_policy.register_loss(job, node_id):
            self.stats.retries += 1
            self.events.emit("job_retried", job_id=job.job_id, attempt=job.attempt)
            self._route(job)
        else:
            self._fail(job)

    def _node_lost(
        self, node_id: str, reason: str, queued: Iterable[ProofJob], lost: tuple | None
    ) -> None:
        """``node_id`` went down for ``reason``: requeue its ``queued``
        jobs, then retry or fail ``lost`` — the in-flight job and the
        seconds of its work destroyed (None = the node was idle)."""
        self.stats.crashes += 1
        if lost is not None:
            self.stats.lost_model_s += lost[1]
        self.router.mark_down(node_id)
        self.events.emit("node_down", node_id=node_id, reason=reason)
        self._requeue(queued)
        if lost is not None:
            self._lose(lost[0], node_id)

    def _node_back(self, node_id: str, **detail) -> None:
        """``node_id`` is routable again: mark it up (if it is down), log
        ``node_up`` with ``detail``, and route every parked job."""
        if node_id in self.router.down_node_ids:
            self.router.mark_up(node_id)
        self.events.emit("node_up", node_id=node_id, **detail)
        self._unpark()

    def _fail(self, job: ProofJob) -> None:
        """Drop ``job`` for good (it counts as a deadline miss)."""
        self.stats.failed += 1
        self.failed_jobs.append(job)
        self.events.emit("job_failed", job_id=job.job_id, attempt=job.attempt)
        self._resolved(job)
