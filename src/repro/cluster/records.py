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
crash was simulated or a killed process — the node work loop both
run, over one :class:`JobQueue` per node, and the one arrival pump every
run takes its jobs through.

Arrivals.  :meth:`Dispatcher._start_arrivals` pulls any iterable of jobs
(an iterator lazily, in its own order; anything else sorted stably by
``arrival_s``) one instant at a time, with one job of look-ahead, so a
start gate sees a simultaneous burst whole and a 10⁶-job stream costs
one instant of memory.  No run is done before its source is spent.

Ownership.  A runtime owns its router, event log, records and nodes,
and none of them points back at it: every event is stamped with the
runtime's clock at the call (``at_s=self._now()``), the job-id stamp and
the resolution observer are methods a runtime overrides, never bound
methods stored on the instance, and a start gate gets the runtime as a
call argument.  So a finished run is freed by reference counting alone,
and its records and event log outlive it without keeping it alive.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field as dc_field

from repro.cluster.routing import ClusterRouter, NoRoutableNodeError
from repro.cluster.timemodel import FleetTimeModel
from repro.service.jobs import ProofJob, RequestClass
from repro.sim.events import EventLog


@dataclass
class JobRecord:
    """Completion-time bookkeeping for one routed job, built by :meth:`of`.

    Times are model seconds in the simulated cluster and run-relative
    wall seconds in the real fleet; every ``*_model_s`` holds the
    runtime's own seconds (the fleet's "model" is the wall clock).  A
    record names whose job it was (``tenant``, ``request_class``).
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
    #: owning tenant of the job (None = untenanted)
    tenant: str | None = None
    request_class: RequestClass = RequestClass.REALTIME

    @classmethod
    def of(cls, job: ProofJob, node_id: str, scale=1.0, **timings) -> "JobRecord":
        """The record of ``job`` finished on ``node_id``: the runtime
        gives its ``timings``, the job every other field, its arrival
        and deadline times ``scale`` (model seconds to the runtime's)."""
        deadline = job.deadline_s
        return cls(
            job_id=job.job_id,
            tag=job.tag,
            circuit_key=job.circuit_key,
            node_id=node_id,
            arrival_s=job.arrival_s * scale,
            deadline_s=None if deadline is None else deadline * scale,
            attempt=job.attempt,
            tenant=job.tenant,
            request_class=job.request_class,
            **timings,
        )

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


class JobQueue:
    """One node's queued jobs, in either runtime, started in
    :func:`arrival_order`: a dict by job id plus a heap of
    ``arrival_order`` keys, whose removed jobs :meth:`peek` drops lazily."""

    def __init__(self):
        self._jobs: dict[int, ProofJob] = {}
        self._heap: list[tuple[float, int]] = []

    def __len__(self) -> int:
        return len(self._jobs)

    def push(self, job: ProofJob) -> None:
        """Queue ``job``."""
        self._jobs[job.job_id] = job
        heapq.heappush(self._heap, arrival_order(job))

    def peek(self) -> ProofJob | None:
        """The job the node starts next (None if empty)."""
        heap, jobs = self._heap, self._jobs
        while heap:
            job = jobs.get(heap[0][1])
            if job is not None:
                return job
            heapq.heappop(heap)
        return None

    def remove(self, job: ProofJob) -> None:
        """Take ``job`` (any queued job, not only the head) off the queue."""
        del self._jobs[job.job_id]

    def jobs(self) -> list[ProofJob]:
        """Every queued job in start order (a start gate may pick any)."""
        return sorted(self._jobs.values(), key=arrival_order)


class Dispatcher:
    """The job lifecycle and node work loop of the sim engine and the
    real fleet.

    A runtime inherits it and supplies ``_now()`` (its clock: model or
    run-relative wall seconds, which stamps every event),
    ``_arm_instant(at_s)`` (call :meth:`_fire_instant` at model time
    ``at_s``, or at once if that is past), ``_enqueue(node_id, job)``
    (queue a routed job, return the node: anything with ``node_id``,
    ``down``, ``in_flight`` and a :class:`JobQueue` ``queue``),
    ``_launch(node, job)`` (start the job :meth:`kick` picked) and
    ``_all_resolved()``; it may override :meth:`_next_job_id`,
    :meth:`_offer` and :meth:`_resolved`.  It feeds a run through
    :meth:`_start_arrivals`, reports a job's end through
    :meth:`_finished`, stops a lost node's work before :meth:`_node_lost`,
    and brings one back through :meth:`_node_back`.  ``gate``: see
    :mod:`repro.cluster.engine`.
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
        self.records: list[JobRecord] = []
        self.failed_jobs: list[ProofJob] = []
        self.gate = None
        self._job_ids = itertools.count()
        #: the open source, its next job, and whether a runtime holds it
        self._source: Iterator[ProofJob] | None = None
        self._ahead: ProofJob | None = None
        self._paused = False
        #: seconds each later arrival is shifted by (backpressure lag)
        self.lag_s = 0.0
        self._accepted = 0
        self._parked: list[ProofJob] = []
        #: a start the runtime armed for later, by node id (any handle
        #: with ``cancel()``); the next :meth:`kick` of the node voids it
        self._armed: dict[str, object] = {}

    def _next_job_id(self) -> int:
        """Stamp the next arrival's job id (0, 1, 2, ... by default)."""
        return next(self._job_ids)

    def _resolved(self, job: ProofJob) -> None:
        """Called last, once per job completed or failed for good; a
        runtime that observes resolutions overrides it."""

    def _offer(self, job: ProofJob):
        """One arrival: accept and route ``job``; returns its node (None =
        parked or, in a runtime that filters arrivals, turned away)."""
        return self._accept(job, self._next_job_id())

    # -- the arrival pump ----------------------------------------------------
    def _start_arrivals(self, jobs: Iterable[ProofJob]) -> None:
        """Take this run's arrivals from ``jobs`` (module docstring)."""
        if not isinstance(jobs, Iterator):
            jobs = iter(sorted(jobs, key=lambda job: job.arrival_s))
        self._source = jobs
        self._ahead = next(jobs, None)
        self._pump()

    def _pump(self) -> None:
        """Arm the next instant, or close the spent source."""
        job = self._ahead
        if job is not None:
            self._arm_instant(job.arrival_s + self.lag_s)
            return
        self._source = None
        self._paused = False
        self._check_done()

    def _fire_instant(self) -> None:
        """Route the look-ahead job and every job tied with it."""
        first, self._ahead = self._ahead, None
        batch = [first]
        for job in self._source:
            if job.arrival_s != first.arrival_s:
                self._ahead = job
                break
            batch.append(job)
        self._arrive(batch)
        if not self._paused:
            self._pump()

    # -- the node work loop --------------------------------------------------
    def _arrive(self, jobs: Iterable[ProofJob]) -> None:
        """One arrival instant: offer every job, then kick each node
        that queued one, once, in node-id order — so a start gate sees
        the whole burst queued before any of it starts."""
        touched = {}
        for job in jobs:
            node = self._offer(job)
            if node is not None:
                touched[node.node_id] = node
        for node_id in sorted(touched):
            self.kick(touched[node_id])

    def kick(self, node) -> None:
        """Start ``node``'s next job if it is up and idle: the gate picks
        when one is installed, else the head of its queue is launched."""
        if node.down or node.in_flight is not None:
            return
        armed = self._armed.pop(node.node_id, None)
        if armed is not None:
            armed.cancel()
        if self.gate is not None:
            self.gate.arm(self, node)
            return
        job = node.queue.peek()
        if job is not None:
            self._launch(node, job)

    def _finished(self, node, job: ProofJob, record: JobRecord, charge_s: float):
        """``node`` completed ``job`` as ``record``: book it, release its
        router charge (the priced prove seconds), log it, then start the
        node's next job."""
        self.records.append(record)
        self.router.release(node.node_id, charge_s)
        self.events.emit(
            "job_completed",
            job_id=record.job_id,
            node_id=record.node_id,
            attempt=record.attempt,
            at_s=self._now(),
            cache_hit=record.cache_hit,
        )
        self._check_done()
        self.kick(node)
        if self.gate is not None:
            self.gate.capacity_changed(self)
        self._resolved(job)

    def _check_done(self) -> None:
        """Tell the runtime once its source is spent and every job resolved."""
        resolved = len(self.records) + len(self.failed_jobs)
        if self._source is None and resolved >= self._accepted:
            self._all_resolved()

    # -- the job lifecycle ---------------------------------------------------
    def _accept(self, job: ProofJob, job_id: int, cost_s: float | None = None):
        """Arrival: stamp ``job_id``, log the acceptance, route; returns
        the node that queued the job (None = parked) for the caller to
        kick once the whole instant is routed."""
        job.job_id = job_id
        self._accepted += 1
        self.events.emit("job_accepted", job_id=job_id, at_s=self._now(), tag=job.tag)
        return self._route(job, cost_s, kick=False)

    def _route(self, job: ProofJob, cost_s: float | None = None, kick: bool = True):
        """Route one job at ``cost_s`` predicted prove seconds (default:
        its time-model price) and kick its node (unless ``kick`` is
        False); park it only when the whole fleet is down.  Returns the
        node that queued it (None = parked).

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
                return None
            self.stats.exclusion_waivers += 1
            node_id = router.assign(job, cost_s=cost_s)
        node = self._enqueue(node_id, job)
        self.events.emit(
            "job_assigned",
            job_id=job.job_id,
            node_id=node_id,
            attempt=job.attempt,
            at_s=self._now(),
        )
        if kick:
            self.kick(node)
        return node

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
            "job_crashed",
            job_id=job.job_id,
            node_id=node_id,
            attempt=job.attempt,
            at_s=self._now(),
        )
        if self.retry_policy.register_loss(job, node_id):
            self.stats.retries += 1
            self.events.emit(
                "job_retried", job_id=job.job_id, attempt=job.attempt, at_s=self._now()
            )
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
        self.events.emit("node_down", node_id=node_id, at_s=self._now(), reason=reason)
        self._requeue(queued)
        if lost is not None:
            self._lose(lost[0], node_id)

    def _node_back(self, node_id: str, **detail) -> None:
        """``node_id`` is routable again: mark it up (if it is down), log
        ``node_up`` with ``detail``, and route every parked job."""
        if node_id in self.router.down_node_ids:
            self.router.mark_up(node_id)
        self.events.emit("node_up", node_id=node_id, at_s=self._now(), **detail)
        self._unpark()

    def _fail(self, job: ProofJob) -> None:
        """Drop ``job`` for good (it counts as a deadline miss)."""
        self.stats.failed += 1
        self.failed_jobs.append(job)
        self.events.emit(
            "job_failed", job_id=job.job_id, attempt=job.attempt, at_s=self._now()
        )
        self._check_done()
        self._resolved(job)
