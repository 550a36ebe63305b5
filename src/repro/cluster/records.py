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
crash was simulated or a killed process — and the node work loop both
run, over one :class:`JobQueue` per node.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Iterator

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


def instants(jobs: Iterable[ProofJob]) -> Iterator[tuple[float, list[ProofJob]]]:
    """``(arrival_s, jobs)`` per distinct arrival time, each instant's
    jobs in stream order: one :meth:`Dispatcher._arrive` call each."""
    by_time = sorted(jobs, key=lambda job: job.arrival_s)
    for at_s, batch in itertools.groupby(by_time, key=lambda job: job.arrival_s):
        yield at_s, list(batch)


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

    A runtime inherits it and supplies ``_enqueue(node_id, job)`` (queue
    a routed job, return the node: anything with ``node_id``, ``down``,
    ``in_flight`` and a :class:`JobQueue` ``queue``), ``_launch(node,
    job)`` (start the job :meth:`kick` picked) and ``_all_resolved()``.
    It reports a job's end through :meth:`_finished`, stops a lost
    node's work before :meth:`_node_lost`, and brings one back through
    :meth:`_node_back`.  ``gate`` and ``on_resolved``: see
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
        self.on_resolved = None
        #: stamps each arrival's job id (a runtime may swap in its own)
        self._next_job_id = itertools.count().__next__
        self._total_jobs = 0
        self._parked: list[ProofJob] = []
        #: a start the runtime armed for later, by node id (any handle
        #: with ``cancel()``); the next :meth:`kick` of the node voids it
        self._armed: dict[str, object] = {}

    # -- the node work loop --------------------------------------------------
    def _arrive(self, jobs: Iterable[ProofJob]) -> None:
        """One arrival instant: accept and route every job, then kick
        each node that got one, once, in node-id order — so a start
        gate sees the whole burst queued before any of it starts."""
        touched = {}
        for job in jobs:
            node = self._accept(job, self._next_job_id())
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
            self.gate.arm(node)
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
            cache_hit=record.cache_hit,
        )
        self._check_done()
        self.kick(node)
        if self.gate is not None:
            self.gate.capacity_changed()
        if self.on_resolved is not None:
            self.on_resolved(job)

    def _check_done(self) -> None:
        """Tell the runtime once every job is resolved."""
        if len(self.records) + len(self.failed_jobs) >= self._total_jobs:
            self._all_resolved()

    # -- the job lifecycle ---------------------------------------------------
    def _accept(self, job: ProofJob, job_id: int, cost_s: float | None = None):
        """Arrival: stamp ``job_id``, log the acceptance, route; returns
        the node that queued the job (None = parked) for the caller to
        kick once the whole instant is routed."""
        job.job_id = job_id
        self.events.emit("job_accepted", job_id=job_id, tag=job.tag)
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
            "job_assigned", job_id=job.job_id, node_id=node_id, attempt=job.attempt
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
        self._check_done()
        if self.on_resolved is not None:
            self.on_resolved(job)
