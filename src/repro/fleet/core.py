"""The asyncio control plane of the real proving fleet.

:class:`ProvingFleet` runs what :class:`~repro.cluster.core.\
ProvingCluster` simulates: N persistent worker processes
(:mod:`repro.fleet.worker`), one per node, driven by a single-threaded
asyncio coordinator, so measured behavior is comparable to predicted
behavior:

* **Job lifecycle and node work loop** — like the sim engine, the fleet
  *is* a :class:`~repro.cluster.records.Dispatcher`: one router, one
  parking / requeue / retry / failure path, one queue discipline (one
  job in flight per node, the rest started in ``(arrival, job_id)``
  order) — so failure-free placements are *identical* to the sim's
  (``tests/test_fleet.py`` locks this).  Each instant's jobs arrive
  together ``arrival_s × time_scale`` wall seconds after the fleet is
  warm.  The fleet adds only wall-time hooks: ``_launch`` sends a job
  to its worker and arms its timeout, a result becomes its record.
* **Failure detection** — a churn kill, heartbeat miss, or job timeout
  declares a node dead; the fleet kills the process, and the sim's
  crash and recovery code (``_node_lost`` / ``_node_back``) applies.
* **Events** — the same :class:`~repro.sim.events.EventLog` schema
  the sim engine emits, stamped with run-relative wall seconds.

Failure *injection* is deterministic: a seeded churn trace
(:mod:`repro.workloads.churn`) maps crash events to SIGKILL and
recovery events to fresh worker processes (cold cache, same seed — so
proofs stay byte-identical).  Failure *detection* is real: a
:class:`~repro.fleet.heartbeat.HeartbeatMonitor` watches worker beats
and the coordinator kills + retries on silence, and per-job timeouts
catch wedged proofs.

Each worker owns a private outbox queue read by a dedicated thread that
trampolines messages onto the event loop — a SIGKILL mid-message can
corrupt at most the dead worker's pipe.
"""

from __future__ import annotations

import asyncio
import multiprocessing as mp
import queue
import threading
from dataclasses import dataclass, field as dc_field
from typing import Callable, Iterable

from repro.cluster import metrics
from repro.cluster.nodes import NodeConfig
from repro.cluster.records import Dispatcher, JobQueue, JobRecord, instants
from repro.cluster.routing import DEFAULT_REPLICAS, ClusterRouter
from repro.cluster.timemodel import FleetTimeModel
from repro.sim.events import EventLog
from repro.fleet.heartbeat import HeartbeatMonitor
from repro.fleet.worker import WorkerSpec, worker_main
from repro.service.workers import ProveTask, TaskOutcome, WorkerProbe


def _mp_context():
    """A thread-safe multiprocessing context (forkserver where available).

    The coordinator runs reader threads, so plain ``fork`` would copy
    live thread state into respawned workers (and trips 3.12+'s
    fork-with-threads warning); ``forkserver`` forks from a clean
    server process instead.  Falls back to the platform default
    (``spawn`` on Windows).
    """
    try:
        ctx = mp.get_context("forkserver")
        ctx.set_forkserver_preload(["repro.fleet.worker"])
        return ctx
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return mp.get_context()


#: how long a run waits for every worker's ``ready`` before giving up
READY_TIMEOUT_S = 120.0


class WorkerStartupError(RuntimeError):
    """A worker process exited before reporting ``ready``."""


class FleetStalledError(RuntimeError):
    """Every node is down, none will come back, and jobs are still owed."""


@dataclass
class FleetConfig:
    """Knobs for one :class:`ProvingFleet`.

    ``node`` reuses the cluster's :class:`NodeConfig` so one object
    describes both the simulated node and the real worker built from it
    (cache bound, SRS seed/size).  No field switches arrivals off: a
    saturated batch is a stream whose arrivals are all zero.
    """

    num_nodes: int = 3
    #: ``round_robin`` | ``least_loaded`` | ``affinity``
    policy: str = "affinity"
    #: per-node knobs shared with the sim (cache bound, seed)
    node: NodeConfig = dc_field(default_factory=NodeConfig)
    #: router cost-model preset — match the sim run being validated
    time_model: str = "functional"
    #: virtual points per node on the affinity hash ring
    replicas: int = DEFAULT_REPLICAS
    #: crash-retry budget per job (shared :class:`RetryPolicy` semantics)
    max_retries: int = 2
    #: worker heartbeat period in wall seconds
    heartbeat_s: float = 0.05
    #: heartbeats missed in a row before a node is declared dead
    heartbeat_misses: float = 6.0
    #: wall seconds an in-flight job may run before its node is killed
    #: and the job retried (None = no timeout)
    job_timeout_s: float | None = None
    #: model-seconds → wall-seconds factor for arrivals and churn stamps
    time_scale: float = 1.0
    #: respawn a replacement worker after a *detected* failure
    #: (heartbeat miss / job timeout); churn kills instead wait for
    #: their trace's recovery event
    auto_respawn: bool = True
    #: hard wall-second cap on one run (None = run to completion)
    run_timeout_s: float | None = None


@dataclass
class _Flight:
    """The one job a node is currently proving (wall time)."""

    job: object
    start_s: float
    timeout: asyncio.TimerHandle | None = None


class _Handle:
    """Coordinator-side state for one worker process: the fleet's node."""

    def __init__(self, node_id: str, process, inbox, outbox):
        self.node_id = node_id
        self.process = process
        self.inbox = inbox
        self.outbox = outbox
        self.reader: threading.Thread | None = None
        #: set when the coordinator lets go of the worker: its reader ends
        self.released = threading.Event()
        self.up = False
        self.ready = asyncio.Event()
        self.stopped = asyncio.Event()
        self.in_flight: _Flight | None = None
        self.queue = JobQueue()

    @property
    def down(self) -> bool:
        """Not (yet, or any more) serving jobs."""
        return not self.up

    @property
    def starting(self) -> bool:
        """Spawned, not yet ``ready``, and not dead."""
        return not self.ready.is_set() and self.process.exitcode is None


class ProvingFleet(Dispatcher):
    """N real worker processes behind the sim's router; see module doc.

    Synchronous surface: build one, call :meth:`run` (it owns an
    asyncio loop internally), then read :attr:`records`,
    :attr:`failed_jobs`, :attr:`outcomes`, :attr:`events`, and
    :meth:`summary`.  A fleet instance is single-run.
    """

    def __init__(self, config: FleetConfig | None = None):
        self.config = config = config or FleetConfig()
        time_model = FleetTimeModel.preset(config.time_model)
        self.node_ids = [f"node-{i}" for i in range(config.num_nodes)]
        router = ClusterRouter(
            config.policy,
            self.node_ids,
            cost_model=time_model.prove_model,
            replicas=config.replicas,
        )
        super().__init__(
            router, time_model, EventLog(clock=self._now), config.max_retries
        )
        self.monitor = HeartbeatMonitor(
            config.heartbeat_s, config.heartbeat_misses
        )
        #: completed :class:`TaskOutcome` per cluster job id
        self.outcomes: dict[int, TaskOutcome] = {}
        #: every :class:`WorkerProbe` collected (probe replies + final
        #: stop snapshots) — the build-once SRS evidence
        self.worker_probes: list[WorkerProbe] = []
        self._handles: dict[str, _Handle] = {}
        #: every worker generation spawned (a respawn replaces the handle)
        self._spawned: list[_Handle] = []
        self._ctx = _mp_context()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._t0: float | None = None
        self._done: asyncio.Event | None = None
        #: churn recovery events not yet applied: each will spawn a node
        self._recoveries_due = 0
        self._stalled: FleetStalledError | None = None
        self._shutting_down = False
        self._ran = False

    # -- clocks --------------------------------------------------------------
    def _now(self) -> float:
        """Run-relative wall seconds (0.0 until the fleet is warm)."""
        if self._loop is None or self._t0 is None:
            return 0.0
        return self._loop.time() - self._t0

    @property
    def proofs(self) -> dict[int, object]:
        """Completed proofs by cluster job id (byte-identity hook)."""
        return {jid: out.proof for jid, out in self.outcomes.items()}

    # -- worker lifecycle ----------------------------------------------------
    def _spawn(self, node_id: str) -> _Handle:
        """Start a fresh worker process for ``node_id`` (cold cache)."""
        spec = WorkerSpec(
            node_id=node_id,
            srs_max_vars=self.config.node.max_vars,
            srs_seed=self.config.node.srs_seed,
            cache_capacity=self.config.node.cache_capacity,
            heartbeat_s=self.config.heartbeat_s,
        )
        inbox = self._ctx.Queue()
        outbox = self._ctx.Queue()
        process = self._ctx.Process(
            target=worker_main,
            args=(spec, inbox, outbox),
            name=f"fleet-{node_id}",
            daemon=True,
        )
        handle = _Handle(node_id, process, inbox, outbox)
        self._handles[node_id] = handle
        self._spawned.append(handle)
        process.start()
        handle.reader = threading.Thread(
            target=self._read, args=(handle,), daemon=True
        )
        handle.reader.start()
        return handle

    def _read(self, handle: _Handle) -> None:
        """Reader-thread loop: trampoline one worker's messages until it
        stops or is released.  The coordinator never writes to an outbox
        to wake its reader: a worker killed inside ``put`` leaves the
        queue's write lock held, and the wakeup would wait on it forever
        (and the interpreter, joining that queue's feeder, at exit)."""
        while not handle.released.is_set():
            try:
                msg = handle.outbox.get(timeout=self.config.heartbeat_s)
            except queue.Empty:
                continue
            except (EOFError, OSError):  # pragma: no cover - torn pipe
                break
            try:
                self._loop.call_soon_threadsafe(self._on_message, handle, msg)
            except RuntimeError:  # loop already closed
                break
            if msg[1] == "stopped":
                break

    def _on_message(self, handle: _Handle, msg) -> None:
        node_id, kind, payload = msg
        current = self._handles.get(node_id) is handle
        if kind == "ready":
            if not current:
                return
            handle.up = True
            handle.ready.set()
            self.monitor.expect(node_id)
            self._node_back(node_id, pid=payload)
            self.kick(handle)
        elif kind == "heartbeat":
            if current and handle.up:
                self.monitor.beat(node_id)
        elif kind == "result":
            if not (current and handle.up):
                return  # stale result from a node we already failed
            self._complete(handle, payload)
        elif kind == "probe":
            self.worker_probes.append(payload)
        elif kind == "stopped":
            self.worker_probes.append(payload)
            handle.stopped.set()

    # -- dispatcher hooks ----------------------------------------------------
    def _enqueue(self, node_id: str, job) -> _Handle:
        handle = self._handles[node_id]
        handle.queue.push(job)
        return handle

    def _launch(self, handle: _Handle, job) -> None:
        """Send ``job`` to the node's worker and arm its timeout."""
        handle.queue.remove(job)
        task = ProveTask(
            job_id=job.job_id,
            circuit=job.circuit,
            circuit_key=job.circuit_key,
        )
        flight = _Flight(job=job, start_s=self._now())
        if self.config.job_timeout_s is not None:
            flight.timeout = self._loop.call_later(
                self.config.job_timeout_s, self._on_timeout, handle, job
            )
        handle.in_flight = flight
        handle.inbox.put(("prove", task))

    def _complete(self, handle: _Handle, outcome: TaskOutcome) -> None:
        flight = handle.in_flight
        if flight is None or flight.job.job_id != outcome.job_id:
            return  # stale result (job already retried elsewhere)
        handle.in_flight = None
        if flight.timeout is not None:
            flight.timeout.cancel()
        job = flight.job
        scale = self.config.time_scale
        record = JobRecord(
            job_id=job.job_id,
            tag=job.tag,
            circuit_key=job.circuit_key,
            node_id=handle.node_id,
            arrival_s=job.arrival_s * scale,
            start_s=flight.start_s,
            finish_s=self._now(),
            prove_model_s=outcome.prove_s,
            install_model_s=outcome.install_s,
            cache_hit=outcome.cache_hit,
            deadline_s=(
                job.deadline_s * scale if job.deadline_s is not None else None
            ),
            attempt=job.attempt,
        )
        self.outcomes[job.job_id] = outcome
        self._finished(handle, job, record, self.time_model.price(job)[1])

    def _all_resolved(self) -> None:
        self._done.set()

    # -- failure paths -------------------------------------------------------
    def _on_timeout(self, handle: _Handle, job) -> None:
        flight = handle.in_flight
        if flight is None or flight.job is not job or not handle.up:
            return
        self._fail_node(
            handle.node_id,
            reason="timeout",
            respawn=self.config.auto_respawn,
        )

    def _fail_node(self, node_id: str, *, reason: str, respawn: bool) -> None:
        """Kill a node's process; the Dispatcher handles its jobs."""
        handle = self._handles[node_id]
        if not handle.up:
            return
        handle.up = False
        self.monitor.forget(node_id)
        if handle.process.is_alive():
            handle.process.kill()
        handle.released.set()
        flight, handle.in_flight = handle.in_flight, None
        lost = None
        if flight is not None:
            if flight.timeout is not None:
                flight.timeout.cancel()
            lost = flight.job, max(0.0, self._now() - flight.start_s)
        queued, handle.queue = handle.queue.jobs(), JobQueue()
        self._node_lost(node_id, reason, queued, lost)
        if respawn and not self._shutting_down:
            self._spawn(node_id)
        else:
            self._check_stalled(node_id, reason)

    def _check_stalled(self, node_id: str, reason: str) -> None:
        """End the run by name when the node that just went down was the
        last one and nothing will bring one back: no node up or still
        starting, no churn recovery due.  The jobs still owed (parked, or
        not yet arrived) could only wait out ``run_timeout_s``."""
        owed = self._total_jobs - len(self.records) - len(self.failed_jobs)
        alive = any(h.up or h.starting for h in self._handles.values())
        if owed <= 0 or alive or self._recoveries_due or self._shutting_down:
            return
        self._stalled = FleetStalledError(
            "every fleet node is down and none will respawn: "
            f"{sorted(self._handles)} dead (last: {node_id}, reason "
            f"{reason!r}) with {owed} of {self._total_jobs} jobs still owed"
        )
        self._done.set()

    def _on_churn(self, event) -> None:
        """Apply one seeded churn event: crash = SIGKILL, recover = spawn
        (unless a replacement worker is already starting)."""
        if event.kind != "crash":
            self._recoveries_due -= 1
        node_id = f"node-{event.node_index}"
        handle = self._handles.get(node_id)
        if handle is None:
            return
        if event.kind == "crash":
            self._fail_node(node_id, reason="churn", respawn=False)
        elif not (handle.up or handle.starting or self._shutting_down):
            self._spawn(node_id)

    # -- test/chaos hooks ----------------------------------------------------
    def freeze(self, node_id: str, seconds: float) -> None:
        """Wedge ``node_id`` for ``seconds``: no beats, no progress.

        The heartbeat monitor then declares it dead — the deterministic
        stand-in for a hung worker in the failure-detection tests.
        """
        self._handles[node_id].inbox.put(("freeze", seconds))

    def kill(self, node_id: str, *, respawn: bool | None = None) -> None:
        """SIGKILL ``node_id`` immediately (crash semantics apply)."""
        if respawn is None:
            respawn = self.config.auto_respawn
        self._fail_node(node_id, reason="kill", respawn=respawn)

    def probe_workers(self) -> None:
        """Ask every live worker for a :class:`WorkerProbe` snapshot."""
        for handle in self._handles.values():
            if handle.up:
                handle.inbox.put(("probe", None))

    # -- run -----------------------------------------------------------------
    def run(
        self,
        jobs: list,
        *,
        churn: Iterable = (),
        actions: Iterable[tuple[float, Callable[["ProvingFleet"], None]]] = (),
    ) -> list[JobRecord]:
        """Serve ``jobs`` on real workers; returns records in finish order.

        ``churn`` is a model-time :class:`~repro.workloads.churn.\
        ChurnEvent` trace (stamps scaled by ``config.time_scale``);
        ``actions`` are ``(at_s, fn)`` chaos callbacks invoked with the
        fleet at run-relative wall times (tests use these to freeze or
        kill nodes mid-run).  A fleet instance runs once.
        """
        if self._ran:
            raise RuntimeError("a ProvingFleet instance is single-run")
        self._ran = True
        return asyncio.run(self._run(list(jobs), list(churn), list(actions)))

    async def _run(self, jobs, churn, actions) -> list[JobRecord]:
        self._loop = asyncio.get_running_loop()
        self._done = asyncio.Event()
        self._total_jobs = len(jobs)
        for node_id in self.node_ids:
            self._spawn(node_id)
        timers = []
        watchdog = None
        try:
            await self._await_ready()
            # makespan starts when the fleet is warm, not when Python forked
            self._t0 = t0 = self._loop.time()
            scale = self.config.time_scale
            # one timer per instant keeps simultaneous arrivals in stream
            # order, the sim's tie rule (equal asyncio deadlines are not)
            for at_s, batch in instants(jobs):
                timers.append(
                    self._loop.call_at(t0 + at_s * scale, self._arrive, batch)
                )
            self._recoveries_due = sum(e.kind != "crash" for e in churn)
            for event in churn:
                timers.append(
                    self._loop.call_later(
                        event.at_s * scale, self._on_churn, event
                    )
                )
            for at_s, fn in actions:
                timers.append(self._loop.call_later(at_s, fn, self))
            watchdog = asyncio.ensure_future(self._watch())
            if self._total_jobs:
                await asyncio.wait_for(
                    self._done.wait(), timeout=self.config.run_timeout_s
                )
                if self._stalled is not None:
                    raise self._stalled
        finally:
            self._shutting_down = True
            if watchdog is not None:
                watchdog.cancel()
            for timer in timers:
                timer.cancel()
            await self._shutdown()
        self.records.sort(key=lambda r: (r.finish_s, r.job_id))
        return self.records

    async def _await_ready(self) -> None:
        """Wait for every worker's ``ready``; a worker that exits first
        (bad preload, unimportable ``__main__`` under forkserver, crash
        while building its SRS) fails the run at once, by name."""
        deadline = self._loop.time() + READY_TIMEOUT_S
        while True:
            waiting = [
                h for h in self._handles.values() if not h.ready.is_set()
            ]
            if not waiting:
                return
            for handle in waiting:
                code = handle.process.exitcode
                if code is not None:
                    raise WorkerStartupError(
                        f"fleet worker {handle.node_id} exited with code "
                        f"{code} before it was ready"
                    )
            if self._loop.time() >= deadline:
                raise asyncio.TimeoutError(
                    "fleet workers not ready after "
                    f"{READY_TIMEOUT_S:.0f}s: {[h.node_id for h in waiting]}"
                )
            await asyncio.sleep(0.02)

    async def _watch(self) -> None:
        """Declare heartbeat-silent nodes dead (kill + retry + respawn)."""
        while True:
            await asyncio.sleep(self.config.heartbeat_s)
            for node_id in self.monitor.overdue():
                self._fail_node(
                    node_id, reason="heartbeat", respawn=self.config.auto_respawn
                )

    async def _shutdown(self) -> None:
        """Graceful drain: stop live workers, reap everything."""
        live = [h for h in self._handles.values() if h.up]
        for handle in live:
            handle.up = False
            self.monitor.forget(handle.node_id)
            handle.inbox.put(("stop", None))
        if live:
            waits = [h.stopped.wait() for h in live]
            try:
                await asyncio.wait_for(asyncio.gather(*waits), timeout=30.0)
            except asyncio.TimeoutError:  # pragma: no cover - wedged worker
                pass
        for handle in self._handles.values():
            if not handle.ready.is_set():  # still starting: never got "stop"
                handle.process.kill()
            if handle.process.is_alive():
                handle.process.join(timeout=5.0)
            if handle.process.is_alive():  # pragma: no cover - wedged worker
                handle.process.kill()
                handle.process.join(timeout=5.0)
        # no thread outlives the run (every generation's reader, and the
        # inbox feeder the interpreter would join at exit): a dead
        # worker reads nothing more, so its inbox is not flushed
        for handle in self._spawned:
            handle.released.set()
            handle.reader.join(timeout=1.0)
            handle.inbox.cancel_join_thread()
            handle.inbox.close()

    # -- reporting -----------------------------------------------------------
    def summary(self) -> dict:
        """Measured-side metrics in wall seconds: ``measured`` is built
        like the sim's ``model`` block, from the same
        :mod:`repro.cluster.metrics` helpers, so the two compare directly."""
        records, stats = self.records, self.stats
        busy = dict.fromkeys(self.node_ids, 0.0)
        jobs = dict.fromkeys(self.node_ids, 0)
        hits = 0
        for record in records:
            busy[record.node_id] += record.install_model_s + record.prove_model_s
            jobs[record.node_id] += 1
            hits += record.cache_hit
        doc = {
            "policy": self.config.policy,
            "nodes": self.config.num_nodes,
            "jobs": len(records),
            "measured": {
                **metrics.records_summary(records, ("p50", "p95", "max")),
                **metrics.install_split(records),
                "busy_s": {node_id: round(s, 6) for node_id, s in sorted(busy.items())},
                "load_imbalance": round(metrics.load_imbalance(list(busy.values())), 4),
            },
            "cache": {
                "hits": hits,
                "misses": len(records) - hits,
                "hit_rate": round(hits / len(records), 4) if records else 0.0,
            },
            "routing": {"jobs_per_node": dict(sorted(jobs.items()))},
            "resilience": {
                "crashes": stats.crashes,
                "retries": stats.retries,
                "requeues": stats.requeues,
                "parked": stats.parked,
                "exclusion_waivers": stats.exclusion_waivers,
                "failed_jobs": len(self.failed_jobs),
                "lost_wall_s": round(stats.lost_model_s, 6),
            },
        }
        # once arrivals are paced, as in ProvingCluster.summary
        if any(record.arrival_s for record in records):
            doc["deadlines"] = metrics.deadline_stats(records, self.failed_jobs)
        if stats.crashes:
            doc["retries"] = metrics.retry_stats(records)
        return doc
