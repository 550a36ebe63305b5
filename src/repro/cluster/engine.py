"""The cluster's discrete-event executor (on :mod:`repro.sim`).

:class:`ClusterEngine` drives every :class:`~repro.cluster.core.\
ProvingCluster` run through one :class:`~repro.sim.Simulator`, so job
completions, node crashes, recoveries, retries, and autoscaler ticks
interleave on a single deterministic model-time axis.  :meth:`run` is
the one entry point of a closed batch and an open loop alike: the
Dispatcher's arrival pump fires one event per distinct ``arrival_s``,
which routes that instant's jobs, then kicks each node that got one; a
churn trace (:mod:`repro.workloads.churn`) crashes and recovers nodes
mid-stream; an optional :class:`~repro.cluster.autoscale.AutoscalePolicy`
resizes the fleet from the plan-predicted backlog signal.  A closed batch
with arrivals ignored is a stream whose ``arrival_s`` are all zero: one
instant, every job queued before any starts.

Routing, the node work loop (pick, start, finish, re-kick) and a
node's loss and return are the inherited
:class:`~repro.cluster.records.Dispatcher` — the code the real fleet
runs — so the same seed and trace give identical placements and retry
counts.  The engine supplies how a job starts (at ``max(node clock,
arrival)``, so no start lands before the model time it fires at) and a
finish event's :class:`JobRecord` in model seconds.  A crash loses the
node's *in-flight* job (the lost model seconds are accounted),
cold-starts its index cache, and takes its ring points away so only
~K/N fingerprints remap; the engine cancels the node's armed events and
flight first.  Jobs stranded with the whole fleet down at the end are
*failed*, like retry-exhausted ones.

Start gate.  By default an idle node starts the head of its queue as
soon as the head is ready.  A layer above may decide *which* job starts
and *when* by installing ``engine.gate``; the loop knows nothing of
what the gate optimises and consults it at three points only, passing
itself so the gate need keep no reference to the engine:

* ``gate.arm(engine, node)`` — ``node`` is up and idle with no start
  armed: :meth:`~ClusterEngine.begin` a job, look again later
  (:meth:`~ClusterEngine.start_at`), or leave the node waiting;
* ``gate.node_down(node)`` — ``node`` is crashing, work not yet requeued;
* ``gate.capacity_changed(engine)`` — a flight finished or a node went
  down: waiting nodes may be worth a :meth:`~ClusterEngine.kick`.

One observer, ``engine.on_segment_end(flight, end_s, lost)`` — a busy
segment of ``flight`` ended, finished or ``lost`` to a crash (the carbon
runtime's, DESIGN.md §12) — and one hook, ``_resolved(job)``, called
last, once per completed or failed job (open-loop admission overrides
it).  A run with only the observer installed schedules exactly as one
with none.

Ownership (DESIGN.md §11).  A run's object graph is acyclic: events are
stamped with ``sim.now`` as they are emitted rather than through a clock
that closes over the engine, job ids come from an overridden method,
the gate gets the engine as a call argument, and a fired or cancelled
:class:`~repro.sim.EventHandle` drops its callback.  So the engine, its
simulator and every armed event are freed by reference counting when
the caller lets go, and the cluster's records, event log and carbon
runtime outlive the run without keeping it alive.

A job's ``(install_s, prove_s)`` comes from one dict hit on
:meth:`~repro.cluster.timemodel.FleetTimeModel.price`: the arrival's
``prove_s`` is what the router charges, a finish releases the same
``prove_s``, and the node times what the same memo gives at its start.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.cluster.nodes import InFlightJob, JobRecord, ProverNode
from repro.cluster.records import Dispatcher, arrival_order
from repro.service.jobs import ProofJob
from repro.sim import EventHandle, EventLog, Simulator, TraceSource, install
from repro.workloads.churn import ChurnEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.core import ProvingCluster

#: same-time event priorities: arrivals first, then starts and
#: finishes, then churn, then autoscaler ticks — a fixed total order
#: so simultaneous events never depend on scheduling accidents
PRIO_ARRIVAL = 0
PRIO_START = 1
PRIO_FINISH = 2
PRIO_CHURN = 3
PRIO_TICK = 4


class ClusterEngine(Dispatcher):
    """One event-driven cluster run; see the module docstring."""

    def __init__(self, cluster: "ProvingCluster"):
        self.sim = Simulator()
        # the structured JSONL event log (shared schema with the real
        # fleet — see :mod:`repro.sim.events`); each event is stamped
        # with the model clock as it is emitted (:meth:`_now`)
        super().__init__(
            cluster.router,
            cluster.time_model,
            EventLog(),
            cluster.config.max_retries,
        )
        self.cluster = cluster
        self._finish_handles: dict[str, EventHandle] = {}
        self._cancellable: list[EventHandle] = []
        self._tick_handle: EventHandle | None = None
        #: the busy-segment observer (module docstring); None unless
        #: ``config.carbon`` sets it
        self.on_segment_end = None
        #: what ``config.carbon`` attached to this run (None = nothing);
        #: it reports through :meth:`ProvingCluster.summary`
        carbon = cluster.config.carbon
        self.carbon = carbon.attach(self) if carbon is not None else None

    # -- dispatcher hooks ----------------------------------------------------
    def _now(self) -> float:
        return self.sim.now

    def _next_job_id(self) -> int:
        return self.cluster.next_job_id()

    def _arm_instant(self, at_s: float) -> None:
        at_s = at_s if at_s > self.sim.now else self.sim.now
        self.sim.schedule_fast(at_s, self._fire_instant, priority=PRIO_ARRIVAL)

    def _enqueue(self, node_id: str, job: ProofJob) -> ProverNode:
        node = self.cluster.nodes[node_id]
        node.submit(job)
        return node

    def _launch(self, node: ProverNode, job: ProofJob) -> None:
        """Start ``job`` now, or look again when it is ready."""
        ready = max(node.clock_s, job.arrival_s)
        if ready <= self.sim.now:
            self.begin(node, job)
        else:
            self.start_at(node, ready)

    def _all_resolved(self) -> None:
        """Stop the churn and autoscale event streams."""
        for handle in self._cancellable:
            handle.cancel()
        self._cancellable.clear()
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None

    # -- what a start gate drives --------------------------------------------
    def start_at(self, node: ProverNode, at_s: float) -> None:
        """Arm ``node`` to look for work again at model time ``at_s``."""
        self._armed[node.node_id] = self.sim.schedule(
            at_s, lambda: self.kick(node), priority=PRIO_START
        )

    def begin(self, node: ProverNode, job: ProofJob) -> None:
        """Start ``job`` (any queued job of ``node``) now."""
        flight = node.begin(job, self.sim.now, self.time_model.price(job))
        self.finish_at(node, flight)

    def finish_at(self, node: ProverNode, flight: InFlightJob) -> None:
        """Arm the finish event of the segment ``flight`` just started."""
        self._finish_handles[node.node_id] = self.sim.schedule(
            flight.finish_s, lambda: self._finish(node), priority=PRIO_FINISH
        )

    def cancel_finish(self, node: ProverNode) -> None:
        """Void ``node``'s armed finish event (its segment ends early)."""
        handle = self._finish_handles.pop(node.node_id, None)
        if handle is not None:
            handle.cancel()

    def _finish(self, node: ProverNode) -> None:
        self._finish_handles.pop(node.node_id, None)
        flight = node.in_flight
        record = node.complete()
        if self.on_segment_end is not None:
            self.on_segment_end(flight, record.finish_s, False)
        self._finished(node, flight.job, record, flight.prove_s)

    # -- churn ---------------------------------------------------------------
    def _on_churn(self, event: ChurnEvent) -> None:
        node = self.cluster.nodes.get(f"node-{event.node_index}")
        if node is None:
            return  # retired by the autoscaler; churn no longer applies
        if event.kind == "crash":
            if not node.down:
                self._crash(node)
        elif node.down:
            self.stats.recoveries += 1
            self._revive(node, "recover")

    def _crash(self, node: ProverNode) -> None:
        """Stop ``node``'s events and flight; the Dispatcher does the rest."""
        handle = self._armed.pop(node.node_id, None)
        if handle is not None:
            handle.cancel()
        if self.gate is not None:
            self.gate.node_down(node)
        lost = None
        if node.in_flight is not None:
            self.cancel_finish(node)
            if self.on_segment_end is not None:
                self.on_segment_end(node.in_flight, self.sim.now, True)
            lost = node.abort(self.sim.now)
        self._node_lost(node.node_id, "crash", node.crash(self.sim.now), lost)
        if self.gate is not None:
            self.gate.capacity_changed(self)

    def _revive(self, node: ProverNode, reason: str) -> None:
        """Bring ``node`` back up (churn recovery or end of provisioning)."""
        if self.cluster.nodes.get(node.node_id) is not node:
            return  # retired before provisioning finished
        node.recover(self.sim.now)
        self._node_back(node.node_id, reason=reason)
        self.kick(node)

    # -- autoscaler ----------------------------------------------------------
    def _backlog_signal_s(self) -> float | None:
        """Mean predicted outstanding seconds per up node (None = all down).

        Parked jobs count toward the backlog — they are exactly the
        work the fleet currently has no capacity for.
        """
        router = self.router
        up = router.up_node_ids
        if not up:
            return None
        outstanding = router.outstanding
        price = self.time_model.price
        parked = sum(price(job)[1] for job in self._parked)
        return (sum(outstanding.node_s(n) for n in up) + parked) / len(up)

    def _tick(self) -> None:
        self._tick_handle = None
        policy = self.cluster.config.autoscale
        signal = self._backlog_signal_s()
        can_grow = len(self.cluster.nodes) < policy.max_nodes
        if signal is None:
            # whole fleet down: provision a replacement for parked work
            if self._parked and can_grow:
                self._scale_out(0.0)
        elif signal > policy.scale_out_threshold_s and can_grow:
            self._scale_out(signal)
        elif signal < policy.scale_in_threshold_s:
            self._scale_in(signal)
        if len(self.sim):
            # only re-arm while something else can still happen; with an
            # empty heap the state is frozen between ticks, so ticking
            # on would spin the simulation forever (stranded jobs are
            # failed at finalize instead)
            self._tick_handle = self.sim.schedule_after(
                policy.interval_s, self._tick, priority=PRIO_TICK
            )

    def _scale_out(self, signal: float) -> None:
        policy = self.cluster.config.autoscale
        node_id = self.cluster.add_node()
        node = self.cluster.nodes[node_id]
        self.stats.scale_outs += 1
        self._autoscaled("scale_out", node_id, signal)
        if policy.provision_s > 0:
            # not routable until provisioned: down-marked, then revived
            node.down = True
            self.router.mark_down(node_id)
            self.sim.schedule_after(
                policy.provision_s,
                lambda: self._revive(node, "scale_out"),
                priority=PRIO_CHURN,
            )
        else:
            self._node_back(node_id, reason="scale_out")

    def _scale_in(self, signal: float) -> None:
        policy = self.cluster.config.autoscale
        router = self.router
        if len(router.up_node_ids) <= policy.min_nodes:
            return
        idle = [
            node_id
            for node_id in router.up_node_ids
            if self.cluster.nodes[node_id].idle
        ]
        if not idle:
            return
        # retire the newest idle node: scale-in unwinds scale-out
        node_id = max(idle, key=lambda n: int(n.rsplit("-", 1)[1]))
        self.cluster.remove_node(node_id)
        self.events.emit(
            "node_down", node_id=node_id, at_s=self.sim.now, reason="scale_in"
        )
        self.stats.scale_ins += 1
        self._autoscaled("scale_in", node_id, signal)

    def _autoscaled(self, action: str, node_id: str, signal: float) -> None:
        """Record one autoscaler ``action`` and log its decision event."""
        nodes = len(self.cluster.nodes)
        signal_s = round(signal, 6)
        self.stats.autoscale_actions.append(
            {
                "at_s": round(self.sim.now, 6),
                "action": action,
                "node_id": node_id,
                "signal_s": signal_s,
                "nodes": nodes,
            }
        )
        self.events.emit(
            "autoscale_decision",
            node_id=node_id,
            at_s=self.sim.now,
            action=action,
            signal_s=signal_s,
            nodes=nodes,
        )

    # -- entry points --------------------------------------------------------
    def _finalize(self) -> list[JobRecord]:
        """Fail stranded work, sort and record this run's results."""
        for job in sorted(self._parked, key=arrival_order):
            self._fail(job)  # stranded: fleet was down to the end
        self._parked = []
        # jobs still parked at a phase boundary when the run drained out
        # are failed — their banked phases become lost model seconds
        stranded = []
        for node_id in sorted(self.cluster.nodes):
            stranded.extend(self.cluster.nodes[node_id].discard_suspended())
        for flight in sorted(stranded, key=lambda f: arrival_order(f.job)):
            self.stats.lost_model_s += flight.done_before_s
            self._fail(flight.job)
        self.records.sort(key=lambda r: (r.finish_s, r.job_id))
        self.cluster.records.extend(self.records)
        self.cluster.failed_jobs.extend(self.failed_jobs)
        return self.records

    def run(
        self,
        jobs: Iterable[ProofJob],
        *,
        churn: Iterable[ChurnEvent] = (),
    ) -> list[JobRecord]:
        """Route each job at its ``arrival_s``, under churn, retries and
        autoscaling; returns the completed records in finish order.

        ``jobs`` is a closed batch or a lazy stream (the Dispatcher's
        arrival pump).  The churn trace addresses nodes by *initial*
        index; events for nodes the autoscaler has retired are skipped.
        """
        self._cancellable.extend(
            install(
                self.sim,
                TraceSource([(event.at_s, event) for event in churn]),
                self._on_churn,
                priority=PRIO_CHURN,
            )
        )
        if self.cluster.config.autoscale is not None:
            self._tick_handle = self.sim.schedule(
                self.cluster.config.autoscale.interval_s,
                self._tick,
                priority=PRIO_TICK,
            )
        self._start_arrivals(jobs)
        self.sim.run()
        if self._source is not None:
            # the heap drained with the source held and nothing to release
            # it (every unresolved job parked for good): the stream ends
            self._ahead = None
            self._pump()
        return self._finalize()
