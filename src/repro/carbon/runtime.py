"""Carbon-aware scheduling state: config, policies, joule accounting.

:class:`CarbonConfig` is the declarative knob block a
:class:`~repro.cluster.core.ClusterConfig` carries;
:class:`CarbonRuntime` is the per-run state machine the cluster engine
consults.  The split of responsibilities follows the pennsail framing
(SNIPPETS.md): *deferrable* work is steered in time — ``carbon_waiting``
delays its starts into low-intensity windows bounded by deadline slack,
and a fleet power cap parks it at :class:`ProofPlan` phase boundaries —
while *realtime* work is never delayed for carbon, only (transiently)
for the cap, and preempts deferrable work to get under it.

The runtime plugs into the engine's two extension points
(:mod:`repro.cluster.engine`, "Start gate") and answers three kinds of
question —

* **pricing** (:meth:`account_segment`, :meth:`as_dict`): how many
  joules and grams did each busy segment burn against the trace —
  installed as the engine's busy-segment observer by every runtime;
* **ordering** (:meth:`select_job`): which queued job should this idle
  node start, and should the start be held until a cleaner window;
* **capping** (:meth:`cap_allows`, :meth:`next_boundary`): may another
  node go busy under the fleet power cap, and where is the next
  checkpointable phase boundary of a running deferrable job.

Ordering and capping make the runtime the engine's *start gate*
(:meth:`arm`, :meth:`node_down`, :meth:`capacity_changed`), and only a
runtime with a policy or a cap installs itself as one.  With
``policy="none"`` and no cap the runtime is :attr:`passive`: it
installs the pricing observer and nothing else, so no scheduling
decision can reach it — the capless-parity test (bit-identical records
and event log vs. a carbon-free run) holds because there is no code
path, not because a branch is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.carbon.power import NodePowerModel, node_watts
from repro.carbon.trace import JOULES_PER_KWH, CarbonIntensityTrace
from repro.cluster.engine import PRIO_START
from repro.plan.cost import plan_modmuls
from repro.plan.proof_plan import hyperplonk_plan
from repro.service.jobs import ProofJob, RequestClass

#: carbon scheduling policies accepted by :class:`CarbonConfig`
CARBON_POLICIES = ("none", "carbon_waiting", "edd")

#: slack under floating-point comparisons of watts and seconds
_EPS = 1e-9


@dataclass
class CarbonConfig:
    """Declarative carbon/power knobs for one cluster run."""

    #: the grid-intensity signal all pricing and policies read
    trace: CarbonIntensityTrace
    #: one of :data:`CARBON_POLICIES`
    policy: str = "none"
    #: node power model; None derives one from the fleet time model
    power: NodePowerModel | None = None
    #: fleet-wide draw cap in watts (None = uncapped)
    power_cap_w: float | None = None
    #: "low intensity" threshold for ``carbon_waiting`` (g/kWh);
    #: None defaults to the trace's base intensity
    low_threshold_g_per_kwh: float | None = None
    #: longest a deadline-less deferrable job may be held (model s);
    #: None defaults to one trace period
    max_wait_s: float | None = None

    def __post_init__(self):
        if self.policy not in CARBON_POLICIES:
            raise ValueError(
                f"unknown carbon policy {self.policy!r}; "
                f"choose from {CARBON_POLICIES}"
            )
        if self.power_cap_w is not None and self.power_cap_w <= 0:
            raise ValueError(f"power_cap_w must be > 0; got {self.power_cap_w}")
        if (
            self.low_threshold_g_per_kwh is not None
            and self.low_threshold_g_per_kwh <= 0
        ):
            raise ValueError(
                "low_threshold_g_per_kwh must be > 0; "
                f"got {self.low_threshold_g_per_kwh}"
            )
        if self.max_wait_s is not None and self.max_wait_s <= 0:
            raise ValueError(f"max_wait_s must be > 0; got {self.max_wait_s}")

    def attach(self, engine) -> "CarbonRuntime":
        """Build this run's runtime and plug it into ``engine``.

        What :class:`~repro.cluster.engine.ClusterEngine` calls on its
        ``config.carbon`` — the cluster layer never names a carbon
        class.
        """
        runtime = CarbonRuntime(self, engine.cluster.time_model)
        runtime.install(engine)
        return runtime


class CarbonRuntime:
    """Per-run carbon state; see the module docstring for the contract."""

    def __init__(self, config: CarbonConfig, time_model):
        self.config = config
        self.trace = config.trace
        self.policy = config.policy
        self._time_model = time_model
        self.power = config.power or node_watts(time_model)
        self.power_cap_w = config.power_cap_w
        self.threshold_g_per_kwh = (
            config.low_threshold_g_per_kwh
            if config.low_threshold_g_per_kwh is not None
            else self.trace.base_g_per_kwh
        )
        self.max_wait_s = (
            config.max_wait_s
            if config.max_wait_s is not None
            else self.trace.period_s
        )
        if (
            self.power_cap_w is not None
            and self.power_cap_w < self.power.busy_w - _EPS
        ):
            raise ValueError(
                f"power_cap_w={self.power_cap_w} is below one busy node "
                f"({self.power.busy_w:.1f} W); the fleet could never prove"
            )
        #: ids of the jobs whose nodes draw busy (prove/install) power
        self._active: set[int] = set()
        #: per-shape cumulative prove-progress fractions at phase edges
        self._fractions: dict[tuple[str, int], tuple[float, ...]] = {}
        # gross accounting (lost segments included) + the lost slice
        self.energy_j = 0.0
        self.carbon_g = 0.0
        self.energy_lost_j = 0.0
        self.carbon_lost_g = 0.0
        # policy counters, bumped at the emitting site
        self.suspends = 0
        self.resumes = 0
        self.held_starts = 0
        self.cap_deferrals = 0
        self.cap_breaches = 0
        #: the engine this runtime gates (None until :meth:`install`)
        self._engine = None
        #: the one parking maneuver in flight, if any:
        #: ``(event handle, victim node id, job id, beneficiary node id)``
        self._parking: tuple | None = None
        # per-node dedup keys so scheduler_choice / power_cap events
        # record decisions, not every re-arm of an unchanged one
        self._last_choice: dict[str, tuple] = {}
        self._last_cap_note: dict[str, tuple] = {}

    @property
    def passive(self) -> bool:
        """True when only pricing runs — no policy, no cap.

        A passive runtime never becomes the engine's start gate
        (:meth:`install`), which is what the capless-parity test pins.
        """
        return self.policy == "none" and self.power_cap_w is None

    def install(self, engine) -> None:
        """Plug into ``engine``: pricing always, the start gate if active."""
        self._engine = engine
        if self.passive:
            engine.on_segment_end = self.account_segment
        else:
            engine.on_segment_end = self._segment_ended
            engine.gate = self

    # -- the start gate (engine hooks; never reached when passive) -----------
    def arm(self, node) -> None:
        """Carbon-aware (re)arm of one idle node.

        Parked work resumes first (its banked phases are hostage to
        this node), then the policy picks among queued jobs, the
        carbon-waiting hold is applied, and finally the power cap gets
        a veto — which for a blocked *realtime* job also requests a
        deferrable suspension somewhere in the fleet.
        """
        engine = self._engine
        now = engine.sim.now
        suspended = node.suspended_ids
        if suspended:
            if self.cap_allows():
                self._resume(node, suspended[0])
            # else: stay parked; the next finish/suspend re-arms us
            return
        job, hold = self.select_job(node, now_s=now)
        if job is None:
            return
        ready = max(node.clock_s, job.arrival_s)
        if hold is not None and hold > now:
            if self._note_choice(
                node, job, "hold", round(hold, 9), until_s=round(hold, 6)
            ):
                self.held_starts += 1
            engine.start_at(node, max(hold, ready))
        elif ready > now:
            engine.start_at(node, ready)
        elif self.cap_allows():
            self._start(node, job)
        else:
            self._power_block(node, job)

    def node_down(self, node) -> None:
        """A parking maneuver touching a crashing node is moot either way."""
        if self._parking is not None:
            handle, victim_id, _, beneficiary_id = self._parking
            if node.node_id in (victim_id, beneficiary_id):
                handle.cancel()
                self._parking = None

    def capacity_changed(self) -> None:
        """Re-arm idle nodes after cap headroom may have changed.

        Two passes in node order — nodes whose next start is realtime
        first, then the rest — so freed watts always go to the
        latency-sensitive class before deferrable work re-fills them.
        """
        if self.power_cap_w is None:
            return
        engine = self._engine
        nodes = engine.cluster.nodes
        for realtime_first in (True, False):
            for node_id in sorted(nodes):
                node = nodes[node_id]  # a down or busy one is never kicked
                head = node.queue.peek()
                if head is None and not node.suspended_ids:
                    continue
                is_realtime = (
                    head is not None
                    and head.request_class is RequestClass.REALTIME
                )
                if is_realtime == realtime_first:
                    engine.kick(node)

    def _segment_ended(self, flight, end_s: float, lost: bool) -> None:
        """The active runtime's busy-segment observer: price, then free
        the node's busy watts."""
        self.account_segment(flight, end_s, lost)
        self._active.discard(flight.job.job_id)

    def _start(self, node, job: ProofJob) -> None:
        """Start ``job`` on ``node``, recording a queue-reordering pick
        (edd / skip-ahead) if one happened — starting the queue head is
        not a decision."""
        head = node.queue.peek()
        if head is not None and head.job_id != job.job_id:
            self._note_choice(node, job, "skip_ahead")
        self._active.add(job.job_id)
        self._engine.begin(node, job)

    def _note_choice(self, node, job: ProofJob, action: str, *key, **detail) -> bool:
        """Emit one ``scheduler_choice`` unless it repeats the node's last."""
        key = (job.job_id, action, *key)
        if self._last_choice.get(node.node_id) == key:
            return False
        self._last_choice[node.node_id] = key
        self._engine.events.emit(
            "scheduler_choice",
            job_id=job.job_id,
            node_id=node.node_id,
            attempt=job.attempt,
            action=action,
            policy=self.policy,
            **detail,
        )
        return True

    def _note_cap(self, node, job: ProofJob, reason: str) -> None:
        self._engine.events.emit(
            "power_cap",
            job_id=job.job_id,
            node_id=node.node_id,
            attempt=job.attempt,
            reason=reason,
            draw_w=round(self.draw_w(), 6),
        )

    def _power_block(self, node, job: ProofJob) -> None:
        """Handle a start the fleet power cap vetoed.

        Liveness floor: with nothing busy and no parking in flight the
        start proceeds anyway (and is counted as a breach) — a cap that
        can never admit one busy node must not deadlock the fleet.  A
        blocked *realtime* job additionally requests that a running
        deferrable job park at its next phase boundary.
        """
        if not self._active and self._parking is None:
            self.cap_breaches += 1
            self._note_cap(node, job, "floor")
            self._start(node, job)
            return
        key = (job.job_id, "defer")
        if self._last_cap_note.get(node.node_id) != key:
            self._last_cap_note[node.node_id] = key
            self.cap_deferrals += 1
            self._note_cap(node, job, "defer")
        if job.request_class is RequestClass.REALTIME:
            self._request_suspension(node.node_id)

    def _request_suspension(self, beneficiary_id: str) -> None:
        """Park the deferrable flight with the earliest phase boundary.

        At most one parking maneuver is in flight at a time (the next
        blocked start re-requests after it lands), which keeps the
        victim choice a pure function of fleet state — the determinism
        argument for cap-driven preemption.
        """
        if self._parking is not None:
            return
        engine = self._engine
        now = engine.sim.now
        candidates: list[tuple[float, str, int]] = []
        for node_id in sorted(engine.cluster.nodes):
            node = engine.cluster.nodes[node_id]
            flight = node.in_flight
            if node.down or flight is None:
                continue
            if flight.job.request_class is not RequestClass.DEFERRABLE:
                continue
            boundary = self.next_boundary(flight, now)
            if boundary is not None:
                candidates.append((boundary, node_id, flight.job.job_id))
        if not candidates:
            return
        boundary, victim_id, job_id = min(candidates)
        handle = engine.sim.schedule(
            max(boundary, now), self._park, priority=PRIO_START
        )
        self._parking = (handle, victim_id, job_id, beneficiary_id)

    def _park(self) -> None:
        """Fire the scheduled park at the victim's phase boundary."""
        engine = self._engine
        _, victim_id, expected_job, beneficiary_id = self._parking
        self._parking = None
        node = engine.cluster.nodes.get(victim_id)
        flight = node.in_flight if node is not None else None
        if (
            node is None
            or node.down
            or flight is None
            or flight.job.job_id != expected_job
        ):
            # the victim finished, crashed, or swapped jobs meanwhile
            self.capacity_changed()
            return
        now = engine.sim.now
        engine.cancel_finish(node)
        self._segment_ended(flight, now, False)
        node.suspend(now)
        self.suspends += 1
        total = flight.install_s + flight.prove_s
        engine.events.emit(
            "job_suspend",
            job_id=flight.job.job_id,
            node_id=victim_id,
            attempt=flight.job.attempt,
            done_s=round(flight.done_before_s, 6),
            remaining_s=round(total - flight.done_before_s, 6),
        )
        # the beneficiary the headroom was freed for starts first, so a
        # resumed deferrable can never steal it back at this timestamp
        beneficiary = engine.cluster.nodes.get(beneficiary_id)
        if beneficiary is not None:
            engine.kick(beneficiary)
        self.capacity_changed()

    def _resume(self, node, job_id: int) -> None:
        """Unpark a suspended job on its node and re-arm its finish."""
        engine = self._engine
        flight = node.resume(job_id, engine.sim.now)
        self._active.add(job_id)
        self.resumes += 1
        engine.events.emit(
            "job_resume",
            job_id=job_id,
            node_id=node.node_id,
            attempt=flight.job.attempt,
            remaining_s=round(flight.finish_s - flight.start_s, 6),
        )
        engine.finish_at(node, flight)

    # -- the cap's view of the fleet -------------------------------------------
    def draw_w(self, busy: int | None = None) -> float:
        """Fleet draw with ``busy`` nodes proving (default: right now):
        busy rails plus idle draw of the rest of the up nodes."""
        if busy is None:
            busy = len(self._active)
        up_nodes = self._engine.cluster.router.up_count()
        return self.power.busy_w * busy + self.power.idle_w * max(
            0, up_nodes - busy
        )

    def cap_allows(self) -> bool:
        """Whether one more node may go busy under the cap."""
        if self.power_cap_w is None:
            return True
        return self.draw_w(len(self._active) + 1) <= self.power_cap_w + _EPS

    # -- ordering policies ----------------------------------------------------
    def hold_until(self, job: ProofJob, t0: float) -> float | None:
        """Carbon-waiting hold for ``job`` ready at ``t0`` (None = start).

        Only deferrable jobs are ever held; the hold targets the next
        window at or below the low-intensity threshold, bounded by the
        job's deadline slack (cold-start cost reserved) or, with no
        deadline, by ``max_wait_s``.  Returns a strictly-later time or
        None — the engine never re-holds at the same instant, which is
        the loop-freedom argument for the waiting policy.
        """
        if job.request_class is not RequestClass.DEFERRABLE:
            return None
        if self.trace.intensity_at(t0) <= self.threshold_g_per_kwh:
            return None
        if job.deadline_s is not None:
            latest = job.deadline_s - self._time_model.cold_s(job)
            if latest <= t0:
                return None
        else:
            latest = t0 + self.max_wait_s
        start = self.trace.next_low_start(
            t0, self.threshold_g_per_kwh, latest
        )
        if start is None or start <= t0 + _EPS:
            return None
        return start

    def select_job(self, node, *, now_s: float) -> tuple[ProofJob | None, float | None]:
        """``(job to start next, hold-until time or None)`` for a node.

        * ``edd`` — earliest absolute deadline first (deadline-less
          jobs last), ties by job id; never holds.
        * ``carbon_waiting`` — realtime jobs first in queue order
          (never delayed for carbon — a drained backlog of deferrable
          work must not starve them); then the first deferrable job
          with no hold; if every queued job is held, the one whose
          hold fires earliest.
        * ``none`` — plain queue order (cap-only runs land here).
        """
        jobs = node.queue.jobs()
        if not jobs:
            return None, None
        if self.policy == "edd":
            job = min(
                jobs,
                key=lambda j: (
                    j.deadline_s if j.deadline_s is not None else float("inf"),
                    j.job_id,
                ),
            )
            return job, None
        if self.policy == "carbon_waiting":
            for job in jobs:
                if job.request_class is RequestClass.REALTIME:
                    return job, None
            best: tuple[float, int, ProofJob] | None = None
            for job in jobs:
                # the engine's earliest-start rule, never before now
                t0 = max(node.clock_s, job.arrival_s, now_s)
                hold = self.hold_until(job, t0)
                if hold is None:
                    return job, None
                if best is None or (hold, job.job_id) < best[:2]:
                    best = (hold, job.job_id, job)
            assert best is not None
            return best[2], best[0]
        return jobs[0], None

    # -- suspend checkpoints --------------------------------------------------
    def _progress_fractions(self, job: ProofJob) -> tuple[float, ...]:
        """Cumulative prove-progress fractions at interior phase edges.

        Derived once per circuit shape from the modmul split of its
        :class:`~repro.plan.proof_plan.ProofPlan` — the checkpointable
        boundaries of the proof DAG, exclusive of 0 and 1.
        """
        key = (job.circuit.gate_type.name, job.circuit.num_vars)
        cached = self._fractions.get(key)
        if cached is not None:
            return cached
        muls = plan_modmuls(hyperplonk_plan(*key))
        total = sum(muls.values())
        fractions: list[float] = []
        running = 0.0
        for phase_muls in muls.values():
            running += phase_muls
            fraction = running / total
            if _EPS < fraction < 1.0 - _EPS:
                fractions.append(fraction)
        result = tuple(fractions)
        self._fractions[key] = result
        return result

    def next_boundary(self, flight, now_s: float) -> float | None:
        """Model time of the next checkpointable boundary of a flight.

        Progress marks are the end of the install (if any) plus each
        interior plan-phase edge scaled into the prove window.  Returns
        the first mark *strictly ahead* of current progress — so every
        suspension banks at least one phase of work, the termination
        argument for cap-driven preemption — or None when the job is
        already inside its last phase (cheaper to let it finish).
        """
        total = flight.install_s + flight.prove_s
        progress = flight.done_before_s + max(0.0, now_s - flight.start_s)
        marks: list[float] = []
        if flight.install_s > 0.0:
            marks.append(flight.install_s)
        marks.extend(
            flight.install_s + f * flight.prove_s
            for f in self._progress_fractions(flight.job)
        )
        for mark in marks:
            if mark > progress + _EPS and mark < total - _EPS:
                return flight.start_s + (mark - flight.done_before_s)
        return None

    # -- pricing --------------------------------------------------------------
    def account_segment(self, flight, end_s: float, lost: bool = False) -> None:
        """Price one contiguous busy segment ``[flight.start_s, end_s]``.

        The segment's overlap with the job's install window (progress
        ``[0, install_s]``) burns install watts, the rest prove watts;
        carbon integrates the trace over the segment's model-time span.
        Lost (crash-aborted) segments still burned real joules — they
        accrue into the gross totals *and* the ``lost`` slice, which
        :meth:`as_dict` nets out of carbon-per-proof.
        """
        seconds = end_s - flight.start_s
        if seconds <= 0.0:
            return
        done_start = flight.done_before_s
        done_end = done_start + seconds
        install_olap = max(
            0.0, min(done_end, flight.install_s) - min(done_start, flight.install_s)
        )
        energy = (
            install_olap * self.power.install_w
            + (seconds - install_olap) * self.power.prove_w
        )
        carbon = (
            (energy / seconds)
            * self.trace.integral_g_s_per_kwh(flight.start_s, end_s)
            / JOULES_PER_KWH
        )
        self.energy_j += energy
        self.carbon_g += carbon
        if lost:
            self.energy_lost_j += energy
            self.carbon_lost_g += carbon

    def as_dict(self, records, nodes) -> dict:
        """The carbon summary block for :func:`cluster_summary`.

        ``carbon_per_proof_g`` is attributional over *useful* busy work
        (gross minus crash-lost grams, over completed proofs); idle
        draw is reported separately so the policy benches compare how
        schedules move busy seconds, not fleet sizing.
        """
        makespan = max((r.finish_s for r in records), default=0.0)
        idle_s = sum(max(0.0, makespan - node.busy_s) for node in nodes)
        idle_energy = self.power.idle_w * idle_s
        idle_carbon = (
            idle_energy * self.trace.mean_intensity(0.0, makespan)
            / JOULES_PER_KWH
        )
        useful_carbon = self.carbon_g - self.carbon_lost_g
        return {
            "policy": self.policy,
            "power_model": self.power.name,
            "prove_w": round(self.power.prove_w, 6),
            "install_w": round(self.power.install_w, 6),
            "idle_w": round(self.power.idle_w, 6),
            "power_cap_w": self.power_cap_w,
            "low_threshold_g_per_kwh": round(self.threshold_g_per_kwh, 6),
            "trace_base_g_per_kwh": self.trace.base_g_per_kwh,
            "energy_j": round(self.energy_j, 6),
            "carbon_g": round(self.carbon_g, 6),
            "energy_lost_j": round(self.energy_lost_j, 6),
            "carbon_lost_g": round(self.carbon_lost_g, 6),
            "idle_energy_j": round(idle_energy, 6),
            "idle_carbon_g": round(idle_carbon, 6),
            "carbon_per_proof_g": (
                round(useful_carbon / len(records), 6) if records else 0.0
            ),
            "suspends": self.suspends,
            "resumes": self.resumes,
            "held_starts": self.held_starts,
            "cap_deferrals": self.cap_deferrals,
            "cap_breaches": self.cap_breaches,
        }

    def __repr__(self):
        return (
            f"CarbonRuntime(policy={self.policy!r}, "
            f"power={self.power.name!r}, cap={self.power_cap_w}, "
            f"carbon={self.carbon_g:.3f}g)"
        )
