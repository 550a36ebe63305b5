"""The open-loop cluster engine: pumped arrivals, admission, backpressure.

:class:`OpenLoopEngine` extends the failure-aware
:class:`~repro.cluster.engine.ClusterEngine` with an *arrival pump*: the
next job is pulled from an :class:`~repro.traffic.openloop.OpenLoopTraffic`
stream only when the previous arrival has fired, via the sim core's
allocation-light ``schedule_fast`` path (arrival events are never
cancelled).  A 10⁵–10⁶ job run therefore holds one job ahead of the
clock instead of the whole stream — this is what ROADMAP item 4 calls
"open-loop", and it is also the load pattern that motivated the
engine's fast path in the first place.

On top of the pump:

* **admission** — when an
  :class:`~repro.cluster.admission.AdmissionController` is attached,
  every arrival is admitted or *shed* before routing; shed jobs emit
  ``job_shed`` events and never touch a queue.
* **backpressure** — when an arrival leaves the fleet
  :meth:`~repro.cluster.admission.AdmissionController.overloaded`, the
  pump pauses; the engine's :meth:`~OpenLoopEngine._resolved` hook
  settles each resolved job and resumes the pump once outstanding cost
  is back under the low-water mark.  Pause time becomes *lag*: subsequent
  arrivals (and their deadlines) shift forward by the accumulated
  delay, modelling a source that retries later rather than vanishing.
* **tenancy accounting** — per-tenant offered/shed/completed counters
  and a ``job_id → tenant`` map that
  :func:`~repro.traffic.metrics.traffic_summary` joins against the
  run's records.

Everything else — one price per job, the shared job lifecycle
(:class:`~repro.cluster.records.Dispatcher`: routing, parking, retries),
node churn, autoscaling, the event log — is inherited unchanged from
the closed-loop engine.  So is its ownership rule
(:mod:`repro.cluster.records`): the settle step is an overridden method
and the admission controller is handed the up-node count at each call,
so nothing the run leaves behind (records, event log, the controller)
points back at the engine, and a finished run is freed by reference
counting alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from repro.cluster.admission import AdmissionController, AdmissionPolicy
from repro.cluster.engine import PRIO_ARRIVAL, ClusterEngine
from repro.cluster.nodes import JobRecord
from repro.service.jobs import ProofJob
from repro.traffic.openloop import OpenLoopTraffic
from repro.workloads.churn import ChurnEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.core import ProvingCluster

#: sentinel total while the source is still producing: never "done"
_UNBOUNDED = 1 << 62


def make_admission(
    cluster: "ProvingCluster",
    policy: AdmissionPolicy,
    tenants,
) -> AdmissionController:
    """An admission controller for an open-loop run on ``cluster``.

    The budget tracks ``cluster``'s up-node count, which
    :class:`OpenLoopEngine` reads off the router and passes at each offer
    and settle, so admission and autoscaling reason about the same fleet
    size and the controller keeps no reference to the cluster.
    :class:`OpenLoopEngine` offers each job at its *cold* cost — index
    install plus prove from the fleet time model — because admission
    cannot know whether the target node's cache will hit; under shape
    churn installs dominate node time, so a prove-only price would
    admit far past capacity.
    """
    return AdmissionController(policy, list(tenants))


class OpenLoopEngine(ClusterEngine):
    """One open-loop run over a cluster; see the module docstring."""

    def __init__(
        self,
        cluster: "ProvingCluster",
        traffic: OpenLoopTraffic,
        *,
        admission: AdmissionController | None = None,
    ):
        super().__init__(cluster)
        self.traffic = traffic
        self.admission = admission
        self._job_iter: Iterator[ProofJob] | None = None
        self._next_job: ProofJob | None = None
        self._source_done = False
        self._paused = False
        self._draining = False
        #: cumulative arrival shift from backpressure pauses, seconds
        self.lag_s = 0.0
        self.offered = 0
        self.admitted = 0
        self.pauses = 0
        #: job_id → tenant name, for every offered (not just admitted) job
        self.tenant_of: dict[int, str] = {}
        self.offered_by_tenant: dict[str, int] = {}

    # -- the arrival pump ----------------------------------------------------
    def _pump(self) -> None:
        """Schedule the next arrival (or declare the source done)."""
        if self._next_job is None:
            self._next_job = next(self._job_iter, None)
            if self._next_job is None:
                self._source_done = True
                self._total_jobs = self.admitted
                self._check_done()
                return
        fire = self._next_job.arrival_s + self.lag_s
        if fire < self.sim.now:
            fire = self.sim.now
        self.sim.schedule_fast(fire, self._offer, priority=PRIO_ARRIVAL)

    def _offer(self) -> None:
        """One arrival: lag-shift, admit or shed, route, pump the next."""
        job = self._next_job
        self._next_job = None
        shift = self.sim.now - job.arrival_s
        if shift > 0:
            # backpressure pushed this arrival past its source time;
            # carry the lag so the stream stays causally ordered and
            # deadlines keep their slack relative to actual arrival
            self.lag_s = shift
            if job.deadline_s is not None:
                job.deadline_s += shift
            job.arrival_s = self.sim.now
        self.offered += 1
        self.cluster.check_fits(job)
        job.job_id = self.cluster.next_job_id()
        if job.tenant is not None:
            self.tenant_of[job.job_id] = job.tenant
            self.offered_by_tenant[job.tenant] = (
                self.offered_by_tenant.get(job.tenant, 0) + 1
            )
        install_s, prove_s = self.cluster.time_model.price(job)
        admitted, overloaded = (
            (True, False)
            if self.admission is None
            else self.admission.offer(job, install_s + prove_s, self.router.up_count())
        )
        if admitted:
            self.admitted += 1
            node = self._accept(job, job.job_id, prove_s)
            if node is not None:
                self.kick(node)
        else:
            self.events.emit(
                "job_shed",
                job_id=job.job_id,
                attempt=job.attempt,
                at_s=self.sim.now,
                tenant=job.tenant,
            )
        if overloaded:
            self._paused = True
            self.pauses += 1
            return
        self._pump()

    def _resolved(self, job: ProofJob) -> None:
        """Release ``job``'s admission debt; resume a relieved pump."""
        admission = self.admission
        if admission is None:
            return
        admission.settle(job)
        if (
            self._paused
            and not self._draining
            and admission.relieved(self.router.up_count())
        ):
            self._paused = False
            self._pump()

    # -- entry point ---------------------------------------------------------
    def run_open_loop(
        self, *, churn: Iterable[ChurnEvent] = ()
    ) -> list[JobRecord]:
        """Pump the whole stream through the cluster; returns the records."""
        self._total_jobs = _UNBOUNDED
        self._job_iter = self.traffic.jobs()
        self._start_streams(churn)
        self._pump()
        self.sim.run()
        if not self._source_done:
            # the heap drained with the pump paused and nothing left to
            # settle it (every unresolved job is parked with the fleet
            # down for good): account the stream as truncated here
            self._source_done = True
            self._total_jobs = self.admitted
        self._draining = True
        return self._finalize()
