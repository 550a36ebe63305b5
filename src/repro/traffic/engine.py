"""The open-loop cluster engine: admission and backpressure on arrival.

:class:`OpenLoopEngine` is the failure-aware
:class:`~repro.cluster.engine.ClusterEngine` with a filter on each
arrival.  Its :class:`~repro.traffic.openloop.OpenLoopTraffic` stream
comes through the arrival pump every run uses
(:class:`~repro.cluster.records.Dispatcher`), so a 10⁵–10⁶ job run
never holds the whole stream.  The filter:

* **admission** — with an
  :class:`~repro.cluster.admission.AdmissionController` attached, every
  arrival is admitted or *shed* (a ``job_shed`` event, never queued).
* **backpressure** — an arrival that leaves the fleet
  :meth:`~repro.cluster.admission.AdmissionController.overloaded` holds
  the pump after its instant; :meth:`~OpenLoopEngine._resolved` settles
  each resolved job and releases the pump once outstanding cost is under
  the low-water mark.  Pause time becomes *lag*: later arrivals (and
  their deadlines) shift forward, a source that retries rather than
  vanishes.
* **tenancy accounting** — per-tenant offered counters (a shed job
  leaves no record); completions are counted off the records, which
  name their tenant.

Everything else is the closed-loop engine's, ownership rule included
(:mod:`repro.cluster.records`): the controller gets the up-node count
as a call argument, so it keeps no reference to the engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.cluster.admission import AdmissionController, AdmissionPolicy
from repro.cluster.engine import ClusterEngine
from repro.cluster.nodes import JobRecord
from repro.service.jobs import ProofJob
from repro.traffic.openloop import OpenLoopTraffic
from repro.workloads.churn import ChurnEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.core import ProvingCluster


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
        self.offered = 0
        self.pauses = 0
        self.offered_by_tenant: dict[str, int] = {}

    @property
    def admitted(self) -> int:
        """Jobs admitted (accepted) so far."""
        return self._accepted

    def _offer(self, job: ProofJob):
        """One arrival: lag-shift, count, then admit and route or shed;
        an arrival that overloads the fleet holds the pump."""
        now = self.sim.now
        shift = now - job.arrival_s
        if shift > 0:
            # backpressure pushed this arrival past its source time;
            # carry the lag so the stream stays causally ordered and
            # deadlines keep their slack relative to actual arrival
            self.lag_s = shift
            if job.deadline_s is not None:
                job.deadline_s += shift
            job.arrival_s = now
        self.offered += 1
        self.cluster.check_fits(job)
        job.job_id = self._next_job_id()
        if job.tenant is not None:
            self.offered_by_tenant[job.tenant] = (
                self.offered_by_tenant.get(job.tenant, 0) + 1
            )
        install_s, prove_s = self.time_model.price(job)
        admitted, overloaded = (
            (True, False)
            if self.admission is None
            else self.admission.offer(job, install_s + prove_s, self.router.up_count())
        )
        if overloaded and not self._paused:
            self._paused = True
            self.pauses += 1
        if admitted:
            return self._accept(job, job.job_id, prove_s)
        self.events.emit(
            "job_shed",
            job_id=job.job_id,
            attempt=job.attempt,
            at_s=now,
            tenant=job.tenant,
        )
        return None

    def _resolved(self, job: ProofJob) -> None:
        """Release ``job``'s admission debt; release a relieved pump."""
        admission = self.admission
        if admission is None:
            return
        admission.settle(job)
        if self._paused and admission.relieved(self.router.up_count()):
            self._paused = False
            self._pump()

    def run_open_loop(
        self, *, churn: Iterable[ChurnEvent] = ()
    ) -> list[JobRecord]:
        """:meth:`run` over the whole traffic stream; returns the records."""
        return self.run(self.traffic.jobs(), churn=churn)
