"""Admission control: shed load before the queues eat the SLOs.

An open-loop source keeps sending whether or not the fleet can keep up;
without a gate, overload turns into unbounded queues and every tenant's
tail latency dies together.  :class:`AdmissionController` bounds the
fleet's *predicted outstanding cost* — the same plan-derived
seconds-of-work signal the ``least_loaded`` router and the autoscaler
already use — against a capacity budget::

    budget_s = window_s * headroom * max(1, up_nodes)

i.e. "the work the up fleet can finish in one ``window_s``".  A job is
admitted only while

* the fleet-wide admitted-but-unfinished cost stays inside the job's
  *tier* cap (``budget_s × tier.admission_factor`` — bronze caps out
  before silver before gold, so lower tiers shed first), and
* the tenant's own outstanding cost stays inside its quota
  (``budget_s × quota_fraction``), so one tenant cannot occupy the
  whole budget even inside its tier.

Rejected jobs are *shed*: counted per tenant, logged as ``job_shed``
events, and never queued.  The controller also drives backpressure into
the traffic generator: :meth:`overloaded` (outstanding above
``backpressure_high × budget``) tells the open-loop engine to pause the
arrival pump, :meth:`relieved` (below ``backpressure_low × budget``) to
resume it.

The controller keeps its own outstanding ledger (settled by the engine
on completion or failure) instead of reading the router's, because the
router zeroes a node's cost on crash — admission debt must survive
reassignment or shedding would over-admit during churn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only (and import-cycle
    # guard: repro.traffic imports this module back through its engine)
    from repro.service.jobs import ProofJob
    from repro.traffic.tenants import TenantSpec


@dataclass(frozen=True)
class AdmissionPolicy:
    """Knobs for :class:`AdmissionController` (all in model seconds)."""

    #: the budget horizon: admit up to ``window_s`` of predicted work
    #: per up node
    window_s: float = 10.0
    #: scale on the budget; < 1 leaves slack for prediction error
    headroom: float = 1.0
    #: pause the generator above this multiple of the budget
    backpressure_high: float = 1.5
    #: resume the generator below this multiple of the budget
    backpressure_low: float = 0.75

    def __post_init__(self):
        if self.window_s <= 0:
            raise ValueError(f"window_s must be > 0; got {self.window_s}")
        if self.headroom <= 0:
            raise ValueError(f"headroom must be > 0; got {self.headroom}")
        if not 0 < self.backpressure_low < self.backpressure_high:
            raise ValueError(
                "need 0 < backpressure_low < backpressure_high; got "
                f"{self.backpressure_low} / {self.backpressure_high}"
            )


class AdmissionController:
    """Budgeted admission + per-tenant quotas; see the module docstring.

    :meth:`offer` takes each job's price from the caller (the open-loop
    engine charges the time model's install + prove seconds), and every
    budget question takes the fleet's current up-node count from the
    caller too, so the budget tracks churn and autoscaling while the
    controller holds no reference to the fleet.
    """

    def __init__(self, policy: AdmissionPolicy, tenants: list[TenantSpec]):
        if not tenants:
            raise ValueError("admission needs at least one tenant")
        self.policy = policy
        self.tenants = {t.name: t for t in tenants}
        if len(self.tenants) != len(tenants):
            raise ValueError("tenant names must be unique")
        #: admitted-but-unfinished predicted seconds, fleet-wide
        self.outstanding_s = 0.0
        self._by_tenant_s: dict[str, float] = {t.name: 0.0 for t in tenants}
        self._cost_by_job: dict[int, float] = {}
        self.admitted = 0
        self.shed = 0
        self.shed_by_tenant: dict[str, int] = {t.name: 0 for t in tenants}

    # -- budget --------------------------------------------------------------
    def budget_s(self, up_nodes: int) -> float:
        """Seconds of predicted work a fleet of ``up_nodes`` up nodes may
        hold."""
        return self.policy.window_s * self.policy.headroom * max(1, up_nodes)

    # -- decisions -----------------------------------------------------------
    def offer(self, job: "ProofJob", cost_s: float, up_nodes: int) -> tuple[bool, bool]:
        """Admit or shed ``job`` at ``cost_s`` (admitted jobs charge the
        ledgers) with ``up_nodes`` up, then say if the fleet is
        :meth:`overloaded`: ``(admitted, overloaded)`` on one budget."""
        tenant = self.tenants.get(job.tenant or "")
        if tenant is None:
            raise KeyError(f"job {job.job_id} has unknown tenant {job.tenant!r}")
        budget = self.budget_s(up_nodes)
        name = tenant.name
        admitted = not (
            self.outstanding_s + cost_s > budget * tenant.tier.admission_factor
            or self._by_tenant_s[name] + cost_s > budget * tenant.quota_fraction
        )
        if admitted:
            self.admitted += 1
            self.outstanding_s += cost_s
            self._by_tenant_s[name] += cost_s
            self._cost_by_job[job.job_id] = cost_s
        else:
            self.shed += 1
            self.shed_by_tenant[name] += 1
        overloaded = self.outstanding_s > self.policy.backpressure_high * budget
        return admitted, overloaded

    def settle(self, job: "ProofJob") -> None:
        """Release ``job``'s charge after it completed or failed.

        Idempotent per job (retries resolve a job once), and a no-op
        for jobs this controller never admitted.
        """
        cost = self._cost_by_job.pop(job.job_id, None)
        if cost is None:
            return
        self.outstanding_s = max(0.0, self.outstanding_s - cost)
        name = (job.tenant or "") if job.tenant in self.tenants else None
        if name is not None:
            self._by_tenant_s[name] = max(0.0, self._by_tenant_s[name] - cost)

    # -- backpressure --------------------------------------------------------
    def overloaded(self, up_nodes: int) -> bool:
        """True when the generator should pause (outstanding too high)."""
        return (
            self.outstanding_s > self.policy.backpressure_high * self.budget_s(up_nodes)
        )

    def relieved(self, up_nodes: int) -> bool:
        """True when a paused generator may resume."""
        return (
            self.outstanding_s < self.policy.backpressure_low * self.budget_s(up_nodes)
        )

    # -- reporting -----------------------------------------------------------
    def as_dict(self) -> dict:
        """The ``admission`` section of a traffic summary."""
        offered = self.admitted + self.shed
        return {
            "policy": {
                "window_s": self.policy.window_s,
                "headroom": self.policy.headroom,
                "backpressure_high": self.policy.backpressure_high,
                "backpressure_low": self.policy.backpressure_low,
            },
            "offered": offered,
            "admitted": self.admitted,
            "shed": self.shed,
            "shed_rate": round(self.shed / offered, 4) if offered else 0.0,
            "shed_by_tenant": dict(sorted(self.shed_by_tenant.items())),
        }

    def __repr__(self):
        return (
            f"AdmissionController(outstanding={self.outstanding_s:.3f}s, "
            f"admitted={self.admitted}, shed={self.shed})"
        )
