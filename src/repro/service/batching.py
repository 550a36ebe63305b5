"""Batch planning: order pending jobs, then group by circuit structure.

Batches only group and order jobs: every job in a batch shares one
circuit fingerprint, and its members drain back to back, so a proving
worker — which looks the index up in its
:class:`~repro.service.cache.IndexCache` once a job — preprocesses a
batch's circuit at most once.

Ordering is policy-driven (:func:`order_jobs`):

* ``fifo`` — the original drain order: real-time class before
  deferrable, then priority, then arrival;
* ``sjf`` — shortest job first *within* each class: jobs with the
  smallest predicted prove cost (from a :mod:`repro.plan` cost model)
  drain first, so one expensive request stops inflating every cheap
  request's latency;
* ``deadline`` — earliest-deadline-first for the real-time class
  (deadlines dominate; priority and predicted cost only break ties, and
  jobs without a deadline sort last); deferrable jobs follow in
  shortest-job-first order.

Batches are emitted in the order of their best-ranked member.  Grouping
deliberately lets a deferrable job ride along in a batch anchored by a
real-time job with the same circuit — batching it early is strictly
cheaper than draining it later, when its index may have been evicted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.service.jobs import ProofJob, RequestClass

#: drain-policy names accepted by :func:`order_jobs` / ``ServiceConfig``
DRAIN_POLICIES = ("fifo", "sjf", "deadline")

#: a job-level predicted-cost callback (seconds); see
#: :class:`repro.service.costing.JobCostModel`
CostFn = Callable[[ProofJob], float]


@dataclass
class Batch:
    """Jobs sharing one circuit fingerprint (hence one prover index),
    drained back to back."""

    circuit_key: str
    jobs: list[ProofJob]

    def __len__(self) -> int:
        return len(self.jobs)

    @property
    def predicted_cost_s(self) -> float | None:
        """Sum of member predictions (None when any member lacks one)."""
        costs = [j.predicted_cost_s for j in self.jobs]
        if any(c is None for c in costs):
            return None
        return sum(costs)


def order_jobs(jobs: list[ProofJob], policy: str = "fifo",
               cost_fn: CostFn | None = None) -> list[ProofJob]:
    """Sort ``jobs`` into drain order under ``policy`` (deterministic:
    ties always break by arrival then job id)."""
    if policy not in DRAIN_POLICIES:
        raise ValueError(
            f"unknown drain policy {policy!r}; choose from {DRAIN_POLICIES}"
        )
    if policy == "fifo":
        return sorted(jobs, key=ProofJob.sort_key)
    if cost_fn is None:
        raise ValueError(f"the {policy!r} drain policy needs a cost_fn")

    def key(job: ProofJob) -> tuple:
        realtime = job.request_class is RequestClass.REALTIME
        cost = float(cost_fn(job))
        if policy == "deadline" and realtime:
            # EDF: the deadline outranks priority (a distant-deadline
            # job must not starve an imminent one, whatever its
            # priority); priority and cost only break ties
            deadline = (job.deadline_s if job.deadline_s is not None
                        else math.inf)
            return (0, deadline, -job.priority, cost,
                    job.arrival_s, job.job_id)
        # sjf for both classes; deadline's deferrable tail is sjf
        return (0 if realtime else 1, -job.priority, cost, 0.0,
                job.arrival_s, job.job_id)

    return sorted(jobs, key=key)


def plan_batches(
    jobs: list[ProofJob], *,
    policy: str = "fifo", cost_fn: CostFn | None = None,
) -> list[Batch]:
    """Deterministically partition ``jobs`` into same-circuit batches;
    ``policy`` / ``cost_fn`` select the drain order (see
    :func:`order_jobs`)."""
    groups: dict[str, list[ProofJob]] = {}
    for job in order_jobs(jobs, policy, cost_fn):
        # dict preserves first-appearance (i.e. rank) order
        groups.setdefault(job.circuit_key, []).append(job)
    return [Batch(key, members) for key, members in groups.items()]
