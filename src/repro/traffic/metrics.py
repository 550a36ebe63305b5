"""Open-loop traffic measurement: goodput, shedding, tail, fairness.

Closed-batch summaries (:func:`repro.cluster.metrics.cluster_summary`)
ask "how fast did the fleet drain N jobs"; an open-loop run under
admission control needs different headlines:

* **goodput** — completions that met their SLO per model second; the
  number admission control exists to protect (raw throughput can look
  great while every deadline burns);
* **shed rate** — offered jobs rejected at admission, overall and per
  tenant (who pays for overload);
* **tail latency** — p50/p95/p99/p99.9 via the sort-once
  :func:`~repro.service.metrics.latency_tail` (at 10⁵ samples the p99.9
  is finally a statistic, not noise);
* **Jain fairness** — :func:`jain_fairness` over weight-normalized
  per-tenant SLO-met completions: 1.0 means every tenant got goodput
  proportional to its traffic share, 1/n means one tenant took it all.
"""

from __future__ import annotations

from repro.cluster.metrics import records_summary
from repro.traffic.engine import OpenLoopEngine


def jain_fairness(values: list[float]) -> float:
    """Jain's fairness index: ``(Σx)² / (n · Σx²)``, in ``(0, 1]``.

    Defined as 1.0 for empty or all-zero allocations (nothing was
    unfairly divided).
    """
    xs = list(values)
    square_sum = sum(x * x for x in xs)
    if not xs or square_sum == 0.0:
        return 1.0
    total = sum(xs)
    return (total * total) / (len(xs) * square_sum)


def traffic_summary(engine: OpenLoopEngine) -> dict:
    """One summary dict over a finished open-loop run."""
    records = engine.records
    traffic = engine.traffic
    # goodput divides by the unrounded makespan
    makespan = max((r.finish_s for r in records), default=0.0)
    model = records_summary(records, ("p50", "p95", "p99", "p99_9"))
    # the tail closes the model block, after the SLO counts
    tail = model.pop("latency_s")
    slo_met = sum(1 for r in records if not r.missed_deadline)

    tenants = {t.name: t for t in traffic.tenants}
    completed_by_tenant = {name: 0 for name in tenants}
    slo_met_by_tenant = {name: 0 for name in tenants}
    for record in records:
        name = record.tenant
        if name is None:
            continue
        completed_by_tenant[name] += 1
        if not record.missed_deadline:
            slo_met_by_tenant[name] += 1

    shed_by_tenant = (
        engine.admission.shed_by_tenant
        if engine.admission is not None
        else {name: 0 for name in tenants}
    )
    shed = engine.offered - engine.admitted
    # fairness over SLO-met completions normalized by traffic weight:
    # a tenant that offered twice the traffic deserves twice the goodput
    normalized = [
        slo_met_by_tenant[name] / tenant.weight
        for name, tenant in sorted(tenants.items())
    ]
    doc = {
        "offered": engine.offered,
        "admitted": engine.admitted,
        "shed": shed,
        "shed_rate": round(shed / engine.offered, 4) if engine.offered else 0.0,
        "completed": len(records),
        "failed": len(engine.failed_jobs),
        "pauses": engine.pauses,
        "lag_s": round(engine.lag_s, 6),
        "model": {
            **model,
            "goodput_jobs_per_s": (
                round(slo_met / makespan, 3) if makespan > 0 else 0.0
            ),
            "slo_met": slo_met,
            "slo_attainment": (
                round(slo_met / len(records), 4) if records else 0.0
            ),
            "latency_s": tail,
        },
        "jain_fairness": round(jain_fairness(normalized), 4),
        "tenants": [
            {
                "tenant": name,
                "tier": tenant.tier.name,
                "weight": round(tenant.weight, 4),
                "offered": engine.offered_by_tenant.get(name, 0),
                "shed": shed_by_tenant.get(name, 0),
                "completed": completed_by_tenant[name],
                "slo_met": slo_met_by_tenant[name],
            }
            for name, tenant in sorted(tenants.items())
        ],
    }
    if engine.admission is not None:
        doc["admission"] = engine.admission.as_dict()
    if engine.carbon is not None:
        doc["carbon"] = engine.carbon.as_dict(
            records, engine.cluster._all_nodes()
        )
    return doc
