"""Open-loop, multi-tenant traffic for the proving cluster.

The :mod:`repro.service.traffic` generator builds closed batches — every
job materialized up front, drained to completion.  This package models
the other regime: an *open-loop* source that keeps sending at 10⁵–10⁶
job scale whether or not the fleet keeps up, with tenants, SLO tiers,
admission control, and backpressure.

* :mod:`repro.traffic.tenants` — SLO tiers (gold/silver/bronze) and
  weighted tenant populations;
* :mod:`repro.traffic.openloop` — seeded diurnal + bursty Poisson
  arrival streams and the shared circuit-shape cache;
* :mod:`repro.traffic.engine` — :class:`OpenLoopEngine`, the
  failure-aware cluster engine with admission
  (:mod:`repro.cluster.admission`) and backpressure on each arrival;
* :mod:`repro.traffic.metrics` — goodput, shed rate, tail latency, and
  Jain fairness summaries.
"""

from repro.traffic.engine import OpenLoopEngine, make_admission
from repro.traffic.metrics import jain_fairness, traffic_summary
from repro.traffic.openloop import CircuitShapeCache, OpenLoopTraffic
from repro.traffic.tenants import (
    SLO_TIERS,
    SLOTier,
    TenantSpec,
    default_tenants,
)

__all__ = [
    "SLO_TIERS",
    "CircuitShapeCache",
    "OpenLoopEngine",
    "OpenLoopTraffic",
    "SLOTier",
    "TenantSpec",
    "default_tenants",
    "jain_fairness",
    "make_admission",
    "traffic_summary",
]
