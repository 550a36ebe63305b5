"""Seeded node crash/recovery churn traces for the fleet simulation.

A churn trace is a pre-computed, fully deterministic list of
:class:`ChurnEvent`\\ s (crash or recovery of one node index at one
model time), replayed into the cluster's event engine through a
:class:`~repro.sim.sources.TraceSource`.  Traces are generated per node
from an alternating exponential up/down process — mean time to failure
``mttf_s``, mean time to repair ``mttr_s`` — so the long-run fraction
of node-time spent down is ``mttr / (mttf + mttr)``.

Each node's stream seeds its own :class:`random.Random` from
``(seed, node_index)``, so a trace is reproducible across runs and
machines and does not change for existing nodes when the fleet grows.
The named :data:`CHURN_SCENARIOS` presets give the benchmark and CLI a
shared vocabulary ("light" ≈ 6% downtime, "moderate" ≈ 20%,
"heavy" ≈ 33%).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: event kinds carried by a churn trace
CHURN_KINDS = ("crash", "recover")

#: model seconds of churn horizon granted past a stream's last arrival
CHURN_HORIZON_SLACK_S = 8.0


@dataclass(frozen=True)
class ChurnEvent:
    """One node state flip at one model time."""

    #: model time of the flip, seconds
    at_s: float
    #: index into the cluster's *initial* node list (node-0, node-1, …)
    node_index: int
    #: ``"crash"`` or ``"recover"``
    kind: str

    def __post_init__(self):
        if self.kind not in CHURN_KINDS:
            raise ValueError(
                f"unknown churn kind {self.kind!r}; choose from {CHURN_KINDS}"
            )
        if self.at_s < 0:
            raise ValueError(f"at_s must be >= 0, got {self.at_s}")


@dataclass(frozen=True)
class ChurnScenario:
    """A named (MTTF, MTTR) churn regime."""

    name: str
    description: str
    #: mean model seconds a node stays up between crashes
    mttf_s: float
    #: mean model seconds a crashed node stays down
    mttr_s: float

    def __post_init__(self):
        if self.mttf_s <= 0 or self.mttr_s <= 0:
            raise ValueError("mttf_s and mttr_s must be > 0")

    @property
    def downtime_fraction(self) -> float:
        """Long-run fraction of node-time spent down."""
        return self.mttr_s / (self.mttf_s + self.mttr_s)

    def trace(
        self, num_nodes: int, horizon_s: float, *, seed: int = 0
    ) -> list[ChurnEvent]:
        """The scenario's deterministic trace for one fleet and horizon."""
        return churn_trace(
            num_nodes,
            horizon_s,
            mttf_s=self.mttf_s,
            mttr_s=self.mttr_s,
            seed=seed,
        )


CHURN_SCENARIOS: dict[str, ChurnScenario] = {
    s.name: s
    for s in (
        ChurnScenario(
            name="light",
            description="rare crashes, fast repairs (~6% node downtime)",
            mttf_s=32.0,
            mttr_s=2.0,
        ),
        ChurnScenario(
            name="moderate",
            description="the benchmark regime: ~20% node downtime",
            mttf_s=8.0,
            mttr_s=2.0,
        ),
        ChurnScenario(
            name="heavy",
            description="crash-looping fleet (~33% node downtime)",
            mttf_s=4.0,
            mttr_s=2.0,
        ),
    )
}


def churn_trace(
    num_nodes: int,
    horizon_s: float,
    *,
    mttf_s: float,
    mttr_s: float,
    seed: int = 0,
) -> list[ChurnEvent]:
    """Generate one deterministic crash/recovery trace.

    Every node alternates exponential up/down intervals; node streams
    are independently seeded from ``(seed, node_index)`` so the trace
    for node *i* never changes when ``num_nodes`` grows.  Events come
    back sorted by ``(at_s, node_index)``; a crash whose recovery would
    land past the horizon is still emitted (the node simply stays down
    to the end of the run).
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    if horizon_s < 0:
        raise ValueError("horizon_s must be >= 0")
    if mttf_s <= 0 or mttr_s <= 0:
        raise ValueError("mttf_s and mttr_s must be > 0")
    events: list[ChurnEvent] = []
    for node_index in range(num_nodes):
        rng = random.Random(f"churn/{seed}/{node_index}")
        t = rng.expovariate(1.0 / mttf_s)
        while t < horizon_s:
            events.append(ChurnEvent(t, node_index, "crash"))
            recover_at = t + rng.expovariate(1.0 / mttr_s)
            if recover_at >= horizon_s:
                break
            events.append(ChurnEvent(recover_at, node_index, "recover"))
            t = recover_at + rng.expovariate(1.0 / mttf_s)
    events.sort(key=lambda e: (e.at_s, e.node_index))
    return events


def trace_for_downtime(
    num_nodes: int,
    horizon_s: float,
    *,
    downtime_fraction: float,
    mttr_s: float = 2.0,
    seed: int = 0,
) -> list[ChurnEvent]:
    """A trace targeting a long-run node downtime fraction.

    Derives ``mttf = mttr * (1 - f) / f`` from the target fraction
    ``f`` — the parameterization the ``repro-cluster --churn-rate`` flag
    exposes.  ``downtime_fraction = 0`` returns an empty trace.
    """
    if not 0 <= downtime_fraction < 1:
        raise ValueError(
            f"downtime_fraction must be in [0, 1), got {downtime_fraction}"
        )
    if downtime_fraction == 0:
        return []
    mttf_s = mttr_s * (1.0 - downtime_fraction) / downtime_fraction
    return churn_trace(
        num_nodes, horizon_s, mttf_s=mttf_s, mttr_s=mttr_s, seed=seed
    )
