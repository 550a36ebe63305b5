"""The paper's benchmark workloads (Tables VI/VII/VIII, Fig 13).

Gate counts and measured CPU baselines are taken verbatim from the paper
(they come from libsnark/HyperPlonk workload statistics [1], [9]); the
Jellyfish column shows the gate-count reduction from expressive gates
(§II-C2: up to 32×).  CPU runtimes are the paper's 32-thread EPYC-7502
measurements — we reproduce reported baselines rather than re-measure
(DESIGN.md §2).

The traffic mixes (:data:`SCENARIOS`) name gate families, circuit sizes
and a base rate; classes and deadlines are the job stream's tenants'
(:class:`repro.traffic.OpenLoopTraffic`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    #: log2 gate count with Vanilla gates (None if the paper gives none)
    vanilla_log2: int | None
    #: log2 gate count with Jellyfish gates
    jellyfish_log2: int | None
    #: measured CPU prover time, Vanilla gates, seconds (Table VI)
    cpu_vanilla_s: float | None = None
    #: measured CPU prover time, Jellyfish gates, seconds (Table VII)
    cpu_jellyfish_s: float | None = None

    @property
    def vanilla_gates(self) -> int | None:
        return None if self.vanilla_log2 is None else 1 << self.vanilla_log2

    @property
    def jellyfish_gates(self) -> int | None:
        return None if self.jellyfish_log2 is None else 1 << self.jellyfish_log2


WORKLOADS: list[Workload] = [
    Workload("ZCash", 17, 15, cpu_vanilla_s=1.429, cpu_jellyfish_s=0.701),
    Workload("Auction", 20, None, cpu_vanilla_s=8.619),
    Workload("Rescue Hash", 21, 20, cpu_vanilla_s=18.637, cpu_jellyfish_s=11.532),
    Workload("Zexe", 22, 17, cpu_vanilla_s=37.469, cpu_jellyfish_s=1.951),
    Workload("Rollup 10 Pvt Tx", 23, 18, cpu_vanilla_s=74.052, cpu_jellyfish_s=3.339),
    Workload("Rollup 25 Pvt Tx", 24, 19, cpu_vanilla_s=145.500, cpu_jellyfish_s=6.161),
    Workload("Rollup 50 Pvt Tx", 25, 20, cpu_vanilla_s=325.048, cpu_jellyfish_s=11.533),
    Workload("Rollup 100 Pvt Tx", 26, 21, cpu_vanilla_s=640.987, cpu_jellyfish_s=24.071),
    Workload("Rollup 1600 Pvt Tx", 30, 25, cpu_jellyfish_s=355.406),
    Workload("zkEVM", None, 27, cpu_jellyfish_s=25 * 60.0),
]

#: the Pareto-analysis workload: 2^24 Jellyfish gates, CPU ≈ 182.896 s (§VI-B1)
PARETO_WORKLOAD_LOG2 = 24
PARETO_WORKLOAD_CPU_S = 182.896


def workload_by_name(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name.lower() == name.lower():
            return w
    raise KeyError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# traffic-mix scenarios (proving-service workloads)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrafficScenario:
    """A named proof-serving traffic mix, consumed by
    :class:`repro.traffic.OpenLoopTraffic`.

    Sizes are log2 gate counts at the functional stack's scale (μ ≈ 3–6);
    they stand in for the full-scale catalog entries above the same way
    the protocol tests stand in for 2^24-gate runs (DESIGN.md §1).
    """

    name: str
    description: str
    #: (gate type name, weight) — which gate families requests use
    gate_mix: tuple[tuple[str, float], ...]
    #: (log2 gate count, weight) — the circuit-size distribution
    size_weights: tuple[tuple[int, float], ...]
    #: base arrival rate, requests per second of model time (the
    #: stream's rate unless its caller sets one)
    rate_rps: float

    @property
    def max_log2_gates(self) -> int:
        return max(size for size, _ in self.size_weights)

    def expected_job_cost_s(self, cost_model) -> float:
        """Predicted mean prove cost of one request from this mix.

        ``cost_model`` is any shape-level :mod:`repro.plan` cost model
        (``shape_cost_s(gate_type_name, num_vars) -> float``); the
        expectation runs over the gate and size distributions.
        """
        gate_total = sum(w for _, w in self.gate_mix)
        size_total = sum(w for _, w in self.size_weights)
        return sum(
            (gw / gate_total) * (sw / size_total)
            * cost_model.shape_cost_s(gate, log2)
            for gate, gw in self.gate_mix
            for log2, sw in self.size_weights
        )


SCENARIOS: dict[str, TrafficScenario] = {
    s.name: s
    for s in (
        TrafficScenario(
            name="uniform-small",
            description="steady stream of small Vanilla circuits "
                        "(one dominant circuit shape; cache-friendly)",
            gate_mix=(("vanilla", 1.0),),
            size_weights=((3, 1.0), (4, 1.0)),
            rate_rps=8.0,
        ),
        TrafficScenario(
            name="zipf-mixed",
            description="Zipf-distributed circuit sizes over a "
                        "Vanilla/Jellyfish mix with Poisson arrivals",
            gate_mix=(("vanilla", 0.75), ("jellyfish", 0.25)),
            size_weights=((3, 1.0), (4, 0.5), (5, 0.25), (6, 0.125)),
            rate_rps=4.0,
        ),
        TrafficScenario(
            name="jellyfish-heavy",
            description="larger high-degree Jellyfish circuits at a "
                        "low rate (rollup-style batch proving)",
            gate_mix=(("jellyfish", 1.0),),
            size_weights=((4, 0.5), (5, 0.3), (6, 0.2)),
            rate_rps=2.0,
        ),
    )
}


def scenario_by_name(name: str) -> TrafficScenario:
    try:
        return SCENARIOS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown traffic scenario {name!r}; "
            f"available: {sorted(SCENARIOS)}"
        ) from None


def scenario_cost_annotations(cost_model=None) -> dict[str, float]:
    """Predicted mean per-job prove cost for every named scenario.

    ``cost_model`` defaults to the plan layer's
    :class:`~repro.plan.FunctionalProverCostModel` (the pure-Python
    prover the service runs).  The service CLI prints these so operators
    can see what a scenario costs before serving it.
    """
    if cost_model is None:
        from repro.plan import FunctionalProverCostModel
        cost_model = FunctionalProverCostModel()
    return {
        name: scenario.expected_job_cost_s(cost_model)
        for name, scenario in sorted(SCENARIOS.items())
    }
