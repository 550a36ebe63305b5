"""Model-time accounting for the simulated proving fleet.

The cluster simulation separates *what happens* (real jobs, real caches,
optionally real proofs) from *how long it takes at fleet scale*.  Wall
clock on one laptop cannot show 4 nodes proving concurrently, so each
node keeps a model-time clock advanced by a :class:`FleetTimeModel`:

* **prove seconds** — the plan-priced cost of proving one job on the
  node.  The ``accelerator`` preset prices the paper's zkPHIRE
  exemplar (:class:`~repro.plan.AcceleratorCostModel`); ``functional``
  prices the pure-Python prover the repo actually runs
  (:class:`~repro.plan.FunctionalProverCostModel`, fitted to measured
  prove times).
* **install seconds** — charged when the node's index cache misses:
  host-side preprocessing (committing selector and σ tables) that is
  *not* accelerator-resident (:class:`~repro.plan.HostIndexInstallModel`).

This asymmetry is the serving story of the paper's fleet framing: an
accelerated prove costs far less than rebuilding a circuit index on the
host, so routing that preserves index-cache locality — affinity on the
circuit fingerprint — dominates cost-blind sharding.  It also prices
node failure (DESIGN.md §8): a crash cold-starts the node's index
cache, so the cost of a churn event is exactly the install seconds the
recovered node re-pays on its post-crash misses — no separate restart
constant is needed, the asymmetry *is* the failure cost.  Install pricing
models a *cold* host commit (plain Pippenger per column, no warmed
fixed-base tables), so in the ``functional`` preset installs land at a
few tens of percent of busy time and the policy ranking flips: with
proving itself expensive, load balance matters more than cache locality
— which is the trade-off the cluster benchmark records from both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from repro.plan.cost import (
    AcceleratorCostModel,
    FunctionalProverCostModel,
    HostIndexInstallModel,
    ShapeCostModel,
)
from repro.service.jobs import ProofJob

#: named :class:`FleetTimeModel` presets accepted by the cluster config
TIME_MODEL_PRESETS = ("accelerator", "functional")


@dataclass(frozen=True)
class FleetTimeModel:
    """Pluggable (prove, install) pricing for node model time.

    Frozen: :meth:`price` remembers each circuit's pair, which is sound
    only while the two models cannot be swapped underneath it.
    """

    prove_model: ShapeCostModel
    install_model: ShapeCostModel
    #: preset name (or "custom") carried into summaries
    name: str = "custom"
    #: circuit_key -> (install_s, prove_s), filled by :meth:`price`
    _prices: dict[str, tuple[float, float]] = dc_field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @classmethod
    def accelerator(cls) -> "FleetTimeModel":
        """zkPHIRE-exemplar proving, host-CPU index installs."""
        from repro.hw.accelerator import ZkPhireModel
        from repro.hw.config import AcceleratorConfig

        exemplar = ZkPhireModel(AcceleratorConfig.exemplar())
        return cls(
            prove_model=AcceleratorCostModel(exemplar),
            install_model=HostIndexInstallModel(),
            name="accelerator",
        )

    @classmethod
    def functional(cls) -> "FleetTimeModel":
        """Pure-Python proving and installs (CPU-fleet replay)."""
        return cls(
            prove_model=FunctionalProverCostModel(),
            install_model=HostIndexInstallModel(),
            name="functional",
        )

    @classmethod
    def preset(cls, name: str) -> "FleetTimeModel":
        """Resolve a :data:`TIME_MODEL_PRESETS` name to a model."""
        if name == "accelerator":
            return cls.accelerator()
        if name == "functional":
            return cls.functional()
        raise ValueError(
            f"unknown time model {name!r}; choose from {TIME_MODEL_PRESETS}"
        )

    def price(self, job: ProofJob) -> tuple[float, float]:
        """``(install_s, prove_s)`` model seconds for ``job``'s circuit.

        Install seconds are what a node pays to build + install the
        job's index on a cache miss, prove seconds what it pays on a
        warm node.  Both models are pure functions of the ``(gate, μ)``
        shape, which the circuit fingerprint fixes, so the pair is
        remembered per ``circuit_key``.
        """
        pair = self._prices.get(job.circuit_key)
        if pair is None:
            shape = (job.circuit.gate_type.name, job.circuit.num_vars)
            pair = self._prices[job.circuit_key] = (
                self.install_model.shape_cost_s(*shape),
                self.prove_model.shape_cost_s(*shape),
            )
        return pair

    def cold_s(self, job: ProofJob) -> float:
        """Worst-case (cache-miss) busy seconds: install plus prove."""
        install_s, prove_s = self.price(job)
        return install_s + prove_s
