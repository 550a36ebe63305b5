"""Pricing plans: shared modmul formulas and pluggable cost models.

Two layers live here:

* **closed-form op counts** — :func:`sumcheck_modmuls` (the software
  SumCheck multiply count the CPU baseline is calibrated on) and
  :func:`plan_modmuls` (a per-phase software modmul estimate for a whole
  :class:`~repro.plan.proof_plan.ProofPlan`);
* **cost models** — objects with one entry point,
  ``shape_cost_s(gate_type_name, num_vars) -> float``, that the
  cost-aware service scheduler and the workload annotations consume.
  :class:`FunctionalProverCostModel` prices the pure-Python prover the
  service actually runs; :class:`AcceleratorCostModel` wraps the
  ``repro.hw`` model so the same scheduler can plan for
  accelerator-backed fleets.

Per-phase modmul estimates for non-SumCheck phases are deliberately
coarse (MSMs especially: a constant per point).  They exist to *rank*
jobs and budget capacity, not to reproduce paper latencies — the
bit-exact latency path is ``ZkPhireModel.price`` / ``CpuModel.price``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from types import MappingProxyType

from repro.plan.profiles import PolyProfile
from repro.plan.proof_plan import PhaseCost, ProofPlan, hyperplonk_plan


def sumcheck_modmuls(poly: PolyProfile, num_vars: int) -> float:
    """Modular multiplies a software SumCheck performs.

    Per table pair: (d-1) extension muls per distinct MLE, Σ_t deg_t
    product muls per evaluation point across d+1 points, and one update
    mul per distinct MLE.  Total pairs over all rounds = 2^μ - 1 ≈ N.
    """
    d = poly.degree
    uniq = len(poly.unique_mles)
    prod = sum(t.degree for t in poly.terms)
    per_pair = uniq * (d - 1) + (d + 1) * prod + uniq
    pairs = (1 << num_vars) - 1
    return float(per_pair * pairs)


#: modmul-equivalents per MSM point.  A software Pippenger loop costs
#: ~255/13 ≈ 20 window additions per point at ~12 mixed-coordinate muls
#: each (~240); the default is fitted a bit above that to absorb the
#: per-quotient commitment work the KZG openings add on top of the
#: plan's named MSMs.
MSM_MODMULS_PER_POINT = 360.0

#: witness columns are ~90% zero/one (§IV-B3), and the service's
#: fixed-base tables make those commitments cheaper still
SPARSE_MSM_FACTOR = 0.1

#: batch inversion amortizes to ~3 muls per inverted element
BATCH_INVERSE_MULS = 3.0


def phase_modmuls(phase: PhaseCost, num_vars: int) -> float:
    """Software modmul estimate for one plan phase."""
    if phase.kind == "msm":
        return sum(
            t.points * MSM_MODMULS_PER_POINT
            * (SPARSE_MSM_FACTOR if t.sparse else 1.0)
            for t in phase.msms
        )
    if phase.kind == "sumcheck":
        return sumcheck_modmuls(phase.poly, num_vars)
    if phase.kind == "permquot":
        # N/D builds (4 muls/row/column), batched inverse, φ quotient
        return phase.rows * (4.0 * phase.columns + BATCH_INVERSE_MULS + 1.0)
    if phase.kind == "product_tree":
        return float(phase.rows - 1)
    if phase.kind == "batch_eval":
        # one eq build + one table reduction per claim stream
        return 2.0 * phase.streams * phase.rows
    if phase.kind == "mle_combine":
        return float(phase.streams * phase.rows)
    raise ValueError(f"unpriceable phase kind {phase.kind!r}")


def plan_modmuls(plan: ProofPlan) -> dict[str, float]:
    """Per-phase software modmul estimates for a whole plan."""
    return {p.name: phase_modmuls(p, plan.num_vars) for p in plan.phases}


@dataclass
class PlanPrice:
    """A priced plan: seconds per phase (no overlap modelling)."""

    seconds: dict[str, float] = dc_field(default_factory=dict)

    @property
    def total_s(self) -> float:
        """Plain sum over phases (no overlap modelling)."""
        return sum(self.seconds.values())

    def as_dict(self) -> dict[str, float]:
        """Seconds per phase, as a plain dict copy."""
        return dict(self.seconds)


class ShapeCostModel:
    """Base class for cost models keyed by circuit shape.

    Subclasses implement :meth:`plan_cost_s`; results are memoized per
    ``(gate_type_name, num_vars)`` since every plan of one shape prices
    identically.
    """

    def __init__(self):
        self._cache: dict[tuple[str, int], float] = {}

    def plan_cost_s(self, plan: ProofPlan) -> float:  # pragma: no cover
        """Price one plan in this model's seconds (subclass hook)."""
        raise NotImplementedError

    def shape_cost_s(self, gate_type_name: str, num_vars: int) -> float:
        """Memoized :meth:`plan_cost_s` for a (gate type, μ) shape."""
        key = (gate_type_name, num_vars)
        if key not in self._cache:
            self._cache[key] = self.plan_cost_s(
                hyperplonk_plan(gate_type_name, num_vars))
        return self._cache[key]


class OutstandingCost:
    """Predicted outstanding prove-seconds per node, from plan pricing.

    The shared load signal of the fleet layer: the cluster router feeds
    it on every assignment (``add``) and drains it on completion
    (``release``), the ``least_loaded`` policy reads the per-node view,
    and the autoscaler reads the fleet aggregate
    (:meth:`mean_per_node_s`) to decide when predicted backlog per node
    justifies scaling out.  Costs come from any
    :class:`ShapeCostModel` via ``shape_cost_s`` and are therefore pure
    functions of circuit shape — the signal is deterministic for a
    deterministic job stream.
    """

    def __init__(self, model: ShapeCostModel):
        self.model = model
        self._per_node: dict[str, float] = {}
        #: live read-only view of the outstanding seconds per tracked node
        self.node_costs = MappingProxyType(self._per_node)

    def track(self, node_id: str) -> None:
        """Start tracking ``node_id`` (idempotent)."""
        self._per_node.setdefault(node_id, 0.0)

    def drop(self, node_id: str) -> None:
        """Forget ``node_id`` and its outstanding cost entirely."""
        self._per_node.pop(node_id, None)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._per_node

    def job_cost_s(self, job) -> float:
        """Predicted prove seconds for one job's circuit shape."""
        circuit = job.circuit
        return self.model.shape_cost_s(circuit.gate_type.name, circuit.num_vars)

    def add(self, node_id: str, job, cost_s: float | None = None) -> float:
        """Charge ``cost_s`` (default: ``job``'s cost) to ``node_id``; returns it."""
        if node_id not in self._per_node:
            raise KeyError(f"node {node_id!r} is not tracked")
        cost = self.job_cost_s(job) if cost_s is None else cost_s
        self._per_node[node_id] += cost
        return cost

    def release(self, node_id: str, cost_s: float | None = None) -> None:
        """Drop drained cost from ``node_id`` (all of it by default)."""
        if node_id not in self._per_node:
            raise KeyError(f"node {node_id!r} is not tracked")
        if cost_s is None:
            self._per_node[node_id] = 0.0
        else:
            remaining = self._per_node[node_id] - cost_s
            self._per_node[node_id] = max(0.0, remaining)

    def node_s(self, node_id: str) -> float:
        """Outstanding predicted seconds charged to ``node_id``."""
        return self._per_node[node_id]

    @property
    def total_s(self) -> float:
        """Fleet-wide outstanding predicted seconds."""
        return sum(self._per_node.values())

    def mean_per_node_s(self) -> float:
        """The autoscaler signal: total outstanding over tracked nodes."""
        if not self._per_node:
            return 0.0
        return self.total_s / len(self._per_node)

    def __repr__(self):
        return (
            f"OutstandingCost(nodes={len(self._per_node)}, "
            f"total={self.total_s:.4f}s)"
        )


class FunctionalProverCostModel(ShapeCostModel):
    """Predicted wall seconds of the pure-Python ``HyperPlonkProver``.

    Total plan modmuls × an effective per-modmul cost.  The default
    constant folds in everything that rides along with a multiply in the
    functional stack (Python interpreter overhead, EC arithmetic per MSM
    bucket op, hashing); it is fitted to service-measured fused-kernel
    prove times at μ = 3..6 (~25% mean absolute error, monotone in size
    within and across gate families), which is what a shortest-job-first
    ranking and a capacity estimate need.  The service reports
    predicted-vs-actual error so drift stays visible
    (``ServiceMetrics``), and the constant can be re-fitted from any
    measured result set via :meth:`calibrated`.
    """

    def __init__(self, s_per_modmul: float = 3.0e-6):
        super().__init__()
        self.s_per_modmul = s_per_modmul

    def plan_cost_s(self, plan: ProofPlan) -> float:
        """Total plan modmuls at the fitted per-modmul rate."""
        return sum(plan_modmuls(plan).values()) * self.s_per_modmul

    def calibrated(self, shape_seconds: list[tuple[str, int, float]]
                   ) -> "FunctionalProverCostModel":
        """A new model whose constant is the mean implied by measured
        ``(gate_type_name, num_vars, prove_seconds)`` samples."""
        if not shape_seconds:
            raise ValueError("calibration needs at least one sample")
        ratios = []
        for gate, mu, seconds in shape_seconds:
            muls = sum(plan_modmuls(hyperplonk_plan(gate, mu)).values())
            ratios.append(seconds / muls)
        return FunctionalProverCostModel(sum(ratios) / len(ratios))


def preprocess_modmuls(plan: ProofPlan) -> float:
    """Software modmuls of one ``preprocess()`` run for ``plan``'s shape.

    Preprocessing commits every selector and σ table — ``s + k`` dense
    MSMs of ``n`` points each (identities are closed-form and never
    committed; see :func:`repro.hyperplonk.preprocess.preprocess`) —
    priced with the same per-point constant as the plan's named MSMs.
    """
    cols = plan.num_selectors + plan.num_witnesses
    return cols * plan.num_gates * MSM_MODMULS_PER_POINT


class HostIndexInstallModel(ShapeCostModel):
    """Host-side seconds to build + install one circuit index on a node.

    In the fleet framing (DESIGN.md §7) proving is accelerator-resident
    but index *builds* stay on the host CPU: a node whose
    :class:`~repro.service.cache.IndexCache` misses must re-commit the
    circuit's selector and σ tables before it can prove, so a cache miss
    costs host-CPU preprocessing time while a hit costs nothing.  The
    per-modmul constant matches
    :class:`FunctionalProverCostModel`'s default (the same pure-Python
    MSM loops run in both places).
    """

    def __init__(self, s_per_modmul: float = 3.0e-6):
        super().__init__()
        self.s_per_modmul = s_per_modmul

    def plan_cost_s(self, plan: ProofPlan) -> float:
        """Preprocessing MSM modmuls at host-CPU rates."""
        return preprocess_modmuls(plan) * self.s_per_modmul


class AcceleratorCostModel(ShapeCostModel):
    """Plan cost in zkPHIRE seconds (masked schedule included)."""

    def __init__(self, model):
        super().__init__()
        self.model = model  # a repro.hw.accelerator.ZkPhireModel

    def plan_cost_s(self, plan: ProofPlan) -> float:
        """Accelerator latency with the masked overlap schedule."""
        return self.model.price(plan).total
