"""The shared proof-cost plan layer (DESIGN.md §6).

One declarative description of the work inside a HyperPlonk proof —
:class:`ProofPlan`, a DAG of :class:`PhaseCost` nodes sized from the
circuit shape — priced by every consumer instead of re-derived by each:

* ``repro.hw.accelerator.ZkPhireModel.price(plan)`` → accelerator
  latency (the Table VI/VII numbers);
* ``repro.hw.cpu_baseline.CpuModel.price(plan)`` → calibrated CPU
  seconds per phase;
* :class:`FunctionalProverCostModel` → predicted pure-Python prove
  seconds, driving the service's cost-aware (SJF / deadline) drain
  policies and the ``repro.workloads`` scenario cost annotations;
* :meth:`ProofPlan.predicted_prover_ops` → the exact
  :class:`~repro.fields.counters.OpCounter` tallies an instrumented
  ``HyperPlonkProver.prove()`` produces (the layer's semantic anchor).
"""

from repro.plan.cost import (
    AcceleratorCostModel,
    FunctionalProverCostModel,
    HostIndexInstallModel,
    OutstandingCost,
    PlanPrice,
    ShapeCostModel,
    phase_modmuls,
    plan_modmuls,
    preprocess_modmuls,
    sumcheck_modmuls,
)
from repro.plan.profiles import FR_NAME, PolyProfile, TermProfile
from repro.plan.proof_plan import (
    HYPERPLONK_PHASES,
    MSMTask,
    OPENCHECK_POINTS,
    PHASE_KINDS,
    PhaseCost,
    PlanOps,
    ProofPlan,
    gate_type_by_name,
    hyperplonk_plan,
    opencheck_profile,
)

__all__ = [
    "AcceleratorCostModel",
    "FR_NAME",
    "FunctionalProverCostModel",
    "HYPERPLONK_PHASES",
    "HostIndexInstallModel",
    "MSMTask",
    "OPENCHECK_POINTS",
    "OutstandingCost",
    "PHASE_KINDS",
    "PhaseCost",
    "PlanOps",
    "PlanPrice",
    "PolyProfile",
    "ProofPlan",
    "ShapeCostModel",
    "TermProfile",
    "gate_type_by_name",
    "hyperplonk_plan",
    "opencheck_profile",
    "phase_modmuls",
    "plan_modmuls",
    "preprocess_modmuls",
    "sumcheck_modmuls",
]
