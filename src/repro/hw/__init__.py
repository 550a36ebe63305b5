"""The zkPHIRE hardware performance, area, and power model.

This package is the quantitative heart of the reproduction: analytical
models of every zkPHIRE module, mirroring the paper's own methodology
(§V: HLS-extracted per-module cycle behaviour composed into analytical
simulators with bandwidth constraints).

Modules
-------
``tech``            published area/power constants, 22nm→7nm scaling
``config``          hardware configuration dataclasses (Table III knobs)
``scheduler``       the Figure-2 graph-decomposition scheduler
``sumcheck_unit``   SumCheck unit latency/utilization model (zkPHIRE, zkSpeed)
``msm_unit``        Pippenger MSM unit model
``forest``          Multifunction Forest (tree reduction) model
``permquot``        Permutation Quotient Generator model
``mle_combine``     element-wise / dot-product module model
``memory``          bandwidth tiers, PHY selection, SRAM sizing
``area`` / ``power`` per-module rollups (Table V)
``cpu_baseline``    CPU cost model calibrated to the paper's runtimes
``gpu_baseline``    A100/ICICLE reference numbers (Table II)
``zkspeed``         zkSpeed / zkSpeed+ as two SumCheck-unit configurations
``accelerator``     full-protocol schedule incl. ZeroCheck masking
``dse``             design-space exploration and Pareto frontiers

The protocol *inventory* (which MSMs/SumChecks/Forest passes one proof
performs) lives in the shared plan layer: ``ZkPhireModel.price(plan)``
and ``CpuModel.price(plan)`` price a :class:`repro.plan.ProofPlan`, and
``breakdown()`` is the shape-level convenience that builds the canonical
plan first (DESIGN.md §6).
"""

from repro.hw.config import (
    AcceleratorConfig,
    ForestConfig,
    MSMUnitConfig,
    PermQuotConfig,
    SumCheckUnitConfig,
)
from repro.hw.scheduler import PolynomialSchedule, schedule_polynomial
from repro.hw.sumcheck_unit import SumCheckUnitModel, SumCheckRun
from repro.hw.msm_unit import MSMUnitModel
from repro.hw.forest import ForestModel
from repro.hw.accelerator import ZkPhireModel, ProtocolBreakdown
from repro.hw.cpu_baseline import CpuModel
from repro.hw.dse import DesignPoint, pareto_frontier

__all__ = [
    "AcceleratorConfig",
    "ForestConfig",
    "MSMUnitConfig",
    "PermQuotConfig",
    "SumCheckUnitConfig",
    "PolynomialSchedule",
    "schedule_polynomial",
    "SumCheckUnitModel",
    "SumCheckRun",
    "MSMUnitModel",
    "ForestModel",
    "ZkPhireModel",
    "ProtocolBreakdown",
    "CpuModel",
    "DesignPoint",
    "pareto_frontier",
]
