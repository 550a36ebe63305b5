"""Figure 12: runtime breakdown, CPU vs zkPHIRE, 2^24 Jellyfish gates.

(a) the CPU's nine-phase split (the paper's measured shares applied to
the 182.9 s total); (b) zkPHIRE's four-phase split at the 2 TB/s
exemplar, shown before ZeroCheck masking as in the paper.
Paper zkPHIRE shares: Witness 7.8%, Gate Identity 21.4%, Wire Identity
37.9%, Batch+Open 33.0%.
"""

from __future__ import annotations

from repro.experiments import setups
from repro.experiments.common import ExperimentResult
from repro.hw.accelerator import ZkPhireModel
from repro.hw.config import AcceleratorConfig
from repro.hw.cpu_baseline import CpuModel
from repro.plan import hyperplonk_plan


def run(fast: bool = True) -> ExperimentResult:
    result = ExperimentResult(
        name="fig12",
        title="Fig 12: runtime breakdown, CPU vs zkPHIRE (2^24 Jellyfish)",
        notes="paper zkPHIRE: witness 7.8 / gate 21.4 / wire 37.9 / "
              "open 33.0 %",
    )
    cpu = CpuModel(threads=32)
    for phase, seconds in cpu.phase_breakdown(setups.PARETO_CPU_S).items():
        result.rows.append({"platform": "CPU", "phase": phase,
                            "time (ms)": seconds * 1e3,
                            "share %": 100 * seconds / setups.PARETO_CPU_S})

    # both platforms price the one shared plan (repro.plan)
    plan = hyperplonk_plan("jellyfish", setups.PARETO_NUM_VARS)
    cfg = AcceleratorConfig.exemplar()
    unmasked = AcceleratorConfig(sumcheck=cfg.sumcheck, msm=cfg.msm,
                                 forest=cfg.forest,
                                 bandwidth_gbps=cfg.bandwidth_gbps,
                                 mask_zerocheck=False)
    bd = ZkPhireModel(unmasked).price(plan)
    phases = bd.phase_groups()
    total = 0.0  # an in-order fold: sum() of floats is compensated from 3.12
    for seconds in phases.values():
        total += seconds
    for phase, seconds in phases.items():
        result.rows.append({"platform": "zkPHIRE", "phase": phase,
                            "time (ms)": seconds * 1e3,
                            "share %": 100 * seconds / total})
        result.summary[f"zkPHIRE {phase} %"] = 100 * seconds / total
    result.summary["zkPHIRE total (ms)"] = total * 1e3
    return result
