"""Figure 10 + Table IV: Pareto frontiers for 2^24 Jellyfish gates.

Sweeps the Table III design space per bandwidth tier, reporting each
tier's Pareto frontier and the global frontier with its labeled designs
(paper Table IV: A 71.4 ms / 599 mm² / 4 TB/s / 2560× down to
G 1716.8 ms / 25 mm² / 128 GB/s / 107×).
"""

from __future__ import annotations

from repro.experiments import setups
from repro.experiments.common import ExperimentResult
from repro.hw.dse import global_pareto


def compute(fast: bool = True):
    """Per-bandwidth Pareto frontiers and the global one, over every
    Table III bandwidth tier."""
    return global_pareto(
        "jellyfish", setups.PARETO_NUM_VARS,
        sc_grid=setups.fast_sc_grid() if fast else None,
        msm_grid=setups.fast_msm_grid() if fast else None,
    )


def run(fast: bool = True) -> ExperimentResult:
    per_bw, global_front = compute(fast)
    result = ExperimentResult(
        name="fig10",
        title="Fig 10: Pareto frontiers, 2^24 Jellyfish gates",
        notes="paper: ~1000x at 207mm2/1TB/s; ~1400x at 294mm2/2TB/s",
    )
    for bw, front in per_bw.items():
        best = min(front, key=lambda p: p.runtime_s)
        result.rows.append({
            "BW (GB/s)": bw,
            "pareto pts": len(front),
            "fastest (ms)": best.runtime_s * 1e3,
            "area (mm2)": best.area_mm2,
            "speedup": setups.PARETO_CPU_S / best.runtime_s,
        })
    result.summary["global pareto points"] = len(global_front)
    best = min(global_front, key=lambda p: p.runtime_s)
    result.summary["best speedup"] = setups.PARETO_CPU_S / best.runtime_s
    # stash for table04/fig11 reuse
    result.summary["_global_front"] = global_front
    result.summary["_per_bw"] = per_bw
    return result
