"""Figure 6: standalone SumCheck speedups over 4-thread CPU across
bandwidth tiers, plus utilization, for Table I polynomials 0-19.

Per bandwidth tier, the DSE picks the best design under the 37 mm² area
budget with the λ = 0.8 objective; we report each polynomial's speedup
against the calibrated 4-thread CPU model and the design's utilization.
Paper geomeans climb from 61× at 64 GB/s to 2209× at 4 TB/s with mean
utilization ≈ 0.4-0.5.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, geomean
from repro.experiments import setups
from repro.hw.area import standalone_sumcheck_area
from repro.hw.cpu_baseline import CpuModel
from repro.hw.dse import sumcheck_dse
from repro.hw.memory import BANDWIDTH_TIERS


def run(fast: bool = True, bandwidths=BANDWIDTH_TIERS) -> ExperimentResult:
    polys = setups.training_set()
    cpu = CpuModel(threads=4)
    cpu_seconds = {
        name: cpu.sumcheck_seconds(poly, mu) for name, poly, mu in polys
    }

    configs = None
    if fast:
        configs = [
            c for c in setups.fast_sc_grid()
            if standalone_sumcheck_area(c, 0.0) <= setups.FIG6_AREA_BUDGET_MM2
        ]

    result = ExperimentResult(
        name="fig06",
        title="Fig 6: SumCheck speedup over 4-thread CPU (polys 0-19)",
        notes="paper geomeans: 61/123/244/485/955/1328/2209x; util ~0.4-0.5",
    )
    for bw in bandwidths:
        best = sumcheck_dse(
            polys, setups.FIG6_AREA_BUDGET_MM2, bw,
            lam=setups.FIG6_LAMBDA, configs=configs,
        )
        speedups = {
            name: cpu_seconds[name] / best.latencies[name]
            for name, _, _ in polys
        }
        gm = geomean(list(speedups.values()))
        result.rows.append({
            "BW (GB/s)": bw,
            "design": (f"{best.config.pes}PE/{best.config.ees_per_pe}EE/"
                       f"{best.config.pls_per_pe}PL"),
            "area (mm2)": best.area_mm2,
            "geomean speedup": gm,
            "mean util": best.mean_utilization,
            "min speedup": min(speedups.values()),
            "max speedup": max(speedups.values()),
        })
        result.summary[f"geomean@{bw}"] = gm
    return result
