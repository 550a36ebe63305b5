"""Design-space exploration (§VI-A1 objective, §VI-B1 Pareto frontiers).

Two DSE entry points:

* :func:`sumcheck_dse` — the standalone SumCheck-unit search of Fig 6:
  pick, per bandwidth tier and area budget, the configuration minimizing
  (1-λ)·geomean-slowdown + λ·(1-mean-utilization) over a polynomial
  training set (λ = 0.8 in the paper).
* :func:`accelerator_dse` — the full-system sweep of Table III for
  Fig 10/Table IV, factored: each SumCheck and each MSM configuration is
  priced once (the phases it alone decides, its true share of the
  area), dominated side configurations are dropped, and the survivors
  are crossed by composing a
  :class:`~repro.hw.accelerator.ProtocolBreakdown` from the parts and
  the total area from each side's module areas and SRAM bytes, in
  :func:`~repro.hw.area.accelerator_area`'s own order of operations.

The prune keeps the grid's whole (runtime, area) frontier because a side
configuration goes only when another is no worse in *every* phase
latency it contributes and in side area (unit + Forest with their
interconnect share, plus its SRAM): ``total`` never falls when a phase
latency rises (beyond an ulp or two of rounding where the ZeroCheck is
masked), and total area is additive over the two sides plus a
per-bandwidth constant.  One scalar latency per side cannot do that —
``total`` takes three ``max``es across phases of different units, so
summing a side's latencies mis-orders it, and an area without the SRAM
hides what ``sram_bank_words`` / ``points_per_pe`` pay for (DESIGN.md §3
"Cost and soundness of a sweep").
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import exp, log
from operator import le
from typing import Iterable, Sequence

from repro.hw import area as area_model
from repro.hw import memory, tech
from repro.hw.accelerator import ProtocolBreakdown, ZkPhireModel
from repro.hw.config import (
    AcceleratorConfig,
    MSMUnitConfig,
    PermQuotConfig,
    SumCheckUnitConfig,
)
from repro.hw.scheduler import PolyProfile
from repro.hw.sumcheck_unit import SumCheckUnitModel
from repro.plan import hyperplonk_plan

# Table III knob values
SC_PES = (1, 2, 4, 8, 16, 32)
SC_EES = (2, 3, 4, 5, 6, 7)
SC_PLS = (3, 4, 5, 6, 7, 8)
SC_SRAM = (1024, 2048, 4096, 8192, 16384, 32768)
MSM_PES = (1, 2, 4, 8, 16, 32)
MSM_WINDOWS = (7, 8, 9, 10)
MSM_POINTS = (1024, 2048, 4096, 8192, 16384)
BANDWIDTHS = (64, 128, 256, 512, 1024, 2048, 4096)


def geomean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("geomean of empty sequence")
    # an in-order fold: sum() of floats is compensated from Python 3.12
    total = 0.0
    for v in values:
        total += log(max(v, 1e-300))
    return exp(total / len(values))


@dataclass(slots=True)
class DesignPoint:
    """One evaluated design: a config plus its metrics."""

    config: AcceleratorConfig
    runtime_s: float
    area_mm2: float


def pareto_frontier(points: Iterable[DesignPoint]) -> list[DesignPoint]:
    """Minimize (runtime, area): keep points no other point dominates."""
    pts = sorted(points, key=lambda p: (p.runtime_s, p.area_mm2))
    frontier: list[DesignPoint] = []
    best_area = float("inf")
    for p in pts:
        if p.area_mm2 < best_area - 1e-12:
            frontier.append(p)
            best_area = p.area_mm2
    return frontier


# -- Fig 6: standalone SumCheck DSE -------------------------------------------

@dataclass
class SumCheckDesign:
    config: SumCheckUnitConfig
    bandwidth_gbps: float
    area_mm2: float
    latencies: dict[str, float]
    utilizations: dict[str, float]
    objective: float = 0.0

    @property
    def mean_utilization(self) -> float:
        total = 0.0
        for u in self.utilizations.values():
            total += u
        return total / len(self.utilizations)


def enumerate_sumcheck_configs(
    area_budget_mm2: float,
    pes=SC_PES, ees=SC_EES, pls=SC_PLS, sram=SC_SRAM,
    fixed_prime: bool = True,
) -> list[SumCheckUnitConfig]:
    """All Table III SumCheck configs under the area budget."""
    out = []
    for p, e, l, s in product(pes, ees, pls, sram):
        cfg = SumCheckUnitConfig(pes=p, ees_per_pe=e, pls_per_pe=l,
                                 sram_bank_words=s, fixed_prime=fixed_prime)
        if area_model.standalone_sumcheck_area(cfg, 0.0) <= area_budget_mm2:
            out.append(cfg)
    return out


def sumcheck_dse(
    polys: Sequence[tuple[str, PolyProfile, int]],
    area_budget_mm2: float,
    bandwidth_gbps: float,
    lam: float = 0.8,
    configs: Sequence[SumCheckUnitConfig] | None = None,
    freq_ghz: float = 1.0,
) -> SumCheckDesign:
    """Pick the best standalone SumCheck design at one bandwidth tier.

    ``polys``: (name, profile, num_vars) training set.
    Objective: (1-λ)·geomean slowdown-vs-per-poly-best + λ·(1-mean util).
    """
    configs = list(configs) if configs is not None else \
        enumerate_sumcheck_configs(area_budget_mm2)
    if not configs:
        raise ValueError("no configuration fits the area budget")

    evaluated: list[SumCheckDesign] = []
    for cfg in configs:
        model = SumCheckUnitModel(cfg, bandwidth_gbps, freq_ghz)
        lat, util = {}, {}
        for name, poly, num_vars in polys:
            run = model.run(poly, num_vars)
            lat[name] = run.latency_s
            util[name] = run.utilization
        evaluated.append(SumCheckDesign(
            config=cfg, bandwidth_gbps=bandwidth_gbps,
            area_mm2=area_model.standalone_sumcheck_area(cfg, bandwidth_gbps),
            latencies=lat, utilizations=util,
        ))

    best_per_poly = {
        name: min(d.latencies[name] for d in evaluated)
        for name, _, _ in polys
    }
    best: SumCheckDesign | None = None
    for d in evaluated:
        slowdowns = [d.latencies[n] / best_per_poly[n] for n in best_per_poly]
        d.objective = ((1.0 - lam) * geomean(slowdowns)
                       + lam * (1.0 - d.mean_utilization))
        if best is None or d.objective < best.objective:
            best = d
    assert best is not None
    return best


# -- Fig 10 / Table IV: full-accelerator DSE -------------------------------------

def _undominated(costs: Sequence[tuple[float, ...]]) -> list[int]:
    """Indices of the cost vectors no other vector is ≤ in every
    component (of equal vectors the first stays), in input order."""
    # a dominating vector sorts before the one it dominates, so each
    # candidate only has to be checked against the survivors so far
    kept: list[int] = []
    for i in sorted(range(len(costs)), key=costs.__getitem__):
        candidate = costs[i]
        if not any(all(map(le, costs[k], candidate)) for k in kept):
            kept.append(i)
    return sorted(kept)


def accelerator_dse(
    gate_type_name: str,
    num_vars: int,
    bandwidth_gbps: float,
    sc_grid: Iterable[SumCheckUnitConfig] | None = None,
    msm_grid: Iterable[MSMUnitConfig] | None = None,
    mask_zerocheck: bool = True,
) -> list[DesignPoint]:
    """Evaluate the Table III grid at one bandwidth; returns the cross of
    the side configurations that survive the dominance prune (see the
    module docstring) — a superset of the grid's Pareto frontier, each
    point exactly what :meth:`ZkPhireModel.price` and
    :func:`~repro.hw.area.accelerator_area` give for its config."""
    if sc_grid is None:
        sc_grid = [
            SumCheckUnitConfig(pes=p, ees_per_pe=e, pls_per_pe=l,
                               sram_bank_words=s)
            for p, e, l, s in product(SC_PES, SC_EES, SC_PLS, SC_SRAM)
        ]
    if msm_grid is None:
        msm_grid = [
            MSMUnitConfig(pes=p, window_bits=w, points_per_pe=pp)
            for p, w, pp in product(MSM_PES, MSM_WINDOWS, MSM_POINTS)
        ]

    # the shared plan fixes the phase inventory once for the whole sweep;
    # every design point prices the same plan
    plan = hyperplonk_plan(gate_type_name, num_vars)
    # the PermQuot configuration is not swept: one (frozen) object serves
    # every design point instead of one default per point
    permquot = PermQuotConfig()

    def design(**units) -> AcceleratorConfig:
        return AcceleratorConfig(bandwidth_gbps=bandwidth_gbps,
                                 mask_zerocheck=mask_zerocheck,
                                 permquot=permquot, **units)

    # -- price each unit once: its units, its phases, its side area, and
    # its terms of accelerator_area (module areas, SRAM bytes) -------------
    shared_phases = ZkPhireModel(design()).bandwidth_phases(plan)
    _, _, phy = memory.phy_plan(bandwidth_gbps)
    sc_side = []
    for cfg in sc_grid:
        acc = design(sumcheck=cfg)
        sc_side.append((
            # the Forest sized from cfg, so every crossed pair shares it
            {"sumcheck": cfg, "forest": acc.forest},
            ZkPhireModel(acc).sumcheck_phases(plan),
            area_model.sumcheck_side_area(cfg, acc.forest),
            (area_model.forest_area(acc.forest), area_model.sumcheck_area(cfg),
             area_model.other_area(acc), cfg.sram_bytes),
        ))
    msm_side = [
        ({"msm": cfg}, ZkPhireModel(design(msm=cfg)).msm_phases(plan),
         area_model.msm_side_area(cfg),
         (area_model.msm_area(cfg),
          cfg.bucket_sram_bytes + cfg.point_sram_bytes
          + area_model.FIXED_SRAM_BYTES))
        for cfg in msm_grid
    ]

    def survivors(side):
        return [side[i] for i in _undominated(
            [(area, *phases.values()) for _, phases, area, _ in side])]

    # -- cross the survivors --------------------------------------------------
    out: list[DesignPoint] = []
    msm_survivors = survivors(msm_side)
    for sc_units, sc_phases, _, sc_terms in survivors(sc_side):
        forest, sc, other, sc_bytes = sc_terms
        for msm_units, msm_phases, _, (msm, msm_bytes) in msm_survivors:
            breakdown = ProtocolBreakdown(
                **sc_phases, **msm_phases, **shared_phases,
                masked=mask_zerocheck)
            # accelerator_area(...).total, term for term in its order
            compute = msm + forest + sc + other
            area = (compute + memory.sram_mm2(sc_bytes + msm_bytes)
                    + tech.INTERCONNECT_FRAC * compute + phy)
            out.append(DesignPoint(
                config=design(**sc_units, **msm_units),
                runtime_s=breakdown.total, area_mm2=area))
    return out


def global_pareto(
    gate_type_name: str,
    num_vars: int,
    bandwidths: Sequence[float] = BANDWIDTHS,
    **kwargs,
) -> tuple[dict[float, list[DesignPoint]], list[DesignPoint]]:
    """Per-bandwidth Pareto curves plus the global frontier (Fig 10)."""
    per_bw: dict[float, list[DesignPoint]] = {}
    everything: list[DesignPoint] = []
    for bw in bandwidths:
        points = accelerator_dse(gate_type_name, num_vars, bw, **kwargs)
        per_bw[bw] = pareto_frontier(points)
        everything.extend(per_bw[bw])
    return per_bw, pareto_frontier(everything)
