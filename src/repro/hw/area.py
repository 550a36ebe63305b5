"""Area model: per-module 7nm rollups (reproduces Table V's area column).

All leaf areas come from the published unit numbers in ``repro.hw.tech``;
module areas are unit counts × unit areas plus small characterized
control overheads, chosen so the paper's exemplar configuration lands on
its published breakdown (MSM 105.69, Forest 48.18, SumCheck 16.65,
Other 10.64, SRAM 27.55, Interconnect 26.42, HBM 59.20 mm²).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw import memory, tech
from repro.hw.config import AcceleratorConfig


@dataclass
class AreaBreakdown:
    msm: float
    forest: float
    sumcheck: float
    other: float
    sram: float
    interconnect: float
    hbm_phy: float

    @property
    def compute(self) -> float:
        return self.msm + self.forest + self.sumcheck + self.other

    @property
    def total(self) -> float:
        return (self.compute + self.sram + self.interconnect + self.hbm_phy)

    def as_dict(self) -> dict[str, float]:
        return {
            "MSM": self.msm,
            "MultiFunc Forest": self.forest,
            "SumCheck": self.sumcheck,
            "Misc": self.other,
            "Onchip Mem": self.sram,
            "Interconnect": self.interconnect,
            "HBM PHY": self.hbm_phy,
        }


def sumcheck_area(config, fixed_prime: bool | None = None) -> float:
    """Update modmuls + extension adder chains + pack/control per PE.
    Product-lane multipliers live in the Forest (§IV-B2) and are counted
    there."""
    fixed = config.fixed_prime if fixed_prime is None else fixed_prime
    mm = tech.modmul_area(255, fixed)
    per_pe = (config.ees_per_pe * (mm + tech.EE_ADDER_MM2)
              + tech.SC_PE_CONTROL_MM2)
    return config.pes * per_pe


def forest_area(config) -> float:
    mm = tech.modmul_area(255, config.fixed_prime)
    return config.total_multipliers * mm * (1.0 + tech.FOREST_OVERHEAD_FRAC)


def msm_area(config) -> float:
    mm = tech.modmul_area(381, config.fixed_prime)
    per_pe = tech.PADD_MODMULS * mm + tech.MSM_PE_CONTROL_MM2
    return config.pes * per_pe


def other_area(config: AcceleratorConfig) -> float:
    """Permutation Quotient Generator + MLE Combine + SHA3 (Table V's
    'Other' row)."""
    mm255 = tech.modmul_area(255, config.sumcheck.fixed_prime)
    permquot = (config.permquot.inverse_units * tech.MODINV_MM2
                + 2 * mm255
                + config.permquot.pes * (2 * mm255 + 0.15))
    mle_combine = tech.MLE_COMBINE_MULS * mm255 + 0.3
    # SHA3 + batch buffer + share-bus controller + padding logic
    fixed = tech.SHA3_MM2 + 5.7
    return permquot + mle_combine + fixed


#: 6 MB each: PermQuot, MLE Combine, Forest (§IV-B6)
FIXED_SRAM_BYTES = 3 * 6 * (1 << 20)


def sram_area(config: AcceleratorConfig) -> float:
    total_bytes = (
        config.sumcheck.sram_bytes
        + config.msm.bucket_sram_bytes
        + config.msm.point_sram_bytes
        + FIXED_SRAM_BYTES
    )
    return memory.sram_mm2(total_bytes)


def accelerator_area(config: AcceleratorConfig) -> AreaBreakdown:
    """Every module of ``config``.  A sweep composes the same ``total``
    from per-unit terms it prices once (:func:`repro.hw.dse.accelerator_dse`),
    so the expressions here and there must change together."""
    msm = msm_area(config.msm)
    forest = forest_area(config.forest)
    sc = sumcheck_area(config.sumcheck)
    other = other_area(config)
    compute = msm + forest + sc + other
    sram = sram_area(config)
    interconnect = tech.INTERCONNECT_FRAC * compute
    _, _, phy = memory.phy_plan(config.bandwidth_gbps)
    return AreaBreakdown(msm=msm, forest=forest, sumcheck=sc, other=other,
                         sram=sram, interconnect=interconnect, hbm_phy=phy)


def sumcheck_side_area(sumcheck_config, forest_config) -> float:
    """What a SumCheck configuration adds to :func:`accelerator_area`'s
    total: the unit and the Forest sized from it, their interconnect
    share, and the unit's scratchpads.  With :func:`msm_side_area` and a
    per-bandwidth remainder (Other, fixed SRAM, PHYs) it sums to that
    total up to rounding — the additivity a sweep prunes on."""
    compute = sumcheck_area(sumcheck_config) + forest_area(forest_config)
    return ((1.0 + tech.INTERCONNECT_FRAC) * compute
            + memory.sram_mm2(sumcheck_config.sram_bytes))


def msm_side_area(msm_config) -> float:
    """What an MSM configuration adds to :func:`accelerator_area`'s
    total: PEs with their interconnect share, bucket and point SRAM."""
    return ((1.0 + tech.INTERCONNECT_FRAC) * msm_area(msm_config)
            + memory.sram_mm2(msm_config.bucket_sram_bytes
                              + msm_config.point_sram_bytes))


def standalone_sumcheck_area(sc_config, bandwidth_gbps: float,
                             include_lane_muls: bool = True) -> float:
    """Area of a standalone SumCheck accelerator (Fig 6/7/8/9 setting):
    the SumCheck unit plus its own product-lane multipliers and local
    SRAM — no MSM/forest/PHY."""
    mm = tech.modmul_area(255, sc_config.fixed_prime)
    area = sumcheck_area(sc_config)
    if include_lane_muls:
        area += sc_config.product_multipliers * mm
    area += memory.sram_mm2(sc_config.sram_bytes)
    return area
