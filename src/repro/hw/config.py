"""Hardware configuration dataclasses — the Table III design knobs."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw import tech


@dataclass(frozen=True)
class SumCheckUnitConfig:
    """The SumCheck unit (§III).  The last four fields are zkSpeed's
    datapath differences (§IV-B1, §VI-A3, :mod:`repro.hw.zkspeed`); their
    defaults are zkPHIRE's."""

    pes: int = 16
    ees_per_pe: int = 7           # extension engines (Table III: 2-7)
    pls_per_pe: int = 5           # product lanes (Table III: 3-8)
    sram_bank_words: int = 4096   # per-MLE tile capacity (2^10 - 2^15)
    fixed_prime: bool = True
    fixed_function: bool = False      # every term one node, II = 1
    build_mle_pass: bool = False      # fr built before round 1, not in it
    pipelined_update: bool = True     # False: a separate update pass
    witness_scratchpad: bool = False  # free round-1 reads, nothing retained

    def __post_init__(self):
        if self.ees_per_pe < 2:
            raise ValueError("need at least 2 extension engines")
        if self.pls_per_pe < 1:
            raise ValueError("need at least 1 product lane")
        if self.pes < 1 or self.sram_bank_words < 2:
            raise ValueError("bad SumCheck configuration")

    @property
    def sram_bytes(self) -> int:
        return (self.pes * tech.SC_SCRATCHPAD_BUFFERS
                * self.sram_bank_words * tech.FR_BYTES)

    @property
    def update_multipliers(self) -> int:
        """MLE-update modmuls: one per EE (update fused into extension)."""
        return self.pes * self.ees_per_pe

    @property
    def product_multipliers(self) -> int:
        """Product-lane modmuls: E-1 per lane (provided by the Forest in
        zkPHIRE; still counted against the lane structure)."""
        return self.pes * self.pls_per_pe * max(self.ees_per_pe - 1, 1)


@dataclass(frozen=True)
class MSMUnitConfig:
    """The Pippenger MSM unit (zkSpeed-inherited, §IV-B3)."""

    pes: int = 32
    window_bits: int = 9          # Table III: 7-10
    points_per_pe: int = 4096     # on-chip point buffer (1K-16K)
    fixed_prime: bool = True

    def __post_init__(self):
        if self.pes < 1 or not (2 <= self.window_bits <= 16):
            raise ValueError("bad MSM configuration")

    @property
    def num_windows(self) -> int:
        return -(-255 // self.window_bits)

    @property
    def bucket_sram_bytes(self) -> int:
        """Jacobian buckets for the live window, per PE (windows are
        processed one at a time over the buffered points)."""
        return self.pes * (1 << self.window_bits) * tech.G1_JACOBIAN_BYTES

    @property
    def point_sram_bytes(self) -> int:
        return self.pes * self.points_per_pe * tech.G1_AFFINE_BYTES


@dataclass(frozen=True)
class ForestConfig:
    """The Multifunction Forest (§IV-B2): tree units whose multipliers are
    shared between SumCheck product lanes and tree-based kernels."""

    trees: int = 80
    muls_per_tree: int = 8
    fixed_prime: bool = True

    def __post_init__(self):
        if self.trees < 1 or self.muls_per_tree < 1:
            raise ValueError("bad Forest configuration")

    @property
    def total_multipliers(self) -> int:
        return self.trees * self.muls_per_tree

    @classmethod
    def sized_for(cls, sumcheck: SumCheckUnitConfig, muls_per_tree: int = 8,
                  slack: float = 1.0 / 3.0, fixed_prime: bool = True) -> "ForestConfig":
        """Size the forest to cover the SumCheck product-lane demand plus
        slack for concurrent tree kernels (the exemplar's 640 muls =
        4/3 x 16 PEs x 5 PLs x 6 muls)."""
        demand = sumcheck.product_multipliers
        total = max(muls_per_tree, int(round(demand * (1.0 + slack))))
        trees = max(1, -(-total // muls_per_tree))
        return cls(trees=trees, muls_per_tree=muls_per_tree,
                   fixed_prime=fixed_prime)


@dataclass(frozen=True)
class PermQuotConfig:
    """The Permutation Quotient Generator (§IV-B5)."""

    pes: int = tech.PERMQUOT_DEFAULT_PES     # "FracMLE PEs" (Table III: 1-4 + 5)
    inverse_units: int = tech.PERMQUOT_INVERSE_UNITS
    batch: int = tech.PERMQUOT_BATCH

    def __post_init__(self):
        if self.pes < 1 or self.inverse_units < 1 or self.batch < 1:
            raise ValueError("bad PermQuot configuration")


@dataclass(frozen=True)
class AcceleratorConfig:
    """A complete zkPHIRE design point."""

    sumcheck: SumCheckUnitConfig = field(default_factory=SumCheckUnitConfig)
    msm: MSMUnitConfig = field(default_factory=MSMUnitConfig)
    forest: ForestConfig | None = None
    permquot: PermQuotConfig = field(default_factory=PermQuotConfig)
    bandwidth_gbps: float = 2048.0
    freq_ghz: float = tech.CLOCK_GHZ
    #: enable the Gate-Identity/Wire-Identity overlap (§IV-A)
    mask_zerocheck: bool = True

    def __post_init__(self):
        if self.forest is None:
            object.__setattr__(
                self, "forest",
                ForestConfig.sized_for(self.sumcheck,
                                       fixed_prime=self.sumcheck.fixed_prime),
            )
        if self.bandwidth_gbps <= 0 or self.freq_ghz <= 0:
            raise ValueError("bad accelerator configuration")

    @classmethod
    def exemplar(cls) -> "AcceleratorConfig":
        """The paper's 294 mm^2 / 2 TB/s design point (Table V): 32 MSM
        PEs, 80 forest trees x 8 muls, 16 SumCheck PEs with 7 EEs + 5 PLs."""
        return cls(
            sumcheck=SumCheckUnitConfig(pes=16, ees_per_pe=7, pls_per_pe=5,
                                        sram_bank_words=1024),
            msm=MSMUnitConfig(pes=32, window_bits=9, points_per_pe=8192),
            forest=ForestConfig(trees=80, muls_per_tree=8),
            bandwidth_gbps=2048.0,
        )
