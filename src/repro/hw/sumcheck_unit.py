"""Latency/utilization model of the programmable SumCheck unit (§III).

Per SumCheck round the model composes:

* **compute** — pairs per PE × cycles-per-pair from the Figure-2
  schedule (steps × lane initiation interval), plus pipeline fill;
* **traffic** — round-1 reads use sparsity-aware encodings; the
  randomizer fr is *built in-datapath* during round 1 (one product lane
  is reserved for it — §III-F), so it is never read in round 1; updated
  (halved) tables are written back dense, until the working set fits in
  the banked scratchpads, after which off-chip traffic stops (§III-B);
* **round latency** — max(compute, traffic/BW) + a fill/drain constant.

Utilization is useful modmul work divided by modmul-capacity × compute
cycles, the quantity Figure 6 plots (~0.4-0.5: update units idle in round
1, low-degree polynomials under-fill lanes, repeated MLEs skip updates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import ceil

from repro.hw import memory
from repro.hw.config import SumCheckUnitConfig
from repro.hw.scheduler import (
    FR_NAME,
    PolyProfile,
    PolynomialSchedule,
    schedule_polynomial,
)

#: pipeline fill/drain cycles charged per schedule step per round
STEP_FILL_CYCLES = 64
#: fixed per-round control/FSM overhead cycles
ROUND_OVERHEAD_CYCLES = 200


@dataclass
class RoundStat:
    round_index: int          # 1-based
    pairs: int                # table pairs processed (total)
    compute_cycles: float
    bytes_read: float
    bytes_written: float
    latency_s: float
    on_chip: bool


@dataclass
class SumCheckRun:
    """A modelled μ-round SumCheck: its totals, and one row per round.

    ``round_rows`` holds ``(pairs, compute cycles, bytes read, bytes
    written, latency, on chip)`` in round order; :attr:`rounds` turns them
    into :class:`RoundStat` objects on first read.  The totals are folds
    over those rows in round order (``total = 0; total += x``), which is
    what ``sum()`` gave up to Python 3.11 — from 3.12 on ``sum()`` of
    floats is compensated and would change the model's last bits.
    """

    poly_name: str
    num_vars: int
    latency_s: float = 0.0
    total_bytes: float = 0.0
    compute_cycles: int = 0
    useful_muls: float = 0.0
    capacity_mul_cycles: float = 0.0
    round_rows: tuple[tuple, ...] = field(default=(), repr=False)

    @cached_property
    def rounds(self) -> list[RoundStat]:
        return [RoundStat(index, *row)
                for index, row in enumerate(self.round_rows, 1)]

    @property
    def utilization(self) -> float:
        if self.capacity_mul_cycles <= 0:
            return 0.0
        return min(1.0, self.useful_muls / self.capacity_mul_cycles)


class SumCheckUnitModel:
    """Analytical model of one programmable SumCheck unit."""

    def __init__(self, config: SumCheckUnitConfig, bandwidth_gbps: float,
                 freq_ghz: float = 1.0):
        self.config = config
        self.bandwidth_gbps = bandwidth_gbps
        self.freq_hz = freq_ghz * 1e9

    # -- structural helpers -------------------------------------------------
    def schedule(self, poly: PolyProfile) -> PolynomialSchedule:
        return schedule_polynomial(poly, self.config.ees_per_pe,
                                   self.config.pls_per_pe)

    # -- the model ----------------------------------------------------------
    def run(self, poly: PolyProfile, num_vars: int,
            fuse_fr: bool | None = None) -> SumCheckRun:
        """Model a full μ-round SumCheck of ``poly`` on 2^num_vars gates.

        ``fuse_fr``: build the randomizer in-datapath during round 1
        (defaults to "poly contains fr").

        The round loop is plain arithmetic on locals, and every value is
        the one a round-by-round evaluation of the formulas gives, bit for
        bit (DESIGN.md §3 "Cost and soundness of a sweep"): a table has a
        power-of-two number of entries, so scaling a per-entry byte count
        by it commutes with rounding, and the multiply counts are integer
        sums far below 2⁵³.
        """
        cfg = self.config
        sched = self.schedule(poly)
        if fuse_fr is None:
            fuse_fr = poly.has_fr
        uniq = poly.unique_mles
        num_uniq = len(uniq)
        pes = cfg.pes
        # update multipliers + product-lane multipliers
        mul_capacity = (pes * cfg.ees_per_pe
                        + pes * cfg.pls_per_pe * (cfg.ees_per_pe - 1))

        # everything below is the same in every round (round 1 differs
        # only in its lane count and read set), so it is derived once
        steps = sched.num_steps
        later_cycles_per_pair = steps * sched.initiation_interval()
        # round 1 gives one lane to the Build-MLE fusion
        first_cycles_per_pair = steps * sched.initiation_interval(
            cfg.pls_per_pe - 1 if fuse_fr and cfg.pls_per_pe > 1 else None)
        fixed_cycles = STEP_FILL_CYCLES * steps + ROUND_OVERHEAD_CYCLES
        freq_hz = self.freq_hz
        overhead_s = ROUND_OVERHEAD_CYCLES / freq_hz
        bytes_per_s = memory.bytes_per_second(self.bandwidth_gbps)
        # bytes per entry of every table read or written dense
        dense_bytes = memory.entry_bytes("dense") * num_uniq
        # bytes per entry of the tables round 1 reads, in their encodings
        first_bytes = 0.0
        for name in uniq:
            if not (fuse_fr and name == FR_NAME):
                first_bytes += memory.entry_bytes(
                    poly.mle_classes.get(name, "dense"))
        # largest per-MLE table the banked scratchpads retain; with more
        # MLEs than the 16 buffers per PE (§III-B) nothing ever fits
        on_chip_words = cfg.sram_bank_words * pes if num_uniq <= 16 else 0

        rows = []
        latency_total = bytes_total = compute_total = 0
        cycles_per_pair, read_bytes = first_cycles_per_pair, first_bytes
        on_chip = False  # whether this round's input was retained on chip
        for rnd in range(1, num_vars + 1):
            pairs = 1 << (num_vars - rnd)
            compute = ceil(pairs / pes) * cycles_per_pair + fixed_cycles
            reads = 0.0 if on_chip else (pairs << 1) * read_bytes
            # the halved table stays on chip if it fits; the last round
            # leaves none
            last = rnd == num_vars
            fits = pairs <= on_chip_words
            writes = 0.0 if last or fits else pairs * dense_bytes
            moved = reads + writes
            compute_s = compute / freq_hz
            mem_s = moved / bytes_per_s
            # max(compute_s, mem_s) + overhead, without the call
            latency = (mem_s if mem_s > compute_s else compute_s) + overhead_s
            rows.append((pairs, compute, reads, writes, latency, on_chip))
            latency_total += latency
            bytes_total += moved
            compute_total += compute
            cycles_per_pair, read_bytes = later_cycles_per_pair, dense_bytes
            on_chip = fits and not last

        # useful work: every pair's product lanes; the update multiplies
        # from round 2 on; in round 1, fr built in-datapath (2 per pair)
        pairs_total = (1 << num_vars) - 1
        first_pairs = (1 << num_vars) >> 1
        useful = (pairs_total * (poly.degree + 1) * poly.product_muls_per_point
                  + 2 * num_uniq * (pairs_total - first_pairs)
                  + (2 * first_pairs if fuse_fr else 0))
        return SumCheckRun(
            poly_name=poly.name, num_vars=num_vars,
            latency_s=latency_total, total_bytes=bytes_total,
            compute_cycles=compute_total,
            useful_muls=float(useful),
            capacity_mul_cycles=float(mul_capacity * compute_total),
            round_rows=tuple(rows),
        )

    def latency_s(self, poly: PolyProfile, num_vars: int) -> float:
        return self.run(poly, num_vars).latency_s
