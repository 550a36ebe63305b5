"""Latency/utilization model of the SumCheck unit (§III): zkPHIRE's
programmable unit, and the fixed-function zkSpeed / zkSpeed+ units as
configurations of it (:mod:`repro.hw.zkspeed`).

Per SumCheck round the model composes:

* **compute** — pairs per PE × cycles-per-pair from the Figure-2
  schedule (steps × lane initiation interval), plus pipeline fill;
* **traffic** — round-1 reads use sparsity-aware encodings; the
  randomizer fr is *built in-datapath* during round 1 (one product lane
  is reserved for it — §III-F), so it is never read in round 1; updated
  (halved) tables are written back dense, until the working set fits in
  the banked scratchpads, after which off-chip traffic stops (§III-B);
* **round latency** — max(compute, traffic/BW) + a fill/drain constant.

zkSpeed's four differences are configuration fields priced by values
derived once per run, above the round loop: ``fixed_function`` (one
node at II = 1, §IV-B1), ``build_mle_pass`` (fr built by a separate
pass, §III-F), ``pipelined_update=False`` (a separate update pass,
§VI-A3) and ``witness_scratchpad`` (free round-1 reads, no retention,
§IV-B1).

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
#: multiplies per cycle of a separate Build-MLE pass (zkSpeed [12]'s trees)
BUILD_MLE_MULS_PER_CYCLE = 16
#: an unpipelined update pass: the share of a round's pair stream it adds
#: (half hidden under the next round) and its re-read factor on rounds ≥ 2
#: (zkSpeed [12]; zkSpeed+ fuses it, §VI-A3)
UNPIPELINED_UPDATE_PASS = 0.5
UNPIPELINED_UPDATE_REREAD = 1.25


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
    ``latency_s`` adds a separate Build-MLE pass, not a round, to the fold.
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
    """Analytical model of one SumCheck unit: programmable, or
    fixed-function when its configuration says so."""

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
        (defaults to "poly contains fr"; never with a Build-MLE pass).  A
        fixed-function unit refuses a term that needs a second node.

        The round loop is plain arithmetic on locals, and every value is
        the one a round-by-round evaluation of the formulas gives, bit for
        bit (DESIGN.md §3 "Cost and soundness of a sweep"): a table has a
        power-of-two number of entries, so scaling a per-entry byte count
        by it commutes with rounding, and the multiply counts are integer
        sums far below 2⁵³.
        """
        cfg = self.config
        if cfg.build_mle_pass:
            fuse_fr = False
        elif fuse_fr is None:
            fuse_fr = poly.has_fr
        uniq = poly.unique_mles
        num_uniq = len(uniq)
        pes = cfg.pes
        # update multipliers + product-lane multipliers
        mul_capacity = (pes * cfg.ees_per_pe
                        + pes * cfg.pls_per_pe * (cfg.ees_per_pe - 1))

        # everything below is the same in every round (round 1 differs
        # only in its lane count and read set), so it is derived once
        freq_hz = self.freq_hz
        if cfg.fixed_function:
            if poly.degree > cfg.ees_per_pe:
                raise ValueError(f"{poly.name!r} has a term wider than a "
                                 "fixed-function unit's one node")
            # no schedule steps to fill: the round's control overhead is
            # its only fixed cost
            first_cycles_per_pair = later_cycles_per_pair = 1
            fixed_cycles = ROUND_OVERHEAD_CYCLES
            overhead_s = 0.0
        else:
            sched = self.schedule(poly)
            steps = sched.num_steps
            later_cycles_per_pair = steps * sched.initiation_interval()
            # round 1 gives one lane to the Build-MLE fusion
            first_cycles_per_pair = steps * sched.initiation_interval(
                cfg.pls_per_pe - 1 if fuse_fr and cfg.pls_per_pe > 1 else None)
            fixed_cycles = STEP_FILL_CYCLES * steps + ROUND_OVERHEAD_CYCLES
            overhead_s = ROUND_OVERHEAD_CYCLES / freq_hz
        bytes_per_s = memory.bytes_per_second(self.bandwidth_gbps)
        # bytes per entry of one table, and of every table, read or
        # written dense
        entry_bytes = memory.entry_bytes("dense")
        dense_bytes = entry_bytes * num_uniq
        later_bytes = dense_bytes
        if not cfg.pipelined_update:
            first_cycles_per_pair *= 1 + UNPIPELINED_UPDATE_PASS
            later_cycles_per_pair *= 1 + UNPIPELINED_UPDATE_PASS
            later_bytes = dense_bytes * UNPIPELINED_UPDATE_REREAD
        if cfg.witness_scratchpad:
            # round 1 reads only a table a Build-MLE pass wrote; no
            # updated table is retained
            first_bytes = entry_bytes if cfg.build_mle_pass else 0.0
            on_chip_words = 0
        else:
            # bytes per entry of the tables round 1 reads, in encodings
            first_bytes = 0.0
            for name in uniq:
                if not (fuse_fr and name == FR_NAME):
                    first_bytes += memory.entry_bytes(
                        poly.mle_classes.get(name, "dense"))
            # largest per-MLE table the banked scratchpads retain; with
            # more MLEs than the 16 buffers per PE (§III-B) nothing fits
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
            cycles_per_pair, read_bytes = later_cycles_per_pair, later_bytes
            on_chip = fits and not last
        if cfg.build_mle_pass:
            # before round 1: 2N multiplies and one dense table write
            n = 1 << num_vars
            compute_s = ((2 * n / BUILD_MLE_MULS_PER_CYCLE + STEP_FILL_CYCLES)
                         / freq_hz)
            mem_s = n * entry_bytes / bytes_per_s
            latency_total = ((mem_s if mem_s > compute_s else compute_s)
                             + latency_total)

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
