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
from math import ceil

from repro.hw import memory
from repro.hw.config import SumCheckUnitConfig
from repro.hw.scheduler import PolyProfile, PolynomialSchedule, schedule_polynomial

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
    poly_name: str
    num_vars: int
    rounds: list[RoundStat] = field(default_factory=list)
    useful_muls: float = 0.0
    capacity_mul_cycles: float = 0.0

    @property
    def latency_s(self) -> float:
        return sum(r.latency_s for r in self.rounds)

    @property
    def total_bytes(self) -> float:
        return sum(r.bytes_read + r.bytes_written for r in self.rounds)

    @property
    def compute_cycles(self) -> float:
        return sum(r.compute_cycles for r in self.rounds)

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
        """
        cfg = self.config
        sched = self.schedule(poly)
        if fuse_fr is None:
            fuse_fr = poly.has_fr
        uniq = poly.unique_mles
        num_uniq = len(uniq)
        # per-term product multiplies per evaluation point
        prod_muls_per_point = sum(t.degree - 1 for t in poly.terms)
        extensions = poly.degree + 1

        run = SumCheckRun(poly_name=poly.name, num_vars=num_vars)
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
        overhead_s = ROUND_OVERHEAD_CYCLES / self.freq_hz
        dense_bytes = memory.entry_bytes("dense")
        first_read_bytes = [
            memory.entry_bytes(poly.mle_classes.get(name, "dense"))
            for name in uniq if not (name == "fr" and fuse_fr)
        ]
        # largest per-MLE table the banked scratchpads retain; with more
        # MLEs than the 16 buffers per PE (§III-B) nothing ever fits
        on_chip_words = cfg.sram_bank_words * pes if num_uniq <= 16 else 0

        # whether the *next* round's input was retained on chip
        prev_written_on_chip = False
        for rnd in range(1, num_vars + 1):
            entries = 1 << (num_vars - rnd + 1)
            pairs = entries // 2
            compute = (ceil(pairs / pes)
                       * (first_cycles_per_pair if rnd == 1
                          else later_cycles_per_pair)
                       + fixed_cycles)

            # ---- traffic ----------------------------------------------------
            on_chip_now = prev_written_on_chip
            reads = 0.0
            if not on_chip_now:
                if rnd == 1:
                    for per_entry in first_read_bytes:
                        reads += entries * per_entry
                else:
                    reads = entries * dense_bytes * num_uniq

            fits_next = pairs <= on_chip_words  # the halved table
            writes = 0.0
            if rnd < num_vars and not fits_next:
                writes = pairs * dense_bytes * num_uniq
            prev_written_on_chip = fits_next and rnd < num_vars

            mem_s = memory.transfer_seconds(reads + writes, self.bandwidth_gbps)
            latency = max(compute / self.freq_hz, mem_s) + overhead_s

            run.rounds.append(RoundStat(
                round_index=rnd, pairs=pairs, compute_cycles=compute,
                bytes_read=reads, bytes_written=writes,
                latency_s=latency, on_chip=on_chip_now,
            ))

            # ---- useful work for utilization ----------------------------------
            pl_muls = pairs * extensions * prod_muls_per_point
            upd_muls = 0 if rnd == 1 else 2 * num_uniq * pairs
            fr_muls = 2 * pairs if (rnd == 1 and fuse_fr) else 0
            run.useful_muls += pl_muls + upd_muls + fr_muls
            run.capacity_mul_cycles += mul_capacity * compute

        return run

    def latency_s(self, poly: PolyProfile, num_vars: int) -> float:
        return self.run(poly, num_vars).latency_s
