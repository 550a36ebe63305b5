"""The Permutation Quotient Generator model (§IV-B5, Figure 5).

Generates the Numerator, Denominator, and Fraction MLEs for PermCheck.
k witness columns are processed by ``pes`` pipelined PEs producing one
element per cycle each after warmup; per-column intermediates are written
to HBM and merged with modular multiplications; the merged denominator is
inverted with the batch-2 Montgomery scheme — 266 inverse units in
round-robin initiate one inversion every two cycles, each serving two
elements, sustaining one φ element per cycle without backpressure.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from repro.hw import memory, tech
from repro.hw.config import PermQuotConfig

PERMQUOT_WARMUP_CYCLES = 256


@dataclass
class PermQuotRun:
    num_gates: int
    num_columns: int
    cycles: float
    bytes_moved: float
    latency_s: float
    inversions: float


class PermQuotModel:
    def __init__(self, config: PermQuotConfig, bandwidth_gbps: float,
                 freq_ghz: float = 1.0):
        self.config = config
        self.bandwidth_gbps = bandwidth_gbps
        self.freq_hz = freq_ghz * 1e9

    def run(self, num_gates: int, num_columns: int) -> PermQuotRun:
        """Generate N/D/φ for a 2^μ-gate circuit with k witness columns."""
        cfg = self.config
        # column passes: each PE emits one N/D element pair per cycle;
        # with overlapped scheduling and cyclic PE reuse for k > pes
        column_cycles = num_gates * ceil(num_columns / cfg.pes)
        # inversion throughput: one initiation per 2 cycles x batch
        inv_throughput = cfg.inverse_units and (cfg.batch / 2.0)
        inversion_cycles = num_gates / max(inv_throughput, 1e-9)
        # the φ pipeline overlaps generation and inversion; the longer
        # phase dominates, plus warmup
        cycles = max(column_cycles, inversion_cycles) + PERMQUOT_WARMUP_CYCLES

        # traffic: read w_i and σ_i per column; write per-column N/D
        # intermediates, then merged N, D, and φ
        reads = num_gates * tech.FR_BYTES * (2 * num_columns)
        writes = num_gates * tech.FR_BYTES * (2 * num_columns + 3)
        bytes_moved = float(reads + writes)
        mem_s = memory.transfer_seconds(bytes_moved, self.bandwidth_gbps)
        latency = max(cycles / self.freq_hz, mem_s)
        return PermQuotRun(
            num_gates=num_gates, num_columns=num_columns, cycles=cycles,
            bytes_moved=bytes_moved, latency_s=latency,
            inversions=num_gates / cfg.batch,
        )
