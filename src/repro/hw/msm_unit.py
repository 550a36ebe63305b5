"""Latency model of the Pippenger MSM unit (§IV-B3, zkSpeed-inherited).

Structure: each PE owns a fully-pipelined 381-bit PADD (one mixed
Jacobian addition per cycle) and a private bucket SRAM holding all
``windows × 2^w`` buckets, so every streamed point is consumed once and
accumulated into all of its windows' buckets.  After accumulation, each
window's buckets are reduced with the running-suffix-sum scan
(2 × 2^w additions per window) and windows are combined with doublings.

Sparsity (§IV-B1): witness scalars are mostly 0 (skipped entirely) or 1
(a single direct accumulation instead of W bucket insertions); only the
"full" fraction pays the dense cost.

This models the paper's unit, not the software kernel in
:mod:`repro.curves.msm`, which since DESIGN.md §13 makes six choices
the unit does *not*: the unit slices scalars into **unsigned** windows
(``2^w`` buckets per window, not ``2^(w-1)`` signed ones), it uses
**no endomorphism** (full 255-bit scalars, one term per point, where
the software splits each into two 128-bit halves), **every
quotient MSM of every opening is priced** (the software shares the
quotients of same-polynomial openings with a common point prefix),
its PADD is a **pipelined mixed-Jacobian adder**, one addition a cycle
and no inversion anywhere (the software accumulates in *affine* form,
a round of independent additions through one shared inversion, which
only pays where an inversion costs a handful of additions), its
sparse path special-cases the scalars **0 and 1 only** (the software
sums the points of *every* repeated scalar before the MSM proper), and
it streams the SRS points as they are, **no precomputed multiples**
(the software keeps 32 odd multiples of every SRS base resident and
runs a width-7 wNAF over them up to 1024 points, buckets only above:
a time-for-memory trade a bucket SRAM sized for ``windows × 2^w``
points does not have room for).
The op counts here, the ``ProofPlan`` MSM inventory and every ``hw.*``
number are therefore unchanged by that kernel, on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass


from repro.hw import memory, tech
from repro.hw.config import MSMUnitConfig

#: default sparse-scalar composition for witness MSMs (prior-work stats
#: [12], [13], [73]: ~90% of witness scalars are zero or one)
SPARSE_ZERO_FRAC = 0.50
SPARSE_ONE_FRAC = 0.40

#: per-MSM fixed overhead (pipeline fill, scheduling, final window merge)
MSM_FIXED_CYCLES = 4096


@dataclass
class MSMRun:
    num_points: int
    sparse: bool
    cycles: float
    bytes_moved: float
    latency_s: float


class MSMUnitModel:
    def __init__(self, config: MSMUnitConfig, bandwidth_gbps: float,
                 freq_ghz: float = 1.0):
        self.config = config
        self.bandwidth_gbps = bandwidth_gbps
        self.freq_hz = freq_ghz * 1e9

    def run(self, num_points: int, sparse: bool = False) -> MSMRun:
        if num_points < 1:
            raise ValueError("MSM needs at least one point")
        cfg = self.config
        windows = cfg.num_windows
        if sparse:
            full = 1.0 - SPARSE_ZERO_FRAC - SPARSE_ONE_FRAC
            adds_per_point = SPARSE_ONE_FRAC * 1.0 + full * windows
            scalar_bytes = 4.0   # compressed 0/1 stream + offsets
            point_frac = 1.0 - SPARSE_ZERO_FRAC  # zero-scalar points unread
        else:
            adds_per_point = float(windows)
            scalar_bytes = float(tech.FR_BYTES)
            point_frac = 1.0

        bucket_adds = num_points * adds_per_point
        reduction_adds = windows * 2.0 * (1 << cfg.window_bits)
        doubling_adds = 255.0
        cycles = (bucket_adds + reduction_adds) / cfg.pes
        cycles += doubling_adds + MSM_FIXED_CYCLES

        bytes_moved = num_points * (
            point_frac * tech.G1_AFFINE_BYTES + scalar_bytes
        )
        mem_s = memory.transfer_seconds(bytes_moved, self.bandwidth_gbps)
        latency = max(cycles / self.freq_hz, mem_s)
        return MSMRun(num_points=num_points, sparse=sparse, cycles=cycles,
                      bytes_moved=bytes_moved, latency_s=latency)

    def latency_s(self, num_points: int, sparse: bool = False) -> float:
        return self.run(num_points, sparse).latency_s
