"""zkSpeed / zkSpeed+ (§VI-A3, Fig. 9, Tables VI-IX) as two configurations
of the one SumCheck unit model (:mod:`repro.hw.sumcheck_unit`).

zkSpeed [12] is the fixed-function HyperPlonk accelerator zkPHIRE is
measured against.  Its SumCheck datapath differs from zkPHIRE's in four
ways, each a :class:`SumCheckUnitConfig` field: ``fixed_function`` (8
pair streams, every term in one node at II = 1, so degree > 8 is
refused; §IV-B1), ``build_mle_pass`` (fr built by a separate pass, not
in-datapath; §III-F, §VI-A3), ``pipelined_update=False`` (a separate
update pass, zkSpeed only: zkSpeed+ fuses it; §VI-A3) and
``witness_scratchpad`` (round-1 witness reads from a global scratchpad,
updated tables spill off-chip; §IV-B1).
"""

from dataclasses import replace

from repro.hw.config import SumCheckUnitConfig

#: 8 pair streams of 8 extension engines and one lane per point (K ≤ 9);
#: the banks never hold a table, so ``sram_bank_words`` prices area only
ZKSPEED_PLUS = SumCheckUnitConfig(
    pes=8, ees_per_pe=8, pls_per_pe=9, sram_bank_words=1024,
    fixed_function=True, build_mle_pass=True, witness_scratchpad=True)
ZKSPEED = replace(ZKSPEED_PLUS, pipelined_update=False)

#: zkSpeed's published SumCheck + MLE-update area, Fig. 9's iso-area point
ZKSPEED_SUMCHECK_MM2 = 30.8

#: Published zkSpeed+ full-protocol runtimes (ms) for Table VI/VIII
#: workloads (Vanilla gates) — the paper's own comparison numbers.
ZKSPEED_PLUS_PROTOCOL_MS = {
    "ZCash": 1.825,
    "Auction": 10.171,
    "Rescue Hash": 19.631,
    "Zexe": 38.535,
    "Rollup 10 Pvt Tx": 76.356,
    "Rollup 25 Pvt Tx": 151.973,
}
