"""Figure 9: comparison with prior ASICs (zkSpeed / zkSpeed+), per
SumCheck phase, at 2 TB/s and roughly iso-area.

Bars: zkSpeed (Vanilla), zkSpeed+ (Vanilla), zkPHIRE (Vanilla), and
zkPHIRE with Jellyfish gates at 2×/4×/8× gate-count reductions.  Phases:
ZeroCheck, PermCheck, OpenCheck, Total.  Paper shape: zkPHIRE ~30%
slower than zkSpeed+ on Vanilla (programmability tax); Jellyfish 4× is
enough to beat Vanilla on both; OpenCheck scales directly with the
reduction.

Every bar is one :class:`SumCheckUnitModel`; zkSpeed and zkSpeed+ are
the configurations ``ZKSPEED`` / ``ZKSPEED_PLUS``.  The attribution rows
turn zkSpeed's differences on one at a time in :data:`FIG9_CONFIG` —
``fixed_function`` (one node at II = 1, §IV-B1), ``build_mle_pass`` (fr
built by a separate pass, §III-F), ``pipelined_update=False`` (zkSpeed's
separate update pass, §VI-A3), ``witness_scratchpad`` (round-1 reads
from a global scratchpad, §IV-B1) — and give each one's Vanilla Total
and share of the zkPHIRE − zkSpeed+ gap.  The shares need not sum to 1:
the differences interact, and 16 PEs of 5 EEs × 6 lanes are not
zkSpeed's 8 pair streams.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.common import ExperimentResult
from repro.gates import gate_by_id
from repro.hw.accelerator import opencheck_profile
from repro.hw.area import standalone_sumcheck_area
from repro.hw.config import SumCheckUnitConfig
from repro.hw.scheduler import PolyProfile
from repro.hw.sumcheck_unit import SumCheckUnitModel
from repro.hw.zkspeed import ZKSPEED, ZKSPEED_PLUS, ZKSPEED_SUMCHECK_MM2

FIG9_BANDWIDTH = 2048.0
FIG9_NUM_VARS = 24

#: the zkPHIRE SumCheck design behind Fig. 9's zkPHIRE bar.  It is not
#: iso-area with zkSpeed: under this repo's area rules the standalone
#: unit (``standalone_sumcheck_area(FIG9_CONFIG, 0.0)``: update modmuls,
#: product-lane multipliers and SRAM) is 72.10 mm² and its update logic
#: alone (``sumcheck_area``) 17.82 mm², not the 35.24 mm² of §VI-A3
FIG9_CONFIG = SumCheckUnitConfig(pes=16, ees_per_pe=5, pls_per_pe=6,
                                 sram_bank_words=1024, fixed_prime=False)


def _phases(gate: str):
    zc = 20 if gate == "vanilla" else 22
    pc = 21 if gate == "vanilla" else 23
    return (PolyProfile.from_gate(gate_by_id(zc)),
            PolyProfile.from_gate(gate_by_id(pc)),
            opencheck_profile())


def _bar(design: str, config: SumCheckUnitConfig, phases,
         num_vars: int) -> dict:
    """One bar: each phase's SumCheck latency (ms) and their total."""
    zc_poly, pc_poly, oc_poly = phases
    model = SumCheckUnitModel(config, FIG9_BANDWIDTH)
    zc = model.run(zc_poly, num_vars).latency_s
    pc = model.run(pc_poly, num_vars).latency_s
    oc = model.run(oc_poly, num_vars, fuse_fr=False).latency_s
    return {"design": design, "ZeroCheck": zc * 1e3,
            "PermCheck": pc * 1e3, "OpenCheck": oc * 1e3,
            "Total": (zc + pc + oc) * 1e3}


def run(fast: bool = True) -> ExperimentResult:
    result = ExperimentResult(
        name="fig09",
        title="Fig 9: SumCheck phases vs zkSpeed/zkSpeed+ (ms, 2 TB/s)",
        notes="paper: zkPHIRE ~30% slower than zkSpeed+ on Vanilla; "
              "Jellyfish 4x outperforms Vanilla everywhere",
    )
    vanilla = _phases("vanilla")
    jellyfish = _phases("jellyfish")
    zkspeed_plus = _bar("zkSpeed+ (Vanilla)", ZKSPEED_PLUS, vanilla,
                        FIG9_NUM_VARS)
    ours = _bar("zkPHIRE (Vanilla)", FIG9_CONFIG, vanilla, FIG9_NUM_VARS)
    rows = [_bar("zkSpeed (Vanilla)", ZKSPEED, vanilla, FIG9_NUM_VARS),
            zkspeed_plus, ours]
    for reduction, shift in (("2x", 1), ("4x", 2), ("8x", 3)):
        rows.append(_bar(f"zkPHIRE (Jellyfish {reduction})", FIG9_CONFIG,
                         jellyfish, FIG9_NUM_VARS - shift))

    plus_total = zkspeed_plus["Total"]
    result.summary["zkPHIRE/zkSpeed+ (Vanilla total)"] = (
        ours["Total"] / plus_total)
    result.summary["Jellyfish4x vs zkSpeed+ speedup"] = (
        plus_total / rows[4]["Total"])
    result.summary["Jellyfish8x vs zkSpeed+ speedup"] = (
        plus_total / rows[5]["Total"])

    gap = ours["Total"] - plus_total
    for field, value in (("fixed_function", True), ("build_mle_pass", True),
                         ("pipelined_update", False),
                         ("witness_scratchpad", True)):
        design = f"zkPHIRE + {field}={value}"
        total = _bar(design, replace(FIG9_CONFIG, **{field: value}),
                     vanilla, FIG9_NUM_VARS)["Total"]
        share = (ours["Total"] - total) / gap
        rows.append({"design": design, "Total": total, "gap share": share})
        result.summary[f"{design}: Vanilla total (ms)"] = total
        result.summary[f"{design}: share of zkPHIRE - zkSpeed+ gap"] = share
    result.summary["zkSpeed+ SumCheck area, model (mm^2)"] = (
        standalone_sumcheck_area(ZKSPEED_PLUS, 0.0))
    result.summary["zkSpeed+ SumCheck area, published (mm^2)"] = (
        ZKSPEED_SUMCHECK_MM2)
    result.rows = rows
    return result
