"""Tests for the per-module hardware models and full-system rollups."""

import dataclasses
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gates import gate_by_id
from repro.gates.library import TABLE1
from repro.hw import memory, tech
from repro.hw.accelerator import (
    ZkPhireModel,
    opencheck_profile,
    proof_size_bytes,
)
from repro.hw.area import accelerator_area, standalone_sumcheck_area
from repro.hw.config import (
    AcceleratorConfig,
    ForestConfig,
    MSMUnitConfig,
    PermQuotConfig,
    SumCheckUnitConfig,
)
from repro.hw.cpu_baseline import CpuModel, sumcheck_modmuls
from repro.hw.dse import SC_EES, SC_PES, SC_PLS, SC_SRAM
from repro.hw.forest import ForestModel
from repro.hw.mle_combine import MLECombineModel
from repro.hw.msm_unit import MSMUnitModel
from repro.hw.permquot import PermQuotModel
from repro.hw.power import accelerator_power
from repro.hw.scheduler import PolyProfile
from repro.hw.sumcheck_unit import (
    BUILD_MLE_MULS_PER_CYCLE,
    ROUND_OVERHEAD_CYCLES,
    STEP_FILL_CYCLES,
    UNPIPELINED_UPDATE_PASS,
    UNPIPELINED_UPDATE_REREAD,
    SumCheckUnitModel,
)
from repro.hw.zkspeed import ZKSPEED, ZKSPEED_PLUS


def poly(gid):
    return PolyProfile.from_gate(gate_by_id(gid))


class TestTech:
    def test_7nm_modmul_areas_match_table9(self):
        assert tech.MODMUL_255_FIXED_MM2 == pytest.approx(0.073, abs=0.001)
        assert tech.MODMUL_255_ARBITRARY_MM2 == pytest.approx(0.133, abs=0.001)
        assert tech.MODMUL_381_FIXED_MM2 == pytest.approx(0.162, abs=0.001)
        assert tech.MODMUL_381_ARBITRARY_MM2 == pytest.approx(0.314, abs=0.001)

    def test_fixed_prime_saves_half(self):
        """§V: fixed-prime multipliers save ~50% area."""
        assert tech.MODMUL_255_FIXED_MM2 / tech.MODMUL_255_ARBITRARY_MM2 == \
            pytest.approx(0.55, abs=0.05)

    def test_modmul_unknown_width(self):
        with pytest.raises(ValueError):
            tech.modmul_area(128, True)


class TestMemory:
    def test_entry_bytes_ordering(self):
        assert (memory.entry_bytes("selector") < memory.entry_bytes("sparse")
                < memory.entry_bytes("dense"))

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            memory.entry_bytes("bogus")

    def test_phy_plan_tiers(self):
        kind, count, area = memory.phy_plan(2048)
        assert (kind, count) == ("HBM3", 2)
        assert area == pytest.approx(59.2)  # Table V
        kind, count, _ = memory.phy_plan(256)
        assert (kind, count) == ("HBM2", 1)
        kind, count, _ = memory.phy_plan(4096)
        assert (kind, count) == ("HBM3", 4)

    def test_phy_plan_invalid(self):
        with pytest.raises(ValueError):
            memory.phy_plan(0)

    def test_transfer_seconds(self):
        assert memory.transfer_seconds(1e9, 1.0) == pytest.approx(1.0)


class TestSumCheckUnit:
    def setup_method(self):
        self.cfg = SumCheckUnitConfig(pes=16, ees_per_pe=7, pls_per_pe=5,
                                      sram_bank_words=1024)
        self.model = SumCheckUnitModel(self.cfg, bandwidth_gbps=2048)

    def test_round_count(self):
        run = self.model.run(poly(20), 20)
        assert len(run.rounds) == 20

    def test_round_one_dominates(self):
        """Round 1 processes half of all pairs (§VI-A1 factor 1)."""
        run = self.model.run(poly(20), 20)
        total_pairs = sum(r.pairs for r in run.rounds)
        assert run.rounds[0].pairs / total_pairs == pytest.approx(0.5, abs=0.01)

    def test_fr_not_read_in_round_one(self):
        """Build-MLE fusion: fused fr contributes no round-1 reads."""
        fused = self.model.run(poly(20), 16, fuse_fr=True)
        unfused = self.model.run(poly(20), 16, fuse_fr=False)
        assert fused.rounds[0].bytes_read < unfused.rounds[0].bytes_read

    def test_late_rounds_on_chip(self):
        run = self.model.run(poly(20), 20)
        assert run.rounds[-1].on_chip
        assert not run.rounds[0].on_chip
        assert run.rounds[-1].bytes_read == 0

    def test_bandwidth_monotonicity(self):
        slow = SumCheckUnitModel(self.cfg, 64).run(poly(22), 20)
        fast = SumCheckUnitModel(self.cfg, 4096).run(poly(22), 20)
        assert fast.latency_s < slow.latency_s

    def test_more_pes_faster(self):
        small = SumCheckUnitModel(
            SumCheckUnitConfig(pes=2, ees_per_pe=7, pls_per_pe=5), 4096
        ).run(poly(22), 20)
        big = SumCheckUnitModel(
            SumCheckUnitConfig(pes=32, ees_per_pe=7, pls_per_pe=5), 4096
        ).run(poly(22), 20)
        assert big.latency_s < small.latency_s

    def test_utilization_in_range(self):
        """Fig 6: utilization around 0.4-0.6 for the HP polynomials."""
        for gid in (20, 21, 22, 23):
            run = self.model.run(poly(gid), 20)
            assert 0.2 < run.utilization < 0.8, (gid, run.utilization)

    def test_sparsity_reduces_round1_reads(self):
        dense_poly = poly(20)
        all_dense = PolyProfile(
            name="dense", terms=dense_poly.terms,
            mle_classes={k: "dense" for k in dense_poly.mle_classes},
        )
        sparse_run = self.model.run(dense_poly, 16)
        dense_run = self.model.run(all_dense, 16)
        assert sparse_run.rounds[0].bytes_read < dense_run.rounds[0].bytes_read

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SumCheckUnitConfig(ees_per_pe=1)
        with pytest.raises(ValueError):
            SumCheckUnitConfig(pls_per_pe=0)
        with pytest.raises(ValueError):
            SumCheckUnitConfig(pes=0)


class TestSumCheckRoundsPinned:
    """``RoundStat`` lists recorded before the round loop's constants
    were hoisted: (round, pairs, compute cycles, bytes read, bytes
    written, latency, on chip), bit for bit."""

    def _rounds(self, gid, cfg, bw, mu, fuse_fr=None):
        run = SumCheckUnitModel(cfg, bw).run(poly(gid), mu, fuse_fr=fuse_fr)
        return run, [dataclasses.astuple(r) for r in run.rounds]

    def test_streaming_then_on_chip(self):
        """Vanilla gate (9 MLEs), 4 PEs x 1024 words: three streamed
        rounds, the fourth keeps its output, the rest never leave."""
        cfg = SumCheckUnitConfig(pes=4, ees_per_pe=4, pls_per_pe=5,
                                 sram_bank_words=1024)
        run, rounds = self._rounds(20, cfg, 64, 16)
        assert rounds == [
            (1, 32768, 82440, 734003.2000000001, 9437184.0, 0.0001591248, False),
            (2, 16384, 21000, 9437184.0, 4718592.0, 0.000221384, False),
            (3, 8192, 10760, 4718592.0, 2359296.0, 0.000110792, False),
            (4, 4096, 5640, 2359296.0, 0.0, 3.7063999999999996e-05, False),
            (5, 2048, 3080, 0.0, 0.0, 3.28e-06, True),
            (6, 1024, 1800, 0.0, 0.0, 2e-06, True),
            (7, 512, 1160, 0.0, 0.0, 1.36e-06, True),
            (8, 256, 840, 0.0, 0.0, 1.04e-06, True),
            (9, 128, 680, 0.0, 0.0, 8.799999999999999e-07, True),
            (10, 64, 600, 0.0, 0.0, 8e-07, True),
            (11, 32, 560, 0.0, 0.0, 7.6e-07, True),
            (12, 16, 540, 0.0, 0.0, 7.4e-07, True),
            (13, 8, 530, 0.0, 0.0, 7.3e-07, True),
            (14, 4, 525, 0.0, 0.0, 7.249999999999999e-07, True),
            (15, 2, 525, 0.0, 0.0, 7.249999999999999e-07, True),
            (16, 1, 525, 0.0, 0.0, 7.249999999999999e-07, True),
        ]
        assert run.useful_muls == 3932092.0
        assert run.capacity_mul_cycles == 9971580.0
        assert run.latency_s == 0.0005421298000000002
        assert run.utilization == 0.39432988553468956

    def test_fused_fr_with_a_single_lane(self):
        """One product lane cannot be given away to the Build-MLE fusion:
        round 1 runs at the same initiation interval as the others."""
        cfg = SumCheckUnitConfig(pes=2, ees_per_pe=3, pls_per_pe=1,
                                 sram_bank_words=1024)
        run, rounds = self._rounds(20, cfg, 64, 8, fuse_fr=True)
        assert rounds == [
            (1, 128, 2504, 2867.2000000000003, 0.0, 2.704e-06, False),
            (2, 64, 1544, 0.0, 0.0, 1.744e-06, True),
            (3, 32, 1064, 0.0, 0.0, 1.264e-06, True),
            (4, 16, 824, 0.0, 0.0, 1.0239999999999999e-06, True),
            (5, 8, 704, 0.0, 0.0, 9.039999999999999e-07, True),
            (6, 4, 644, 0.0, 0.0, 8.44e-07, True),
            (7, 2, 614, 0.0, 0.0, 8.14e-07, True),
            (8, 1, 614, 0.0, 0.0, 8.14e-07, True),
        ]
        assert run.useful_muls == 15292.0
        assert run.capacity_mul_cycles == 85120.0
        assert run.latency_s == 1.0111999999999999e-05
        assert run.utilization == 0.17965225563909776


def _reference_run(model, p, mu, fuse_fr):
    """The round loop evaluated term by term, as the model stated it
    before it became plain arithmetic: per-round ``RoundStat`` tuples,
    useful multiplies and capacity, each folded round by round, and the
    latency of a separate Build-MLE pass (``None`` without one)."""
    cfg = model.config
    uniq = p.unique_mles
    dense = memory.entry_bytes("dense")
    if cfg.fixed_function:
        # every term in one node at II = 1, no per-step fill, and the
        # round's control overhead charged once, inside its compute
        steps = first_ii = later_ii = 1
        fill, overhead_s = 0, 0.0
    else:
        sched = model.schedule(p)
        steps = sched.num_steps
        lanes = cfg.pls_per_pe - 1 if fuse_fr and cfg.pls_per_pe > 1 else None
        first_ii = sched.initiation_interval(lanes)
        later_ii = sched.initiation_interval()
        fill = STEP_FILL_CYCLES * steps
        overhead_s = ROUND_OVERHEAD_CYCLES / model.freq_hz
    if cfg.witness_scratchpad:
        # witness tables come from the global scratchpad; only a table a
        # Build-MLE pass wrote is read, and nothing is retained
        first_read = [dense] if cfg.build_mle_pass else []
        on_chip_words = 0
    else:
        first_read = [memory.entry_bytes(p.mle_classes[n]) for n in uniq
                      if not (n == "fr" and fuse_fr)]
        on_chip_words = (cfg.sram_bank_words * cfg.pes if len(uniq) <= 16
                         else 0)
    capacity_per_cycle = (cfg.pes * cfg.ees_per_pe
                          + cfg.pes * cfg.pls_per_pe * (cfg.ees_per_pe - 1))
    prod = sum(t.degree - 1 for t in p.terms)
    rounds, useful, capacity = [], 0.0, 0.0
    on_chip = False
    for rnd in range(1, mu + 1):
        entries = 1 << (mu - rnd + 1)
        pairs = entries // 2
        ii = first_ii if rnd == 1 else later_ii
        stream = ceil(pairs / cfg.pes) * (steps * ii)
        compute = stream + fill + ROUND_OVERHEAD_CYCLES
        if not cfg.pipelined_update:
            # the separate update pass: part of another stream
            compute += UNPIPELINED_UPDATE_PASS * stream
        reads = 0.0
        if not on_chip:
            if rnd == 1:
                for per_entry in first_read:
                    reads += entries * per_entry
            else:
                reads = entries * dense * len(uniq)
                if not cfg.pipelined_update:
                    reads *= UNPIPELINED_UPDATE_REREAD
        fits = pairs <= on_chip_words
        writes = pairs * dense * len(uniq) if rnd < mu and not fits else 0.0
        latency = max(compute / model.freq_hz,
                      memory.transfer_seconds(reads + writes,
                                              model.bandwidth_gbps))
        latency += overhead_s
        rounds.append((rnd, pairs, compute, reads, writes, latency, on_chip))
        on_chip = fits and rnd < mu
        useful += (pairs * (p.degree + 1) * prod
                   + (0 if rnd == 1 else 2 * len(uniq) * pairs)
                   + (2 * pairs if rnd == 1 and fuse_fr else 0))
        capacity += capacity_per_cycle * compute
    build = None
    if cfg.build_mle_pass:
        n = 1 << mu
        build = max((2 * n / BUILD_MLE_MULS_PER_CYCLE + STEP_FILL_CYCLES)
                    / model.freq_hz,
                    memory.transfer_seconds(n * dense, model.bandwidth_gbps))
    return rounds, useful, capacity, build


class TestSumCheckRunIsItsRounds:
    """The round loop on plain numbers gives, bit for bit, what evaluating
    every round's formulas gives, and a run's totals are in-order folds
    over its rounds — for drawn configurations (zkSpeed's four datapath
    differences included), Table I gates, μ ≤ 24, bandwidth tiers and
    fusion settings."""

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(
        shape=st.tuples(st.sampled_from(SC_PES), st.sampled_from(SC_EES),
                        st.sampled_from(SC_PLS), st.sampled_from(SC_SRAM)),
        zkspeed=st.tuples(st.booleans(), st.booleans(), st.booleans(),
                          st.booleans()),
        gid=st.integers(0, len(TABLE1) - 1),
        mu=st.integers(0, 24),
        bw=st.sampled_from(memory.BANDWIDTH_TIERS),
        fuse_fr=st.sampled_from((None, True, False)),
    )
    def test_totals_are_in_order_folds(self, shape, zkspeed, gid, mu, bw,
                                       fuse_fr):
        pes, ees, pls, sram = shape
        fixed, build, pipelined, scratchpad = zkspeed
        model = SumCheckUnitModel(
            SumCheckUnitConfig(pes=pes, ees_per_pe=ees, pls_per_pe=pls,
                               sram_bank_words=sram, fixed_function=fixed,
                               build_mle_pass=build,
                               pipelined_update=pipelined,
                               witness_scratchpad=scratchpad), bw)
        p = poly(gid)
        if fixed and p.degree > ees:
            # a term that needs a second node has no fixed-function datapath
            with pytest.raises(ValueError, match="one node"):
                model.run(p, mu, fuse_fr=fuse_fr)
            return
        run = model.run(p, mu, fuse_fr=fuse_fr)
        fused = not build and (p.has_fr if fuse_fr is None else fuse_fr)
        rounds, useful, capacity, build_s = _reference_run(model, p, mu, fused)
        assert [dataclasses.astuple(r) for r in run.rounds] == rounds

        # the totals, folded the way sum() did up to Python 3.11
        latency = total_bytes = compute = 0
        for r in run.rounds:
            latency += r.latency_s
            total_bytes += r.bytes_read + r.bytes_written
            compute += r.compute_cycles
        if build_s is not None:
            latency = build_s + latency
        for got, want in ((run.latency_s, latency),
                          (run.total_bytes, total_bytes),
                          (run.compute_cycles, compute),
                          (run.useful_muls, useful),
                          (run.capacity_mul_cycles, capacity)):
            assert got == want and type(got) is type(want)


class TestMSMUnit:
    def setup_method(self):
        self.model = MSMUnitModel(MSMUnitConfig(pes=32, window_bits=9), 2048)

    def test_sparse_cheaper_than_dense(self):
        n = 1 << 20
        assert (self.model.latency_s(n, sparse=True)
                < self.model.latency_s(n, sparse=False))

    def test_roughly_linear_in_points(self):
        t1 = self.model.latency_s(1 << 20)
        t2 = self.model.latency_s(1 << 22)
        assert 3.0 < t2 / t1 < 5.0

    def test_more_pes_faster(self):
        small = MSMUnitModel(MSMUnitConfig(pes=1, window_bits=9), 2048)
        assert small.latency_s(1 << 20) > self.model.latency_s(1 << 20)

    def test_window_count(self):
        assert MSMUnitConfig(window_bits=9).num_windows == 29
        assert MSMUnitConfig(window_bits=10).num_windows == 26

    def test_invalid(self):
        with pytest.raises(ValueError):
            self.model.run(0)
        with pytest.raises(ValueError):
            MSMUnitConfig(pes=0)


class TestForestAndOthers:
    def test_forest_product_tree_muls(self):
        run = ForestModel(ForestConfig(80, 8), 2048).product_tree(1 << 20)
        assert run.multiplies == (1 << 20) - 1

    def test_forest_sized_for_matches_exemplar(self):
        sc = SumCheckUnitConfig(pes=16, ees_per_pe=7, pls_per_pe=5)
        forest = ForestConfig.sized_for(sc)
        assert forest.total_multipliers == 640  # 80 trees x 8 (§IV-B2)

    def test_forest_batch_eval_scales(self):
        m = ForestModel(ForestConfig(80, 8), 2048)
        assert (m.batch_eval(10, 1 << 20).latency_s
                > m.batch_eval(2, 1 << 20).latency_s)

    def test_permquot_latency_scales_with_columns(self):
        m = PermQuotModel(PermQuotConfig(), 2048)
        t5 = m.run(1 << 20, 5).latency_s
        t10 = m.run(1 << 20, 10).latency_s
        assert t10 > t5

    def test_mle_combine_bandwidth_bound(self):
        m = MLECombineModel(64)  # slow memory
        run = m.run(1 << 20, streams=4)
        assert run.latency_s == pytest.approx(
            memory.transfer_seconds(run.bytes_moved, 64))

    def test_mle_combine_validation(self):
        with pytest.raises(ValueError):
            MLECombineModel(2048).run(100, streams=0)


class TestAreaPower:
    def test_exemplar_matches_table5(self):
        """Table V: 294.32 mm², 202.28 W (we accept ±8%)."""
        cfg = AcceleratorConfig.exemplar()
        area = accelerator_area(cfg)
        assert area.msm == pytest.approx(105.69, rel=0.05)
        assert area.forest == pytest.approx(48.18, rel=0.05)
        assert area.sumcheck == pytest.approx(16.65, rel=0.08)
        assert area.other == pytest.approx(10.64, rel=0.10)
        assert area.hbm_phy == pytest.approx(59.20, rel=0.01)
        assert area.total == pytest.approx(294.32, rel=0.08)
        power = accelerator_power(area, cfg.bandwidth_gbps)
        assert power.total == pytest.approx(202.28, rel=0.08)

    def test_standalone_sumcheck_area_order(self):
        small = standalone_sumcheck_area(
            SumCheckUnitConfig(pes=1, ees_per_pe=2, pls_per_pe=3), 64)
        big = standalone_sumcheck_area(
            SumCheckUnitConfig(pes=32, ees_per_pe=7, pls_per_pe=8), 64)
        assert small < 2.0 < big

    def test_fixed_vs_arbitrary_prime(self):
        fixed = accelerator_area(AcceleratorConfig.exemplar())
        arb_cfg = AcceleratorConfig(
            sumcheck=SumCheckUnitConfig(pes=16, ees_per_pe=7, pls_per_pe=5,
                                        sram_bank_words=1024,
                                        fixed_prime=False),
            msm=MSMUnitConfig(pes=32, window_bits=9, points_per_pe=8192,
                              fixed_prime=False),
            forest=ForestConfig(trees=80, muls_per_tree=8, fixed_prime=False),
            bandwidth_gbps=2048.0,
        )
        arb = accelerator_area(arb_cfg)
        assert arb.compute > 1.5 * fixed.compute  # ~2x computational density


class TestFullModel:
    def test_exemplar_speedup_band(self):
        """§VI-B1: ~1400x at iso-CPU area with 2 TB/s for 2^24 Jellyfish."""
        model = ZkPhireModel(AcceleratorConfig.exemplar())
        total = model.prove_latency_s("jellyfish", 24)
        speedup = 182.896 / total
        assert 1000 < speedup < 2000

    def test_vanilla_runtimes_match_table6_shape(self):
        """Table VI zkPHIRE column (measured *without* masking):
        2.012 / 10.88 / 161.876 ms — we accept a 2.2x band."""
        cfg = AcceleratorConfig.exemplar()
        unmasked = AcceleratorConfig(
            sumcheck=cfg.sumcheck, msm=cfg.msm, forest=cfg.forest,
            bandwidth_gbps=cfg.bandwidth_gbps, mask_zerocheck=False)
        model = ZkPhireModel(unmasked)
        for mu, paper_ms in [(17, 2.012), (20, 10.88), (24, 161.876)]:
            ours = model.prove_latency_s("vanilla", mu) * 1e3
            assert paper_ms / 2.2 < ours < paper_ms * 2.2, (mu, ours)

    def test_masking_helps(self):
        cfg = AcceleratorConfig.exemplar()
        masked = ZkPhireModel(cfg).breakdown("jellyfish", 24)
        unmasked_cfg = AcceleratorConfig(
            sumcheck=cfg.sumcheck, msm=cfg.msm, forest=cfg.forest,
            bandwidth_gbps=cfg.bandwidth_gbps, mask_zerocheck=False)
        unmasked = ZkPhireModel(unmasked_cfg).breakdown("jellyfish", 24)
        assert masked.total < unmasked.total

    def test_jellyfish_reduction_wins(self):
        """Fig 13: Jellyfish gates (smaller tables) beat Vanilla."""
        model = ZkPhireModel(AcceleratorConfig.exemplar())
        vanilla = model.prove_latency_s("vanilla", 24)
        jellyfish = model.prove_latency_s("jellyfish", 19)  # 32x reduction
        assert jellyfish < vanilla / 5

    def test_proof_size_band(self):
        """Table IX: 5.09 KB Vanilla @2^24, 4.41 KB Jellyfish @2^19 (±50%)."""
        assert 3500 < proof_size_bytes("vanilla", 24) < 7600
        assert 3000 < proof_size_bytes("jellyfish", 19) < 6600

    def test_unknown_gate_type(self):
        with pytest.raises(ValueError):
            ZkPhireModel(AcceleratorConfig.exemplar()).breakdown("plonkish", 20)

    def test_opencheck_profile(self):
        p = opencheck_profile()
        assert p.degree == 2
        assert len(p.terms) == 6  # Table I row 24


class TestCpuBaseline:
    def test_table2_calibration_within_2x(self):
        """Every Table II CPU entry within 2x of the fitted model."""
        cpu = CpuModel(threads=4)
        # (profile, num_vars, repeats, measured ms)
        from repro.hw.scheduler import TermProfile

        spartan1 = PolyProfile("s1", [TermProfile((("A", 1), ("B", 1), ("f", 1))),
                                      TermProfile((("C", 1), ("f", 1)))])
        spartan2 = PolyProfile("s2", [TermProfile((("S", 1), ("Z", 1)))])
        abc = PolyProfile("abc", [TermProfile((("A", 1), ("B", 1), ("C", 1)))])
        hp20 = PolyProfile("hp20", [
            TermProfile((("qL", 1), ("w1", 1))),
            TermProfile((("qR", 1), ("w2", 1))),
            TermProfile((("qO", 1), ("w3", 1))),
            TermProfile((("qM", 1), ("w1", 1), ("w2", 1))),
            TermProfile((("qC", 1),)),
        ])
        cases = [
            (spartan1, 24, 1, 6770), (spartan2, 25, 1, 5237),
            (abc, 24, 12, 60993), (abc, 23, 6, 15248), (abc, 25, 4, 40662),
            (hp20, 24, 1, 13354),
        ]
        for profile, mu, reps, measured_ms in cases:
            ours = cpu.sumcheck_seconds(profile, mu, repeats=reps) * 1e3
            assert measured_ms / 2 < ours < measured_ms * 2, (
                profile.name, ours, measured_ms)

    def test_modmul_count_formula(self):
        p = PolyProfile("x", [__import__("repro.hw.scheduler",
                                         fromlist=["TermProfile"]).TermProfile(
            (("A", 1), ("B", 1)))])
        # d=2: per pair: 2*(1) ext + 3*2 prod + 2 upd = 10; pairs = 2^mu - 1
        assert sumcheck_modmuls(p, 3) == 10 * 7

    def test_thread_scaling(self):
        p = poly(20)
        t4 = CpuModel(threads=4).sumcheck_seconds(p, 20)
        t32 = CpuModel(threads=32).sumcheck_seconds(p, 20)
        assert t32 < t4


class TestZkSpeed:
    def test_plus_faster_than_base(self):
        """§VI-B6: zkSpeed+ is ~10% faster than zkSpeed."""
        base = SumCheckUnitModel(ZKSPEED, 2048).run(poly(20), 24).latency_s
        plus = SumCheckUnitModel(ZKSPEED_PLUS, 2048).run(
            poly(20), 24).latency_s
        assert plus < base
        assert 1.02 < base / plus < 1.6

    def test_rejects_high_degree(self):
        """A fixed-function unit runs every term in one node: zkSpeed's 8
        extension engines take a degree-8 term and refuse a degree-9 one."""
        from repro.gates import high_degree_sweep_gate

        widest = PolyProfile.from_gate(high_degree_sweep_gate(7))
        assert widest.degree == ZKSPEED_PLUS.ees_per_pe
        SumCheckUnitModel(ZKSPEED_PLUS, 2048).run(widest, 20)
        for degree in (8, 20):
            hi = PolyProfile.from_gate(high_degree_sweep_gate(degree))
            for config in (ZKSPEED, ZKSPEED_PLUS):
                with pytest.raises(ValueError, match="one node"):
                    SumCheckUnitModel(config, 2048).run(hi, 20)

    def test_zkphire_competitive_at_iso_conditions(self):
        """§VI-A3: zkPHIRE within ~2x of zkSpeed+ on Vanilla SumChecks at
        iso-bandwidth (the paper reports 30% slower at iso-area)."""
        plus = SumCheckUnitModel(ZKSPEED_PLUS, 2048)
        ours = SumCheckUnitModel(
            SumCheckUnitConfig(pes=16, ees_per_pe=7, pls_per_pe=5,
                               sram_bank_words=1024), 2048)
        t_plus = plus.run(poly(20), 24).latency_s
        t_ours = ours.run(poly(20), 24).latency_s
        assert t_ours < 2.5 * t_plus
