"""Tests for the workload catalog and the DSE machinery."""

import pytest

from repro.experiments import setups
from repro.hw.accelerator import ProtocolBreakdown, ZkPhireModel
from repro.hw.area import accelerator_area, msm_side_area, sumcheck_side_area
from repro.hw.config import AcceleratorConfig, MSMUnitConfig, SumCheckUnitConfig
from repro.hw.dse import (
    BANDWIDTHS,
    DesignPoint,
    _undominated,
    accelerator_dse,
    enumerate_sumcheck_configs,
    geomean,
    global_pareto,
    pareto_frontier,
    sumcheck_dse,
)
from repro.hw.msm_unit import MSMUnitModel
from repro.hw.sumcheck_unit import SumCheckUnitModel
from repro.plan import hyperplonk_plan
from repro.workloads import WORKLOADS, workload_by_name


class TestCatalog:
    def test_all_paper_workloads_present(self):
        names = {w.name for w in WORKLOADS}
        for expected in ("ZCash", "Zexe", "Rollup 25 Pvt Tx",
                         "Rollup 1600 Pvt Tx", "zkEVM"):
            assert expected in names

    def test_lookup_case_insensitive(self):
        assert workload_by_name("zcash").name == "ZCash"
        with pytest.raises(KeyError):
            workload_by_name("nonexistent")

    def test_gate_counts(self):
        w = workload_by_name("Rollup 25 Pvt Tx")
        assert w.vanilla_gates == 1 << 24
        assert w.jellyfish_gates == 1 << 19

    def test_zkevm_has_no_vanilla_count(self):
        w = workload_by_name("zkEVM")
        assert w.vanilla_gates is None

    def test_cpu_baselines_scale_with_size(self):
        """Bigger circuits take longer on CPU (Table VI sanity)."""
        timed = [(w.vanilla_log2, w.cpu_vanilla_s) for w in WORKLOADS
                 if w.vanilla_log2 is not None and w.cpu_vanilla_s]
        timed.sort()
        times = [t for _, t in timed]
        assert times == sorted(times)


class TestParetoFrontier:
    def _pt(self, runtime, area):
        cfg = __import__("repro.hw.config", fromlist=["AcceleratorConfig"])
        return DesignPoint(config=None, runtime_s=runtime, area_mm2=area)

    def test_dominated_points_removed(self):
        pts = [self._pt(1.0, 100), self._pt(2.0, 50), self._pt(1.5, 120),
               self._pt(3.0, 40)]
        front = pareto_frontier(pts)
        assert [(p.runtime_s, p.area_mm2) for p in front] == [
            (1.0, 100), (2.0, 50), (3.0, 40)]

    def test_single_point(self):
        front = pareto_frontier([self._pt(1.0, 1.0)])
        assert len(front) == 1

    def test_geomean(self):
        assert geomean([1.0, 100.0]) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            geomean([])


class TestSumCheckDSE:
    def test_area_budget_respected(self):
        configs = enumerate_sumcheck_configs(10.0)
        assert configs
        from repro.hw.area import standalone_sumcheck_area

        assert all(standalone_sumcheck_area(c, 0.0) <= 10.0 for c in configs)

    def test_no_configs_raises(self):
        polys = setups.training_set(num_vars=10)[:2]
        with pytest.raises(ValueError):
            sumcheck_dse(polys, area_budget_mm2=0.001, bandwidth_gbps=512)

    def test_objective_prefers_utilization_at_high_lambda(self):
        polys = setups.training_set(num_vars=12)[:4]
        grid = [SumCheckUnitConfig(pes=p, ees_per_pe=e, pls_per_pe=5,
                                   sram_bank_words=1024)
                for p in (2, 16) for e in (2, 7)]
        util_pick = sumcheck_dse(polys, 40.0, 1024, lam=0.99, configs=grid)
        perf_pick = sumcheck_dse(polys, 40.0, 1024, lam=0.0, configs=grid)
        assert util_pick.mean_utilization >= perf_pick.mean_utilization - 1e-9

    def test_best_design_has_objective_set(self):
        polys = setups.training_set(num_vars=10)[:3]
        grid = [SumCheckUnitConfig(pes=4, ees_per_pe=3, pls_per_pe=5)]
        best = sumcheck_dse(polys, 50.0, 512, configs=grid)
        assert best.objective > 0
        assert set(best.latencies) == {n for n, _, _ in polys}


class TestAcceleratorDSE:
    def test_small_sweep_produces_points(self):
        sc_grid = [SumCheckUnitConfig(pes=p, ees_per_pe=4, pls_per_pe=5,
                                      sram_bank_words=1024) for p in (4, 16)]
        msm_grid = [MSMUnitConfig(pes=p, window_bits=9) for p in (8, 32)]
        points = accelerator_dse("jellyfish", 20, 1024,
                                 sc_grid=sc_grid, msm_grid=msm_grid)
        assert points
        for p in points:
            assert p.runtime_s > 0 and p.area_mm2 > 0

    def test_pareto_of_sweep_is_subset(self):
        sc_grid = [SumCheckUnitConfig(pes=4, ees_per_pe=4, pls_per_pe=5)]
        msm_grid = [MSMUnitConfig(pes=p, window_bits=9) for p in (8, 32)]
        points = accelerator_dse("vanilla", 18, 512,
                                 sc_grid=sc_grid, msm_grid=msm_grid)
        front = pareto_frontier(points)
        assert 0 < len(front) <= len(points)

    def test_masking_flag_propagates(self):
        sc_grid = [SumCheckUnitConfig(pes=4, ees_per_pe=4, pls_per_pe=5)]
        msm_grid = [MSMUnitConfig(pes=8, window_bits=9)]
        masked = accelerator_dse("jellyfish", 18, 1024, sc_grid=sc_grid,
                                 msm_grid=msm_grid, mask_zerocheck=True)
        unmasked = accelerator_dse("jellyfish", 18, 1024, sc_grid=sc_grid,
                                   msm_grid=msm_grid, mask_zerocheck=False)
        assert masked[0].runtime_s <= unmasked[0].runtime_s


# -- the factored sweep against its oracles ------------------------------------

SWEEP_TIERS = (256, 2048)


def _rt_area(points):
    return {(p.runtime_s, p.area_mm2) for p in points}


def _exhaustive_cross(gate, num_vars, bw, sc_grid, msm_grid, mask=True):
    """Price every pair of the grid with the one-design-point model."""
    plan = hyperplonk_plan(gate, num_vars)
    points = []
    for sc in sc_grid:
        for msm in msm_grid:
            acc = AcceleratorConfig(sumcheck=sc, msm=msm, bandwidth_gbps=bw,
                                    mask_zerocheck=mask)
            points.append(DesignPoint(
                acc, ZkPhireModel(acc).price(plan).total,
                accelerator_area(acc).total))
    return points


class TestSweepAgainstOracles:
    @pytest.mark.parametrize("mask", (True, False))
    @pytest.mark.parametrize("gate", ("jellyfish", "vanilla"))
    @pytest.mark.parametrize("bw", BANDWIDTHS)
    def test_every_point_is_what_price_and_area_give(self, bw, gate, mask):
        """The oracle for the composed sweep: a point's runtime and area
        are ``==`` what the one-design-point models give its config (the
        area is composed from per-unit terms, not recomputed)."""
        plan = hyperplonk_plan(gate, 20)
        points = accelerator_dse(
            gate, 20, bw, sc_grid=setups.fast_sc_grid(),
            msm_grid=setups.fast_msm_grid(), mask_zerocheck=mask)
        assert points
        for p in points:
            assert p.config.bandwidth_gbps == bw
            assert p.config.mask_zerocheck is mask
            assert ZkPhireModel(p.config).price(plan).total == p.runtime_s
            assert accelerator_area(p.config).total == p.area_mm2

    @pytest.mark.parametrize("gate", ("jellyfish", "vanilla"))
    @pytest.mark.parametrize("bw", SWEEP_TIERS)
    def test_frontier_is_the_exhaustive_cross(self, gate, bw):
        """The regression for the proxy prune: it kept about half of the
        grid's true frontier."""
        sc_grid, msm_grid = setups.fast_sc_grid(), setups.fast_msm_grid()
        swept = accelerator_dse(gate, 20, bw, sc_grid=sc_grid,
                                msm_grid=msm_grid)
        assert len(swept) < len(sc_grid) * len(msm_grid)  # it does prune
        exhaustive = _exhaustive_cross(gate, 20, bw, sc_grid, msm_grid)
        assert (_rt_area(pareto_frontier(swept))
                == _rt_area(pareto_frontier(exhaustive)))

    def test_global_frontier_is_the_frontier_of_every_point(self):
        sc_grid = setups.fast_sc_grid()[::5]
        msm_grid = setups.fast_msm_grid()[::3]
        per_bw, front = global_pareto("jellyfish", 18, SWEEP_TIERS,
                                      sc_grid=sc_grid, msm_grid=msm_grid)
        everything = [p for bw in SWEEP_TIERS for p in _exhaustive_cross(
            "jellyfish", 18, bw, sc_grid, msm_grid)]
        assert _rt_area(front) == _rt_area(pareto_frontier(everything))
        assert list(per_bw) == list(SWEEP_TIERS)

    def test_each_unit_is_priced_once(self, monkeypatch):
        """3 SumCheck runs per SumCheck configuration, one model per MSM
        configuration, and no model run while crossing."""
        runs, msm_latencies, crossing = [], [], []
        real_run, real_msm = SumCheckUnitModel.run, MSMUnitModel.latency_s
        real_total = ProtocolBreakdown.total.fget

        def counted_run(self, *args, **kwargs):
            runs.append(self.config)
            return real_run(self, *args, **kwargs)

        def counted_msm(self, *args, **kwargs):
            msm_latencies.append(self.config)
            return real_msm(self, *args, **kwargs)

        def total(self):
            crossing.append((len(runs), len(msm_latencies)))
            return real_total(self)

        monkeypatch.setattr(SumCheckUnitModel, "run", counted_run)
        monkeypatch.setattr(MSMUnitModel, "latency_s", counted_msm)
        monkeypatch.setattr(ProtocolBreakdown, "total", property(total))
        sc_grid, msm_grid = setups.fast_sc_grid(), setups.fast_msm_grid()
        points = accelerator_dse("jellyfish", 20, 1024, sc_grid=sc_grid,
                                 msm_grid=msm_grid)
        plan = hyperplonk_plan("jellyfish", 20)
        assert len(runs) == 3 * len(sc_grid) == 216
        msms = [t for phase in plan.phases for t in phase.msms]
        assert len(msm_latencies) == len(msms) * len(msm_grid)
        # every pair was composed after the last model run
        assert len(crossing) == len(points)
        assert set(crossing) == {(len(runs), len(msm_latencies))}

    def test_schedules_are_built_once_per_terms_and_shape(self):
        from repro.hw import scheduler

        sc_grid = setups.fast_sc_grid()
        shapes = {(c.ees_per_pe, c.pls_per_pe) for c in sc_grid}
        scheduler._schedule.cache_clear()
        accelerator_dse("jellyfish", 20, 1024, sc_grid=sc_grid,
                        msm_grid=setups.fast_msm_grid())
        info = scheduler._schedule.cache_info()
        assert info.misses == 3 * len(shapes)     # three SumCheck profiles
        assert info.hits == 3 * len(sc_grid) - info.misses

    def test_side_areas_add_up_to_the_total(self):
        """The additivity the prune rests on: total area = SumCheck side
        + MSM side + a remainder that only the bandwidth moves."""
        sc_grid, msm_grid = setups.fast_sc_grid(), setups.fast_msm_grid()
        for bw in SWEEP_TIERS:
            remainders = []
            for sc, msm in zip(sc_grid, msm_grid * 3):
                acc = AcceleratorConfig(sumcheck=sc, msm=msm,
                                        bandwidth_gbps=bw)
                remainders.append(
                    accelerator_area(acc).total
                    - sumcheck_side_area(sc, acc.forest)
                    - msm_side_area(msm))
            assert max(remainders) - min(remainders) < 1e-9


class TestUndominated:
    def test_keeps_only_vectors_nothing_else_is_no_worse_than(self):
        costs = [(2.0, 2.0), (1.0, 3.0), (3.0, 1.0), (2.0, 3.0), (1.0, 3.0)]
        # (2,3) loses to (2,2); the second (1,3) is a duplicate
        assert _undominated(costs) == [0, 1, 2]

    def test_a_vector_better_in_one_component_survives(self):
        costs = [(1.0, 1.0, 9.0), (1.0, 1.0, 1.0), (0.5, 5.0, 5.0),
                 (9.0, 9.0, 0.5)]
        assert _undominated(costs) == [1, 2, 3]

    def test_empty_and_single(self):
        assert _undominated([]) == []
        assert _undominated([(4.0,)]) == [0]
