"""Benchmarks regenerating every table and figure of the paper's §VI.

Run with ``pytest benchmarks/ --benchmark-only``.  Each test times the
experiment and prints the regenerated rows; headline assertions check
the paper's qualitative claims (who wins, approximate factors,
crossovers) — see EXPERIMENTS.md for the full paper-vs-measured record.
"""


from repro.experiments import (  # noqa: F401 (imported for names)
    common,
)
from repro.experiments import (
    fig06, fig07, fig08, fig09, fig10, fig11, fig12, fig13, fig14,
    table01, table02, table04, table05, table06, table07, table08, table09,
)


class TestTableI:
    def test_table01_library(self, benchmark, show):
        result = benchmark(table01.run)
        show(result)
        assert result.summary["polynomials"] == 25
        assert result.summary["max degree"] == 7  # Jellyfish polys


class TestFig6:
    def test_fig06_sumcheck_speedups(self, benchmark, show):
        result = benchmark.pedantic(fig06.run, rounds=1, iterations=1)
        show(result)
        # paper: geomean grows monotonically 61x .. 2209x across tiers
        gms = [r["geomean speedup"] for r in result.rows]
        assert gms == sorted(gms)
        assert gms[0] > 30
        # ~1000x-class speedup by 1 TB/s (paper: 955x)
        assert result.summary["geomean@1024"] > 500
        # utilization in the moderate band the paper reports
        assert all(0.25 < r["mean util"] < 0.8 for r in result.rows)


class TestFig7:
    def test_fig07_degree_sweep(self, benchmark, show):
        result = benchmark.pedantic(fig07.run, rounds=1, iterations=1)
        show(result)
        # low-degree speedup is bandwidth-starved; high-degree is not
        assert (result.summary["low-degree BW sensitivity"]
                > 2 * result.summary["high-degree BW sensitivity"])
        # high-degree reaches ~1000x at DDR5-class bandwidth
        assert result.summary["speedup@256GB/s, max degree"] > 1000


class TestFig8:
    def test_fig08_scheduler_jumps(self, benchmark, show):
        result = benchmark.pedantic(fig08.run, rounds=1, iterations=1)
        show(result, max_rows=10)
        # more EEs -> first scheduler jump at higher degree
        jumps = [result.summary[f"first jump @{e} EEs"] for e in (3, 4, 5, 6, 7)]
        assert jumps == sorted(jumps)
        # latency decreases with EE count at fixed degree
        last = result.rows[-1]
        assert last["2 EEs"] > last["4 EEs"] > last["7 EEs"]


class TestFig9:
    def test_fig09_prior_asics(self, benchmark, show):
        result = benchmark(fig09.run)
        show(result)
        ratio = result.summary["zkPHIRE/zkSpeed+ (Vanilla total)"]
        # paper: zkPHIRE within ~1.3x of zkSpeed+ at iso-area/iso-BW
        assert 0.7 < ratio < 1.7
        # Jellyfish 4x and 8x beat Vanilla zkSpeed+ (2x does not clearly)
        assert result.summary["Jellyfish4x vs zkSpeed+ speedup"] > 1.0
        assert (result.summary["Jellyfish8x vs zkSpeed+ speedup"]
                > result.summary["Jellyfish4x vs zkSpeed+ speedup"])


class TestTableII:
    def test_table02_cpu_gpu(self, benchmark, show):
        result = benchmark(table02.run)
        show(result)
        # paper: ~70x over GPU, 600-1100x over CPU
        assert 40 < result.summary["geomean vs GPU"] < 160
        assert 500 < result.summary["geomean vs CPU"] < 2500
        # ICICLE cannot express polys 21-24
        unsupported = [r for r in result.rows if not r["ICICLE ok"]]
        assert len(unsupported) == 4


class TestFig10TableIV:
    def test_fig10_pareto(self, benchmark, show):
        result = benchmark.pedantic(fig10.run, rounds=1, iterations=1)
        show(result)
        # speedup grows with bandwidth tier; ~1000x reachable at 1 TB/s
        spd = [r["speedup"] for r in result.rows]
        assert spd == sorted(spd)
        at_1tb = next(r for r in result.rows if r["BW (GB/s)"] == 1024)
        assert at_1tb["speedup"] > 700

    def test_table04_global_designs(self, benchmark, show):
        result = benchmark.pedantic(table04.run, rounds=1, iterations=1)
        show(result)
        rows = result.rows
        assert len(rows) >= 5
        # Pareto: runtime increases, area decreases down the table
        runtimes = [r["runtime (ms)"] for r in rows]
        areas = [r["area (mm2)"] for r in rows]
        assert runtimes == sorted(runtimes)
        assert areas == sorted(areas, reverse=True)
        # two-order-of-magnitude speedup at the small end (paper: 107x)
        assert rows[-1]["CPU speedup"] > 80


class TestTableIIIGrid:
    """The paper's own grid (``repro-experiments --full``): 1 296 SumCheck
    x 120 MSM configurations per tier, not the reduced fast grids."""

    def test_full_frontier_dominates_the_fast_grids(self, benchmark):
        _, fast_front = fig10.compute(fast=True)
        _, full_front = benchmark.pedantic(
            fig10.compute, kwargs={"fast": False}, rounds=1, iterations=1)
        # the fast grids are subsets of Table III, so the wider search
        # can only match or beat every design the narrower one found
        assert len(full_front) >= len(fast_front)
        for p in fast_front:
            assert any(q.runtime_s <= p.runtime_s and q.area_mm2 <= p.area_mm2
                       for q in full_front), (p.runtime_s, p.area_mm2)

    def test_fig06_full_grid_geomeans_monotone(self, benchmark, show):
        result = benchmark.pedantic(
            fig06.run, kwargs={"fast": False}, rounds=1, iterations=1)
        show(result)
        gms = [r["geomean speedup"] for r in result.rows]
        assert gms == sorted(gms)
        assert gms[0] > 30


class TestFig11:
    def test_fig11_breakdowns(self, benchmark, show):
        result = benchmark.pedantic(fig11.run, rounds=1, iterations=1)
        show(result)
        # MSM dominates area at every Pareto point (paper)
        for row in result.rows:
            assert row["area: MSM %"] > row["area: SumCheck %"]
        # SumCheck runtime share shrinks from A to D (less bandwidth)
        assert (result.rows[0]["rt: SumCheck %"]
                >= result.rows[-1]["rt: SumCheck %"])


class TestFig12:
    def test_fig12_breakdown(self, benchmark, show):
        result = benchmark(fig12.run)
        show(result, max_rows=15)
        # paper zkPHIRE shares: 7.8 / 21.4 / 37.9 / 33.0 (±12 points)
        targets = {
            "Witness MSMs": 7.8, "Gate Identity": 21.4,
            "Wire Identity": 37.9, "Batch Evals & Poly Open": 33.0,
        }
        for phase, target in targets.items():
            ours = result.summary[f"zkPHIRE {phase} %"]
            assert abs(ours - target) < 12, (phase, ours)


class TestTableV:
    def test_table05_area_power(self, benchmark, show):
        result = benchmark(table05.run)
        show(result)
        assert abs(result.summary["area delta %"]) < 8
        assert abs(result.summary["power delta %"]) < 8


class TestFig13:
    def test_fig13_workload_speedups(self, benchmark, show):
        result = benchmark(fig13.run)
        show(result)
        for row in result.rows:
            # Jellyfish always wins; masking adds on top (paper: ~25%)
            assert row["Jellyfish"] > 1.0
            assert row["Jellyfish+MskZC"] > row["Jellyfish"]
        # large workloads approach the gate-reduction factor
        big = next(r for r in result.rows if r["workload"] == "Rollup 1600")
        assert big["Jellyfish+MskZC"] > 16  # paper: 31.93 for 32x reduction


class TestFig14:
    def test_fig14_crossover(self, benchmark, show):
        result = benchmark(fig14.run)
        show(result, max_rows=20)
        # MSM constant across the sweep; SumCheck share rises
        assert result.summary["MSM constant?"]
        shares = [r["SumCheck share %"] for r in result.rows]
        assert shares[-1] > shares[0]
        # SumCheck approaches/overtakes MSM at high degree (paper: d=18)
        assert shares[-1] > 45


class TestTableVI:
    def test_table06_vanilla(self, benchmark, show):
        result = benchmark(table06.run)
        show(result)
        # paper: 700-1000x over CPU; within ~2x of zkSpeed+
        assert 600 < result.summary["geomean vs CPU"] < 2200
        assert 0.5 < result.summary["zkPHIRE/zkSpeed+ geomean"] < 1.5


class TestTableVII:
    def test_table07_jellyfish(self, benchmark, show):
        result = benchmark(table07.run)
        show(result)
        # paper: 1486x geomean, scaling to 2^30 nominal gates
        assert 900 < result.summary["geomean speedup"] < 2500
        assert any(r["vanilla gates"] == "2^30" for r in result.rows)


class TestTableVIII:
    def test_table08_iso_application(self, benchmark, show):
        result = benchmark(table08.run)
        show(result)
        # paper: 11.87x geomean (2.43x .. 39.23x)
        assert 6 < result.summary["geomean speedup"] < 25
        spd = {r["workload"]: r["speedup"] for r in result.rows}
        assert spd["Rollup 25 Pvt Tx"] > spd["ZCash"]


class TestTableIX:
    def test_table09_cross_accelerator(self, benchmark, show):
        result = benchmark(table09.run)
        show(result)
        # paper: 39x / 7x / 39x over NoCap / SZKP+ / zkSpeed+
        assert 20 < result.summary["vs NoCap"] < 70
        assert 4 < result.summary["vs SZKP+"] < 12
        assert 20 < result.summary["vs zkSpeed+"] < 70
        ours = result.rows[-1]
        assert ours["setup"] == "universal"
        assert "KB" in ours["proof"]
