"""Integration tests over the experiment harness (fast mode).

The benchmarks in ``benchmarks/`` assert the headline claims; these
tests cover harness mechanics (row schemas, formatting, reuse paths).
"""

import pytest
from goldens import RECORD, paper_text, paper_texts, pinned, read_record, sha256

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments import table01, fig08, fig12, fig13, fig14
from repro.experiments import table05, table06, table07, table08, table09
from repro.experiments.__main__ import main as experiments_cli
from repro.experiments.common import ExperimentResult, geomean
from repro.hw import dse


class TestGoldenDigests:
    """Every experiment summary on the fast grid hashes to the digest
    recorded under Python 3.11 (``paper/fast/`` in ``tests/goldens.json``),
    on every interpreter: a model value that moves in its last bit, or
    that depends on how ``sum()`` adds floats, fails here by name."""

    def test_record_covers_every_experiment(self):
        recorded = [n for n in read_record(RECORD) if n.startswith("paper/fast/")]
        assert recorded == [f"paper/fast/{name}" for name in ALL_EXPERIMENTS]

    @pytest.mark.parametrize("name", ALL_EXPERIMENTS)
    def test_summary_digest_is_the_recorded_one(self, name):
        assert sha256(paper_texts(True)[name]) == pinned(f"paper/fast/{name}")

    def test_private_payloads_are_not_hashed(self):
        public = {"best speedup": 2.5}
        assert paper_text({**public, "_front": object()}) == paper_text(public)


class TestCLI:
    def test_list_flag_prints_valid_names(self, capsys):
        assert experiments_cli(["--list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == ALL_EXPERIMENTS

    def test_unknown_name_fails_with_valid_names(self, capsys):
        rc = experiments_cli(["fig99", "nope"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown experiment(s): fig99, nope" in err
        assert "table01" in err and "fig12" in err

    def test_known_name_still_runs(self, capsys):
        assert experiments_cli(["table01"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_fig10_sweep_is_handed_to_table04_and_fig11(self, capsys,
                                                        monkeypatch):
        """One invocation sweeps the seven tiers once, and prints what
        each experiment prints when it sweeps for itself."""
        tiers_swept = []
        real = dse.accelerator_dse

        def counted(gate, num_vars, bw, **kwargs):
            tiers_swept.append(bw)
            return real(gate, num_vars, bw, **kwargs)

        monkeypatch.setattr(dse, "accelerator_dse", counted)

        def tables(*names):
            assert experiments_cli(list(names)) == 0
            return [line for line in capsys.readouterr().out.splitlines()
                    if " ran in " not in line]

        together = tables("fig10", "table04", "fig11")
        assert tiers_swept == list(dse.BANDWIDTHS)
        alone = tables("fig10") + tables("table04") + tables("fig11")
        assert len(tiers_swept) == 4 * len(dse.BANDWIDTHS)
        assert together == alone
        # a reader named before fig10 has nothing to take
        tables("table04", "fig10")
        assert len(tiers_swept) == 6 * len(dse.BANDWIDTHS)


class TestCommon:
    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            geomean([])

    def test_format_table_rounding_and_private_keys(self):
        r = ExperimentResult("x", "A title",
                             rows=[{"a": 1.23456, "b": "text"}],
                             summary={"ok": 2.0, "_hidden": object()})
        text = r.format_table()
        assert "A title" in text and "1.235" in text
        assert "_hidden" not in text

    def test_max_rows_elision(self):
        r = ExperimentResult("x", "t", rows=[{"i": i} for i in range(10)])
        assert "more rows" in r.format_table(max_rows=3)

    def test_empty_table(self):
        assert "(no rows)" in ExperimentResult("x", "t").format_table()


class TestSchemas:
    def test_table01_row_schema(self):
        rows = table01.run().rows
        assert len(rows) == 25
        assert {"id", "name", "degree", "terms"} <= set(rows[0])

    def test_fig08_steps_monotone_in_ees(self):
        rows = fig08.run().rows
        for row in rows:
            assert row["steps@2"] >= row["steps@7"]

    def test_fig12_shares_sum_to_100(self):
        result = fig12.run()
        cpu_rows = [r for r in result.rows if r["platform"] == "CPU"]
        zk_rows = [r for r in result.rows if r["platform"] == "zkPHIRE"]
        assert sum(r["share %"] for r in cpu_rows) == pytest.approx(100, abs=1)
        assert sum(r["share %"] for r in zk_rows) == pytest.approx(100, abs=1)

    def test_fig13_vanilla_baseline_is_one(self):
        assert all(r["Vanilla"] == 1.0 for r in fig13.run().rows)

    def test_fig14_monotone_sumcheck(self):
        rows = fig14.run().rows
        sc = [r["SumCheck (ms)"] for r in rows]
        assert sc == sorted(sc)

    def test_table05_has_total_row(self):
        rows = table05.run().rows
        assert rows[-1]["module"] == "TOTAL"

    def test_table06_skips_workloads_without_vanilla(self):
        names = [r["workload"] for r in table06.run().rows]
        assert "zkEVM" not in names
        assert "Rollup 1600 Pvt Tx" not in names

    def test_table07_covers_2_30(self):
        rows = table07.run().rows
        assert any(r["workload"] == "Rollup 1600 Pvt Tx" for r in rows)

    def test_table08_five_workloads(self):
        assert len(table08.run().rows) == 5

    def test_table09_four_accelerators(self):
        rows = table09.run().rows
        assert [r["accelerator"] for r in rows] == [
            "NoCap", "SZKP+", "zkSpeed+", "zkPHIRE (ours)"]
