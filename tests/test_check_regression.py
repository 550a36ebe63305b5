"""Unit tests for the CI bench-regression gate (benchmarks/check_regression.py).

The gate itself guards the benchmark records, so its comparison rules —
exact structural keys, ±tolerance headline ratios, loud failures on
missing keys — get locked down here with synthetic records.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.fleet.scenario import Scenario

_MODULE_PATH = (
    Path(__file__).resolve().parents[1] / "benchmarks" / "check_regression.py"
)
_spec = importlib.util.spec_from_file_location("check_regression", _MODULE_PATH)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)

SUMCHECK_RECORD = {
    "benchmark": "sumcheck_fastpath",
    "unit": "seconds",
    "backend": "fused",
    "speedup_floor_mu12": 2.0,
    "rows": [
        {
            "name": "vanilla-mu12",
            "gate_id": 20,
            "mu": 12,
            "degree": 4,
            "num_mles": 9,
            "num_terms": 5,
            "reference_s": 0.2,
            "fused_s": 0.08,
            "speedup": 2.5,
            "acceptance_row": True,
        },
    ],
}


#: a cluster record whose rows carry their cells as ``scenario`` blocks
CLUSTER_RECORD = {
    "benchmark": "cluster_scaling",
    "unit": "model_jobs_per_s",
    "speedup_floor_affinity_vs_round_robin": 1.2,
    "affinity_vs_round_robin": 1.6,
    "acceptance": [
        {
            "scenario": Scenario(jobs=96, execute=True).as_dict(),
            "jobs": 96,
            "model_jobs_per_s": 51.4,
            "shape_spread": 1.0,
            "sim_cache_hit_rate": 0.92,
            "real_cache_hit_rate": 0.88,
        },
    ],
    "sweep": [
        {
            "scenario": Scenario(jobs=96, nodes=1).as_dict(),
            "model_jobs_per_s": 8.2,
            "cache_hit_rate": 0.62,
            "shape_spread": 1.0,
        },
    ],
}


def clone(doc):
    return json.loads(json.dumps(doc))


class TestExtract:
    def test_plain_and_nested_paths(self):
        doc = {"a": {"b": 3}, "c": 1}
        assert check_regression.extract(doc, "c") == [("c", 1)]
        assert check_regression.extract(doc, "a.b") == [("a.b", 3)]

    def test_list_wildcard(self):
        doc = {"rows": [{"v": 1}, {"v": 2}]}
        assert check_regression.extract(doc, "rows[*].v") == [
            ("rows[0].v", 1),
            ("rows[1].v", 2),
        ]

    def test_dict_wildcard(self):
        doc = {"costs": {"b": 2.0, "a": 1.0}}
        assert check_regression.extract(doc, "costs.*") == [
            ("costs.a", 1.0),
            ("costs.b", 2.0),
        ]

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            check_regression.extract({"a": 1}, "b")


class TestCompareRecords:
    def test_identical_records_pass(self):
        problems = check_regression.compare_records(
            "BENCH_sumcheck.json", SUMCHECK_RECORD, clone(SUMCHECK_RECORD)
        )
        assert problems == []

    def test_ratio_within_tolerance_passes(self):
        fresh = clone(SUMCHECK_RECORD)
        fresh["rows"][0]["speedup"] = 2.5 * 1.25  # +25% < 30%
        problems = check_regression.compare_records(
            "BENCH_sumcheck.json", SUMCHECK_RECORD, fresh
        )
        assert problems == []

    def test_ratio_beyond_tolerance_fails(self):
        fresh = clone(SUMCHECK_RECORD)
        fresh["rows"][0]["speedup"] = 1.0  # -60%
        problems = check_regression.compare_records(
            "BENCH_sumcheck.json", SUMCHECK_RECORD, fresh
        )
        assert any("ratio drift" in p for p in problems)
        # the triage message must carry the drift's sign: this is a drop
        assert any("-60.0%" in p for p in problems)

    def test_tolerance_is_configurable(self):
        fresh = clone(SUMCHECK_RECORD)
        fresh["rows"][0]["speedup"] = 2.5 * 1.25
        problems = check_regression.compare_records(
            "BENCH_sumcheck.json", SUMCHECK_RECORD, fresh, tolerance=0.10
        )
        assert any("ratio drift" in p for p in problems)

    def test_structural_drift_fails(self):
        fresh = clone(SUMCHECK_RECORD)
        fresh["rows"][0]["mu"] = 13
        problems = check_regression.compare_records(
            "BENCH_sumcheck.json", SUMCHECK_RECORD, fresh
        )
        assert any("structural drift" in p for p in problems)

    def test_absolute_seconds_are_not_compared(self):
        fresh = clone(SUMCHECK_RECORD)
        fresh["rows"][0]["reference_s"] = 40.0  # machine-dependent: ignored
        fresh["rows"][0]["fused_s"] = 16.0
        problems = check_regression.compare_records(
            "BENCH_sumcheck.json", SUMCHECK_RECORD, fresh
        )
        assert problems == []

    def test_row_count_change_fails(self):
        fresh = clone(SUMCHECK_RECORD)
        fresh["rows"].append(clone(SUMCHECK_RECORD["rows"][0]))
        problems = check_regression.compare_records(
            "BENCH_sumcheck.json", SUMCHECK_RECORD, fresh
        )
        assert any("appeared" in p for p in problems)

    def test_missing_key_reported(self):
        fresh = clone(SUMCHECK_RECORD)
        del fresh["rows"][0]["speedup"]
        problems = check_regression.compare_records(
            "BENCH_sumcheck.json", SUMCHECK_RECORD, fresh
        )
        assert any("missing key" in p for p in problems)

    def test_scenario_block_is_compared_field_by_field(self):
        def problems(fresh):
            return check_regression.compare_records(
                "BENCH_cluster.json", CLUSTER_RECORD, fresh
            )

        assert problems(clone(CLUSTER_RECORD)) == []
        fresh = clone(CLUSTER_RECORD)
        fresh["sweep"][0]["scenario"]["replicas"] = 7
        assert any(
            p.startswith("structural drift at sweep[0].scenario.replicas")
            for p in problems(fresh)
        )
        fresh = clone(CLUSTER_RECORD)
        fresh["sweep"][0]["scenario"]["zones"] = 2
        assert problems(fresh) == ["structural key appeared: sweep[0].scenario.zones"]
        fresh = clone(CLUSTER_RECORD)
        del fresh["sweep"][0]["scenario"]
        vanished = "structural key vanished: sweep[0].scenario.replicas"
        assert vanished in problems(fresh)

    def test_unknown_record_name_fails(self):
        problems = check_regression.compare_records("BENCH_new.json", {}, {})
        assert any("no comparison spec" in p for p in problems)

    def test_every_committed_record_has_a_spec(self):
        repo = Path(__file__).resolve().parents[1]
        committed = {p.name for p in repo.glob("BENCH_*.json")}
        assert committed <= set(check_regression.SPECS)


class TestCli:
    def test_self_comparison_of_committed_records(self, capsys):
        """Every committed record is within policy vs itself."""
        repo = Path(__file__).resolve().parents[1]
        code = check_regression.main(
            ["--baseline-dir", str(repo), "--fresh-dir", str(repo)]
        )
        assert code == 0
        assert "DRIFT" not in capsys.readouterr().out

    def test_missing_baseline_fails(self, tmp_path):
        repo = Path(__file__).resolve().parents[1]
        code = check_regression.main(
            [
                "--baseline-dir",
                str(tmp_path),
                "--fresh-dir",
                str(repo),
                "--only",
                "BENCH_sumcheck.json",
            ]
        )
        assert code == 1

    def test_bad_tolerance_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            args = ["--baseline-dir", ".", "--tolerance", "1.5"]
            check_regression.main(args)
        assert excinfo.value.code == 2
