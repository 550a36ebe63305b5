"""Unit tests for the CI bench-regression gate (benchmarks/check_regression.py).

The gate itself guards the benchmark records, so its comparison rules —
``exact`` values equal, ``ratio`` values within ±tolerance, ``info``
values never compared, loud failures on missing, ungated or nested
keys — get locked down here with synthetic records.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.fleet.scenario import Scenario

REPO = Path(__file__).resolve().parents[1]
_MODULE_PATH = REPO / "benchmarks" / "check_regression.py"
_spec = importlib.util.spec_from_file_location("check_regression", _MODULE_PATH)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)

SUMCHECK_RECORD = {
    "exact": {
        "benchmark": "sumcheck_fastpath",
        "unit": "seconds",
        "backend": "fused",
        "speedup_floor_mu12": 2.0,
    },
    "rows": [
        {
            "exact": {
                "name": "vanilla-mu12",
                "gate_id": 20,
                "mu": 12,
                "degree": 4,
                "num_mles": 9,
                "num_terms": 5,
                "acceptance_row": True,
            },
            "ratio": {"speedup": 2.5},
            "info": {"reference_s": 0.2, "fused_s": 0.08},
        },
    ],
}


#: a cluster record whose rows carry their cells as ``scenario`` blocks
CLUSTER_RECORD = {
    "exact": {
        "benchmark": "cluster_scaling",
        "unit": "model_jobs_per_s",
        "speedup_floor_affinity_vs_round_robin": 1.2,
    },
    "ratio": {"affinity_vs_round_robin": 1.6},
    "acceptance": [
        {
            "exact": {
                "scenario": Scenario(jobs=96, policy="round_robin").as_dict(),
                "jobs": 96,
                "shape_spread": 1.0,
            },
            "ratio": {
                "model_jobs_per_s": 51.4,
                "sim_cache_hit_rate": 0.92,
                "real_cache_hit_rate": 0.88,
            },
        },
    ],
    "sweep": [
        {
            "exact": {
                "scenario": Scenario(jobs=96, nodes=1).as_dict(),
                "shape_spread": 1.0,
            },
            "ratio": {"model_jobs_per_s": 8.2, "cache_hit_rate": 0.62},
        },
    ],
}


def clone(doc):
    return json.loads(json.dumps(doc))


def compare(fresh, baseline=SUMCHECK_RECORD, **kwargs):
    return check_regression.compare_records(baseline, fresh, **kwargs)


def leaves(doc, path=""):
    """Every leaf path of a JSON document (an empty container is one)."""
    if isinstance(doc, dict) and doc:
        for key, value in doc.items():
            yield from leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list) and doc:
        for index, item in enumerate(doc):
            yield from leaves(item, f"{path}[{index}]")
    else:
        yield path


class TestFlatten:
    def test_leaf_kind_is_its_nearest_section(self):
        problems = []
        flat = check_regression.flatten(SUMCHECK_RECORD, problems, "fresh")
        assert problems == []
        assert flat["exact.unit"] == ("exact", "seconds")
        assert flat["rows[0].exact.name"] == ("exact", "vanilla-mu12")
        assert flat["rows[0].ratio.speedup"] == ("ratio", 2.5)
        assert flat["rows[0].info.fused_s"] == ("info", 0.08)

    def test_empty_containers_are_leaves(self):
        flat = check_regression.flatten({"info": {"pairs": []}}, [], "fresh")
        assert flat == {"info.pairs": ("info", [])}


class TestCompareRecords:
    def test_identical_records_pass(self):
        assert compare(clone(SUMCHECK_RECORD)) == []

    def test_ratio_within_tolerance_passes(self):
        fresh = clone(SUMCHECK_RECORD)
        fresh["rows"][0]["ratio"]["speedup"] = 2.5 * 1.25  # +25% < 30%
        assert compare(fresh) == []

    def test_ratio_beyond_tolerance_fails(self):
        fresh = clone(SUMCHECK_RECORD)
        fresh["rows"][0]["ratio"]["speedup"] = 1.0  # -60%
        problems = compare(fresh)
        drift = "ratio drift at rows[0].ratio.speedup"
        assert any(p.startswith(drift) for p in problems)
        # the triage message must carry the drift's sign: this is a drop
        assert any("-60.0%" in p for p in problems)

    def test_tolerance_is_configurable(self):
        fresh = clone(SUMCHECK_RECORD)
        fresh["rows"][0]["ratio"]["speedup"] = 2.5 * 1.25
        assert any("ratio drift" in p for p in compare(fresh, tolerance=0.10))

    def test_non_numeric_ratio_fails(self):
        fresh = clone(SUMCHECK_RECORD)
        fresh["rows"][0]["ratio"]["speedup"] = "fast"
        assert compare(fresh) == ["non-numeric ratio at rows[0].ratio.speedup"]

    def test_exact_drift_fails(self):
        fresh = clone(SUMCHECK_RECORD)
        fresh["rows"][0]["exact"]["mu"] = 13
        assert compare(fresh) == [
            "exact drift at rows[0].exact.mu: baseline 12 != fresh 13"
        ]

    def test_info_values_are_not_compared(self):
        fresh = clone(SUMCHECK_RECORD)
        fresh["rows"][0]["info"]["reference_s"] = 40.0  # machine-dependent
        fresh["rows"][0]["info"]["fused_s"] = 16.0
        fresh["rows"][0]["info"]["new_s"] = 1.0
        del fresh["rows"][0]["info"]["fused_s"]
        assert compare(fresh) == []

    def test_row_count_change_fails(self):
        fresh = clone(SUMCHECK_RECORD)
        fresh["rows"].append(clone(SUMCHECK_RECORD["rows"][0]))
        problems = compare(fresh)
        assert "exact key appeared: rows[1].exact.name" in problems
        assert "ratio key appeared: rows[1].ratio.speedup" in problems

    def test_missing_key_reported(self):
        fresh = clone(SUMCHECK_RECORD)
        del fresh["rows"][0]["ratio"]["speedup"]
        problems = compare(fresh)
        assert "ratio key vanished: rows[0].ratio.speedup" in problems

    def test_value_moved_to_another_section_fails(self):
        fresh = clone(SUMCHECK_RECORD)
        fresh["rows"][0]["info"]["speedup"] = fresh["rows"][0]["ratio"].pop("speedup")
        assert "ratio key vanished: rows[0].ratio.speedup" in compare(fresh)

    def test_leaf_outside_every_section_fails(self):
        fresh = clone(SUMCHECK_RECORD)
        fresh["rows"][0]["speedup"] = 2.5
        assert compare(fresh) == [
            "fresh: ungated key (outside every section): rows[0].speedup"
        ]
        assert compare(SUMCHECK_RECORD, baseline=fresh) == [
            "baseline: ungated key (outside every section): rows[0].speedup"
        ]

    def test_section_inside_a_section_fails(self):
        fresh = clone(SUMCHECK_RECORD)
        fresh["rows"][0]["exact"]["cell"] = {"ratio": {"speedup": 2.5}}
        assert compare(fresh) == [
            "fresh: section nested in 'exact': rows[0].exact.cell.ratio"
        ]

    def test_scenario_block_is_compared_field_by_field(self):
        def problems(fresh):
            return compare(fresh, baseline=CLUSTER_RECORD)

        assert problems(clone(CLUSTER_RECORD)) == []
        fresh = clone(CLUSTER_RECORD)
        fresh["sweep"][0]["exact"]["scenario"]["replicas"] = 7
        assert any(
            p.startswith("exact drift at sweep[0].exact.scenario.replicas")
            for p in problems(fresh)
        )
        fresh = clone(CLUSTER_RECORD)
        fresh["sweep"][0]["exact"]["scenario"]["zones"] = 2
        assert problems(fresh) == ["exact key appeared: sweep[0].exact.scenario.zones"]
        fresh = clone(CLUSTER_RECORD)
        del fresh["sweep"][0]["exact"]["scenario"]
        vanished = "exact key vanished: sweep[0].exact.scenario.replicas"
        assert vanished in problems(fresh)

    def test_every_committed_leaf_is_in_exactly_one_section(self):
        committed = sorted(REPO.glob("BENCH_*.json"))
        assert len(committed) == 9
        for path in committed:
            doc = json.loads(path.read_text())
            problems = []
            flat = check_regression.flatten(doc, problems, path.name)
            assert problems == [], problems
            assert sorted(flat) == sorted(leaves(doc)), path.name


class TestCli:
    def run(self, baseline_dir, fresh_dir, *extra):
        dirs = ["--baseline-dir", str(baseline_dir), "--fresh-dir", str(fresh_dir)]
        return check_regression.main([*dirs, *extra])

    def test_self_comparison_of_committed_records(self, capsys):
        """Every committed record is within policy vs itself."""
        assert self.run(REPO, REPO) == 0
        out = capsys.readouterr().out
        assert "DRIFT" not in out
        assert out.count("OK") == 9

    def test_missing_baseline_fails(self, tmp_path):
        assert self.run(tmp_path, REPO, "--only", "BENCH_sumcheck.json") == 1

    def test_record_on_one_side_only_is_drift(self, tmp_path, capsys):
        record = json.dumps(SUMCHECK_RECORD)
        (tmp_path / "base").mkdir()
        (tmp_path / "fresh").mkdir()
        (tmp_path / "base" / "BENCH_a.json").write_text(record)
        (tmp_path / "fresh" / "BENCH_a.json").write_text(record)
        (tmp_path / "fresh" / "BENCH_new.json").write_text(record)
        assert self.run(tmp_path / "base", tmp_path / "fresh") == 1
        out = capsys.readouterr().out
        assert "OK    BENCH_a.json" in out
        assert "DRIFT BENCH_new.json" in out and "missing baseline" in out

    @pytest.mark.parametrize("side", ["base", "fresh"])
    def test_record_that_is_not_json_exits_2_naming_it(self, tmp_path, capsys, side):
        record = json.dumps(CLUSTER_RECORD)
        for name in ("base", "fresh"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "BENCH_fleet.json").write_text(record)
        bad = tmp_path / side / "BENCH_fleet.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit) as excinfo:
            self.run(tmp_path / "base", tmp_path / "fresh")
        assert excinfo.value.code == 2
        assert str(bad) in capsys.readouterr().err

    def test_only_name_with_no_file_exits_2_naming_it(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            self.run(tmp_path, REPO, "--only", "BENCH_nowhere.json")
        assert excinfo.value.code == 2
        assert "BENCH_nowhere.json" in capsys.readouterr().err

    def test_bad_tolerance_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            check_regression.main(["--baseline-dir", ".", "--tolerance", "1.5"])
        assert excinfo.value.code == 2
