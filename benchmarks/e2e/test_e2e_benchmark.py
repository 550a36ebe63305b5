"""Smoke test of the benchmark harness at toy size (tier-1 safe).

Every workload runs once untraced and once traced with ``toy=True``
(μ=4 proof, μ=6 SumCheck, 6 service jobs on the ``sync`` executor,
2 000 simulated jobs, four experiments).  The tests check names, units,
structure and correctness gates — never a wall-clock value.
"""

import copy
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as run_module  # noqa: E402
from e2ebench import measure, spec as spec_module  # noqa: E402

SPEC = spec_module.load()
CLASSES = run_module.workload_classes()


def test_benchmark_json_matches_the_harness():
    assert set(CLASSES) == set(SPEC.workloads)
    assert set(spec_module.MOVES) == set(SPEC.per_layer)
    assert SPEC.doc["paths"] == ["benchmarks/e2e"]
    assert SPEC.doc["command"] == ["python3", "benchmarks/e2e/run.py"]
    for metric in list(SPEC.end_to_end.values()) + list(SPEC.per_layer.values()):
        assert metric["unit"] and metric["better"] in ("lower", "higher")


@pytest.mark.parametrize(
    "mutate, offender",
    [
        (lambda d: d["per_layer"][0].update(name="bad name"), "bad name"),
        (lambda d: d["per_layer"].pop(), "missing from BENCHMARK.json"),
        (lambda d: d["end_to_end"][1].update(bound=0.5), "work_per_s"),
        (lambda d: d["end_to_end"][1].pop("unit"), "work_per_s"),
        (lambda d: d["end_to_end"].pop(0), "setup_s"),
        (lambda d: d["workloads"][0].update(why="x" * 201), "why"),
        (lambda d: d["workloads"][1].update(name=d["workloads"][0]["name"]), "twice"),
        (lambda d: d.update(baseline={}), "keys must be exactly"),
    ],
)
def test_schema_self_check_names_the_offender(mutate, offender):
    doc = copy.deepcopy(SPEC.doc)
    mutate(doc)
    with pytest.raises(spec_module.SpecError, match=offender):
        spec_module.check(doc)


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_untraced_toy_run_emits_every_end_to_end_metric(name, monkeypatch):
    monkeypatch.setattr(measure, "SETUP_SAMPLES_MIN", 1)  # no set-up children
    monkeypatch.setattr(measure, "SETUP_BUDGET_S", 0.0)
    workload = CLASSES[name](3, toy=True)
    metrics, attempted, failed, _ = measure.run_untraced(
        workload, 0.0, entered_s=time.perf_counter(), run_py=HERE / "run.py"
    )
    assert set(metrics) == set(SPEC.end_to_end)
    assert all(value > 0 for value in metrics.values())
    assert attempted >= 1 and failed == 0


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_traced_toy_run_emits_every_per_layer_metric(name, tmp_path):
    workload = CLASSES[name](3, toy=True)
    trace_path = tmp_path / "trace.json"
    metrics, attempted, failed = measure.run_traced(workload, 0.0, SPEC, trace_path)
    assert set(metrics) == set(SPEC.per_layer)
    assert attempted >= 1 and failed == 0

    trace = json.loads(trace_path.read_text())
    assert trace["workload"] == name and trace["span_count"] == len(trace["spans"])
    for index, _, start, end, parent, _ in trace["spans"]:
        assert end >= start and (parent is None or parent < index)

    proves = name in (spec_module.PROVE, spec_module.SERVICE)
    # the attribution the ROADMAP states, seen from outside: only the
    # proving workloads reach the curves layer, and neither the
    # simulator nor the paper model generates a proof
    assert (metrics["curves.calls"] > 0) == proves
    assert (metrics["sumcheck.calls"] > 0) == (proves or name == spec_module.SUMCHECK)
    shares = [v for k, v in metrics.items() if k.endswith(".share_pct")]
    assert 50.0 < sum(shares) <= 100.0 + 1e-6

    if name == spec_module.PROVE:
        assert metrics["hyperplonk.commit_calls"] == 7
        assert metrics["hyperplonk.open_calls"] == 5
        parts = (
            metrics["hyperplonk.commit_s"]
            + metrics["hyperplonk.open_s"]
            + metrics["hyperplonk.prove_self_s"]
        )
        assert parts == pytest.approx(metrics["hyperplonk.prove_traced_s"])
        assert metrics["hyperplonk.proof_bytes"] > 0
        assert metrics["fields.prove_mul"] > 0


@pytest.mark.parametrize("seed", [43, 101, 2147483647])
def test_sim_model_fails_no_job_on_seeds_that_crash_a_job_three_times(seed):
    # full size: with the cluster's default retry budget of 2 the model
    # failed one job on each of these seeds, and the run exited non-zero
    workload = CLASSES[spec_module.SIM](seed)
    workload.setup()
    run = workload.run_once()
    assert run["summary"]["failed"] == 0
    assert workload.check([measure.Op(run["run_s"], run["events"], run)])[1] == 0


def test_command_line_prints_one_result_line_and_fails_without_the_program(tmp_path):
    command = [sys.executable, str(HERE / "run.py"), "--workload", spec_module.SIM]
    command += ["--seed", "5", "--seconds", "0", "--trace", "0", "--toy"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(SPEC.end_to_end)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == SPEC.end_to_end[name]["unit"]

    # a directory that holds only BENCHMARK.json and the benchmark:
    # nothing to measure, so a non-zero exit and no result line
    bare = tmp_path / "bare"
    (bare / "benchmarks" / "e2e" / "e2ebench").mkdir(parents=True)
    (bare / "BENCHMARK.json").write_text(spec_module.BENCHMARK_JSON.read_text())
    for source in [HERE / "run.py", *(HERE / "e2ebench").glob("*.py")]:
        target = bare / source.relative_to(HERE.parents[1])
        target.write_text(source.read_text())
    command[1] = str(bare / "benchmarks" / "e2e" / "run.py")
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=120, cwd=bare
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout
