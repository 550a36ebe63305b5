"""The benchmark's names: ``BENCHMARK.json`` plus what each layer metric moves.

``BENCHMARK.json`` is the single source of workload names, metric names,
units, directions and bounds.  This module loads it, checks it against
the benchmark contract's limits, and adds the one thing the file's fixed
schema has no room for: :data:`MOVES`, written down *before* measuring,
which names for every per-layer metric the end-to-end metric and
workload it is expected to move (``"metric@workload"``), or ``"info"``
for exact model facts and bookkeeping that move no timing.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from e2ebench.trace import LAYERS

ROOT = Path(__file__).resolve().parents[3]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

PROVE = "prove_jellyfish_mu6"
SUMCHECK = "sumcheck_gates_mu11"
SERVICE = "service_zipf_process2"
SIM = "sim_openloop_5e3"
PAPER = "paper_model"

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
_LIMITS = {"workloads": (2, 8), "end_to_end": (1, 16), "per_layer": (1, 128)}
_KEYS = {
    "workloads": {"name", "why"},
    "end_to_end": {"name", "unit", "better", "bound"},
    "per_layer": {"name", "unit", "better"},
}


_THR, _SETUP, _RSS = "work_per_s", "setup_s", "peak_rss_mb"

#: per-layer metric -> the end-to-end metric and workload it should move
MOVES: dict[str, str] = {
    # the cProfile partition says which layer a workload's time is in;
    # it attributes, so it is not expected to move on its own
    **{f"{layer}.share_pct": "info" for layer in LAYERS},
    **{f"{layer}.calls": "info" for layer in LAYERS},
    "trace.overhead_pct": "info",
    "trace.spans": "info",
    # -- prove_jellyfish_mu6 ------------------------------------------------
    "hyperplonk.commit_s": f"{_THR}@{PROVE}",
    "hyperplonk.commit_calls": "info",
    "hyperplonk.commit_points": "info",
    "hyperplonk.open_s": f"{_THR}@{PROVE}",
    "hyperplonk.open_calls": "info",
    "hyperplonk.open_quotient_commits": "info",
    "hyperplonk.open_quotient_points": "info",
    "hyperplonk.prove_self_s": f"{_THR}@{PROVE}",
    "hyperplonk.prove_traced_s": "info",
    "hyperplonk.verify_s": "info",
    "hyperplonk.verify_kzg_s": "info",
    "hyperplonk.proof_bytes": "info",
    "hyperplonk.permutation_build_s": f"{_THR}@{PROVE}",
    "hyperplonk.opencheck_s": f"{_THR}@{PROVE}",
    "hyperplonk.srs_bases_s": f"{_SETUP}@{PROVE},{_SETUP}@{SERVICE}",
    "hyperplonk.srs_bases_count": "info",
    "hyperplonk.preprocess_s": f"{_SETUP}@{PROVE},{_SETUP}@{SERVICE}",
    "curves.scalar_mul_s": f"{_SETUP}@{PROVE},{_SETUP}@{SERVICE}",
    "curves.msm_pippenger_n64_s": f"{_THR}@{PROVE}",
    "curves.msm_pippenger_n4_s": f"{_THR}@{PROVE}",
    "curves.msm_fixed_base_n16_s": f"{_THR}@{SERVICE}",
    "curves.fixed_base_table_build_s": f"{_SETUP}@{SERVICE}",
    "curves.fixed_base_table_entries": f"{_RSS}@{SERVICE}",
    "sumcheck.gate_zerocheck_s": f"{_THR}@{PROVE}",
    "sumcheck.perm_zerocheck_s": f"{_THR}@{PROVE}",
    "fields.window_decompose_s": f"{_THR}@{PROVE}",
    "fields.prove_mul": "info",
    "fields.prove_add": "info",
    "fields.prove_inv": "info",
    "plan.predicted_prove_s": "info",
    "plan.prediction_err_pct": "info",
    # -- sumcheck_gates_mu11 ------------------------------------------------
    "sumcheck.vanilla20_s": f"{_THR}@{SUMCHECK}",
    "sumcheck.jellyfish22_s": f"{_THR}@{SUMCHECK}",
    "sumcheck.deg16_s": f"{_THR}@{SUMCHECK}",
    "sumcheck.verify_s": "info",
    "sumcheck.reference_jellyfish22_s": "info",
    "sumcheck.transcript_s": f"{_THR}@{SUMCHECK}",
    "mle.build_eq_s": f"{_THR}@{SUMCHECK}",
    "mle.fix_first_variable_s": f"{_THR}@{SUMCHECK}",
    "mle.evaluate_s": f"{_THR}@{SUMCHECK}",
    "gates.compile_s": f"{_SETUP}@{SUMCHECK}",
    "fields.fused_mul_s": f"{_THR}@{SUMCHECK}",
    "fields.fused_fold_s": f"{_THR}@{SUMCHECK}",
    "fields.fused_extend_s": f"{_THR}@{SUMCHECK}",
    "fields.sumcheck_mul": "info",
    # -- service_zipf_process2 ----------------------------------------------
    "service.construct_s": f"{_SETUP}@{SERVICE}",
    "service.warmup_s": f"{_SETUP}@{SERVICE}",
    "service.jobs_build_s": "info",
    "service.prove_busy_s": f"{_THR}@{SERVICE}",
    "service.worker_utilization": f"{_THR}@{SERVICE}",
    "service.overhead_s": f"{_THR}@{SERVICE}",
    "service.plan_batches_s": f"{_THR}@{SERVICE}",
    "service.fingerprint_s": f"{_THR}@{SERVICE}",
    "service.batches": "info",
    "service.cache_hit_rate": f"{_THR}@{SERVICE}",
    "service.cold_jobs": "info",
    "service.task_pickle_bytes": f"{_THR}@{SERVICE}",
    "service.proof_pickle_bytes": f"{_THR}@{SERVICE}",
    "service.job_latency_p50_s": "info",
    "service.job_latency_p85_s": "info",
    # -- sim_openloop_5e3 ---------------------------------------------------
    "sim.events_fired": "info",
    "sim.core_events_per_s": f"{_THR}@{SIM}",
    "traffic.generate_s": f"{_THR}@{SIM}",
    "traffic.summary_s": "info",
    "cluster.engine_self_s": f"{_THR}@{SIM}",
    "cluster.host_us_per_event": f"{_THR}@{SIM}",
    "cluster.shed_rate": "info",
    "cluster.crashes": "info",
    "cluster.retries": "info",
    "cluster.requeues": "info",
    "cluster.model_latency_p99_s": "info",
    "cluster.slo_attainment": "info",
    "cluster.jain_fairness": "info",
    "cluster.goodput_jobs_per_s": "info",
    "carbon.energy_j": "info",
    "carbon.carbon_per_proof_g": "info",
    "carbon.off_events_per_s": f"{_THR}@{SIM}",
    "workloads.churn_events": "info",
    "plan.shape_cost_call_us": f"{_THR}@{SIM}",
    # -- paper_model --------------------------------------------------------
    "experiments.fig06_s": f"{_THR}@{PAPER}",
    "experiments.fig10_s": f"{_THR}@{PAPER}",
    "experiments.table04_s": f"{_THR}@{PAPER}",
    "experiments.fig11_s": f"{_THR}@{PAPER}",
    "hw.jellyfish_geomean_x": "info",
    "hw.isoapp_geomean_x": "info",
    "hw.table2_geomean_vs_cpu_x": "info",
    "hw.area_delta_pct": "info",
    "hw.power_delta_pct": "info",
    "hw.headline_err_pct": "info",
}

#: per-layer metrics that are counts or model facts, not host timings:
#: for a fixed seed they must repeat bit for bit on the same code
EXACT = frozenset(
    [f"{layer}.calls" for layer in LAYERS]
    + [
        name
        for name in MOVES
        if name.startswith(("hw.", "cluster.")) and not name.endswith(".share_pct")
    ]
    + [
        "hyperplonk.commit_calls",
        "hyperplonk.commit_points",
        "hyperplonk.open_calls",
        "hyperplonk.open_quotient_commits",
        "hyperplonk.open_quotient_points",
        "hyperplonk.proof_bytes",
        "hyperplonk.srs_bases_count",
        "curves.fixed_base_table_entries",
        "fields.prove_mul",
        "fields.prove_add",
        "fields.prove_inv",
        "fields.sumcheck_mul",
        "plan.predicted_prove_s",
        "service.task_pickle_bytes",
        "sim.events_fired",
        "carbon.energy_j",
        "carbon.carbon_per_proof_g",
        "workloads.churn_events",
    ]
) - {"cluster.engine_self_s", "cluster.host_us_per_event"}


class SpecError(ValueError):
    """``BENCHMARK.json`` or :data:`MOVES` breaks the benchmark contract."""


class Spec:
    """The parsed, checked ``BENCHMARK.json``."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.run_seconds: int = doc["run_seconds"]
        self.workloads: dict[str, str] = {
            w["name"]: w["why"] for w in doc["workloads"]
        }
        self.end_to_end: dict[str, dict] = {
            m["name"]: m for m in doc["end_to_end"]
        }
        self.per_layer: dict[str, dict] = {m["name"]: m for m in doc["per_layer"]}

    def unit(self, metric: str) -> str:
        return (self.end_to_end.get(metric) or self.per_layer[metric])["unit"]


def check(doc: dict) -> None:
    """Fail fast, naming the offender, if ``doc`` is outside the contract."""
    expected = {"command", "paths", "run_seconds", *_KEYS}
    if set(doc) != expected:
        raise SpecError(f"keys must be exactly {sorted(expected)}")
    seconds = doc["run_seconds"]
    if not isinstance(seconds, int) or not 1 <= seconds <= 60:
        raise SpecError(f"run_seconds {seconds!r} is not a whole number 1..60")
    seen: set[str] = set()
    for section, (low, high) in _LIMITS.items():
        entries = doc[section]
        if not low <= len(entries) <= high:
            raise SpecError(f"{section} has {len(entries)} entries, not {low}..{high}")
        for entry in entries:
            name = entry.get("name", "")
            if set(entry) != _KEYS[section]:
                raise SpecError(f"{section} entry {name!r}: keys {sorted(entry)}")
            if not _NAME.fullmatch(name):
                raise SpecError(f"{section}: bad name {name!r}")
            if name in seen:
                raise SpecError(f"name {name!r} is used twice")
            seen.add(name)
            if section == "workloads":
                why = entry["why"]
                if not why or len(why) > 200 or "\n" in why:
                    raise SpecError(f"workload {name!r}: why must be one line <= 200")
                continue
            if not _UNIT.fullmatch(entry["unit"]):
                raise SpecError(f"metric {name!r}: bad unit {entry['unit']!r}")
            if entry["better"] not in ("lower", "higher"):
                raise SpecError(f"metric {name!r}: better must be lower|higher")
            if section == "end_to_end":
                bound = entry["bound"]
                if not isinstance(bound, (int, float)) or not 0 <= bound <= 0.25:
                    raise SpecError(f"metric {name!r}: bound {bound!r} not in 0..0.25")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        raise SpecError("end_to_end must hold setup_s (unit s, better lower)")

    per_layer = {m["name"] for m in doc["per_layer"]}
    for name in sorted(per_layer ^ set(MOVES)):
        where = "MOVES" if name in per_layer else "BENCHMARK.json per_layer"
        raise SpecError(f"per-layer metric {name!r} is missing from {where}")
    workloads = {w["name"] for w in doc["workloads"]}
    end_to_end = {m["name"] for m in doc["end_to_end"]}
    for name, moves in MOVES.items():
        for target in moves.split(","):
            if target == "info":
                continue
            metric, _, workload = target.partition("@")
            if metric not in end_to_end or workload not in workloads:
                raise SpecError(f"per-layer metric {name!r} moves unknown {target!r}")


def load(path: Path = BENCHMARK_JSON) -> Spec:
    doc = json.loads(path.read_text())
    check(doc)
    return Spec(doc)
