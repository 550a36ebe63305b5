#!/usr/bin/env python
"""CI gate: compare fresh ``BENCH_*.json`` records against baselines.

Every benchmark record mixes two kinds of values:

* **structural** keys — scenario names, seeds, job counts, units,
  acceptance floors, deterministic routing/model facts.  These must
  match the committed baseline *exactly*: a change means the benchmark
  now measures something else, which must be a deliberate, reviewed
  baseline update.
* **headline ratios** — speedups, throughput and hit-rate ratios.
  These are machine-sensitive where real time is involved, so they get
  a relative tolerance (default ±30%, ``--tolerance``).  Absolute
  seconds are deliberately not compared at all.

Usage (what CI runs)::

    cp BENCH_*.json ci-baselines/          # before re-running benches
    ... run every bench with BENCH_*_EMIT=1 ...
    python benchmarks/check_regression.py --baseline-dir ci-baselines

Exits 0 when every record is within policy, 1 on any drift, and prints
one line per compared value group so failures are attributable.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path


class Spec:
    """Comparison policy for one benchmark record."""

    def __init__(self, exact: list[str], ratio: list[str]):
        self.exact = exact
        self.ratio = ratio


SPECS: dict[str, Spec] = {
    "BENCH_sumcheck.json": Spec(
        exact=[
            "benchmark",
            "unit",
            "backend",
            "speedup_floor_mu12",
            "rows[*].name",
            "rows[*].gate_id",
            "rows[*].mu",
            "rows[*].degree",
            "rows[*].num_mles",
            "rows[*].num_terms",
            "rows[*].acceptance_row",
        ],
        ratio=[
            "rows[*].speedup",
        ],
    ),
    "BENCH_service.json": Spec(
        exact=[
            "benchmark",
            "unit",
            "speedup_floor_same_circuit",
            "scenarios[*].scenario",
            "scenarios[*].jobs",
            "scenarios[*].executor",
            "scenarios[*].backend",
            "same_circuit_acceptance.workload",
            "same_circuit_acceptance.jobs",
            "same_circuit_acceptance.bit_identical",
        ],
        ratio=[
            "scenarios[*].cache_hit_rate",
            "scenarios[*].job_cache_hit_rate",
            "same_circuit_acceptance.speedup",
            "same_circuit_acceptance.cache_hit_rate",
        ],
    ),
    "BENCH_scheduler.json": Spec(
        exact=[
            "scenario",
            "seed",
            "jobs",
            "policies[*].policy",
            "policies[*].jobs",
            "policies[*].realtime_jobs",
            "scenario_predicted_cost_s.*",
        ],
        ratio=[
            "realtime_p95_improvement_vs_fifo",
        ],
    ),
    "BENCH_resilience.json": Spec(
        # every value is deterministic model time (no wall clock), so
        # the counter facts are exact; the headline rates/ratios sit in
        # the ratio list per the standing tolerance policy
        exact=[
            "benchmark",
            "unit",
            "scenario",
            "time_model",
            "nodes",
            "jobs_per_replication",
            "traffic_seeds",
            "churn.downtime_fraction",
            "churn.mttr_s",
            "churn.seed_offset",
            "miss_ratio_floor",
            "retry.policy",
            "retry.max_retries",
            "retry.failed_jobs",
            "no_retry.policy",
            "no_retry.max_retries",
            "replications[*].traffic_seed",
            "replications[*].churn_seed",
            "replications[*].crashes",
            "autoscale.scenario",
            "autoscale.seed",
            "autoscale.jobs",
            "autoscale.max_nodes",
            "autoscale.p50_floor",
        ],
        ratio=[
            "deadline_miss_ratio_smoothed",
            "retry.pooled_miss_rate",
            "no_retry.pooled_miss_rate",
            "autoscale.p50_improvement_vs_fixed",
        ],
    ),
    "BENCH_cluster.json": Spec(
        exact=[
            "benchmark",
            "unit",
            "scenario",
            "seed",
            "jobs",
            "nodes",
            "time_model",
            "speedup_floor_affinity_vs_round_robin",
            "acceptance[*].policy",
            "acceptance[*].jobs",
            "acceptance[*].shape_spread",
            "sweep[*].nodes",
            "sweep[*].policy",
            "sweep[*].shape_spread",
        ],
        ratio=[
            "affinity_vs_round_robin",
            "acceptance[*].model_jobs_per_s",
            "acceptance[*].sim_cache_hit_rate",
            "acceptance[*].real_cache_hit_rate",
            "sweep[*].model_jobs_per_s",
            "sweep[*].cache_hit_rate",
        ],
    ),
    "BENCH_traffic.json": Spec(
        # the sim_core fired/clock/probe triple and every open_loop
        # count are pure model values (no wall clock), so they are
        # pinned exactly; only the events/sec speedup is machine-
        # sensitive, and the goodput/fairness rates follow the standing
        # rates-are-ratios tolerance policy
        exact=[
            "benchmark",
            "unit",
            "sim_core.workload",
            "sim_core.events",
            "sim_core.legacy_events",
            "sim_core.speedup_floor",
            "sim_core.fired",
            "sim_core.final_clock_s",
            "sim_core.len_probe",
            "sim_core.legacy_fired",
            "sim_core.legacy_final_clock_s",
            "sim_core.legacy_len_probe",
            "open_loop.scenario",
            "open_loop.seed",
            "open_loop.jobs",
            "open_loop.rate_rps",
            "open_loop.nodes",
            "open_loop.policy",
            "open_loop.tenants",
            "open_loop.admission_window_s",
            "open_loop.goodput_floor",
            "open_loop.admission.offered",
            "open_loop.admission.admitted",
            "open_loop.admission.shed",
            "open_loop.admission.completed",
            "open_loop.admission.failed",
            "open_loop.admission.shed_by_tenant.*",
            "open_loop.no_admission.offered",
            "open_loop.no_admission.shed",
            "open_loop.no_admission.completed",
            "open_loop.no_admission.failed",
        ],
        ratio=[
            "sim_core.speedup",
            "open_loop.goodput_improvement",
            "open_loop.admission.goodput_jobs_per_s",
            "open_loop.admission.slo_attainment",
            "open_loop.admission.shed_rate",
            "open_loop.admission.jain_fairness",
            "open_loop.no_admission.goodput_jobs_per_s",
            "open_loop.no_admission.slo_attainment",
            "open_loop.no_admission.jain_fairness",
        ],
    ),
    "BENCH_carbon.json": Spec(
        # every value is deterministic model time (no wall clock): the
        # run configuration, trace parameters, and job/miss counts are
        # exact; the gram figures and the headline carbon ratio follow
        # the standing rates-are-ratios tolerance policy
        exact=[
            "benchmark",
            "unit",
            "scenario",
            "traffic_seed",
            "rate_rps",
            "horizon_s",
            "nodes",
            "time_model",
            "batch_slack_s",
            "trace.base_g_per_kwh",
            "trace.amplitude",
            "trace.period_s",
            "trace.noise",
            "trace.seed",
            "carbon_ratio_floor",
            "cells.blind.policy",
            "cells.blind.completed",
            "cells.blind.failed",
            "cells.blind.gold_jobs",
            "cells.blind.gold_missed",
            "cells.blind.batch_missed",
            "cells.blind.held_starts",
            "cells.aware.policy",
            "cells.aware.low_threshold_g_per_kwh",
            "cells.aware.completed",
            "cells.aware.failed",
            "cells.aware.gold_jobs",
            "cells.aware.gold_missed",
            "cells.aware.batch_missed",
            "cells.edd.policy",
            "cells.edd.completed",
            "cells.edd.failed",
        ],
        ratio=[
            "carbon_ratio",
            "cells.blind.carbon_per_proof_g",
            "cells.blind.energy_j",
            "cells.aware.carbon_per_proof_g",
            "cells.aware.held_starts",
            "cells.edd.carbon_per_proof_g",
        ],
    ),
    "BENCH_fleet.json": Spec(
        # wall-clock numbers, rankings, and significant-pair lists are
        # machine-dependent (core count changes which regime the
        # core-aware prediction is in), so only the run configuration
        # and the verdicts are pinned; the calibration spread is the
        # one magnitude worth rate-limiting across machines
        exact=[
            "benchmark",
            "unit",
            "scenario",
            "jobs",
            "nodes",
            "seed",
            "time_model",
            "significance",
            "measured_tolerance",
            "rank_agreement",
            "proofs_identical",
        ],
        ratio=[
            "calibration_spread",
        ],
    ),
}

_SEGMENT = re.compile(r"^(?P<key>[A-Za-z0-9_]+)(?P<wild>\[\*\])?$")


def extract(doc, path: str, prefix: str = "") -> list[tuple[str, object]]:
    """Resolve a dotted path with ``[*]`` list and ``*`` dict wildcards
    into concrete ``(path, value)`` pairs; missing keys raise KeyError."""
    if not path:
        return [(prefix, doc)]
    head, _, rest = path.partition(".")
    if head == "*":
        if not isinstance(doc, dict):
            raise KeyError(f"{prefix or '<root>'} is not an object")
        out = []
        for key in sorted(doc):
            out.extend(extract(doc[key], rest, f"{prefix}.{key}" if prefix else key))
        return out
    match = _SEGMENT.match(head)
    if match is None:
        raise ValueError(f"bad path segment {head!r}")
    key = match.group("key")
    if not isinstance(doc, dict) or key not in doc:
        raise KeyError(f"missing key {key!r} at {prefix or '<root>'}")
    value = doc[key]
    label = f"{prefix}.{key}" if prefix else key
    if match.group("wild") is None:
        return extract(value, rest, label)
    if not isinstance(value, list):
        raise KeyError(f"{label} is not a list")
    out = []
    for index, item in enumerate(value):
        out.extend(extract(item, rest, f"{label}[{index}]"))
    return out


def _collect(doc, paths: list[str], problems: list[str], side: str) -> dict:
    values: dict[str, object] = {}
    for path in paths:
        try:
            values.update(dict(extract(doc, path)))
        except KeyError as exc:
            problems.append(f"{side}: {exc.args[0]} (path {path!r})")
    return values


def compare_records(
    name: str,
    baseline: dict,
    fresh: dict,
    tolerance: float = 0.30,
) -> list[str]:
    """Problems (empty = within policy) for one record pair."""
    spec = SPECS.get(name)
    if spec is None:
        return [f"{name}: no comparison spec (add one to SPECS)"]
    problems: list[str] = []

    base_exact = _collect(baseline, spec.exact, problems, "baseline")
    fresh_exact = _collect(fresh, spec.exact, problems, "fresh")
    for path in sorted(base_exact.keys() | fresh_exact.keys()):
        if path not in fresh_exact:
            problems.append(f"structural key vanished: {path}")
        elif path not in base_exact:
            problems.append(f"structural key appeared: {path}")
        elif base_exact[path] != fresh_exact[path]:
            problems.append(
                f"structural drift at {path}: baseline "
                f"{base_exact[path]!r} != fresh {fresh_exact[path]!r}"
            )

    base_ratio = _collect(baseline, spec.ratio, problems, "baseline")
    fresh_ratio = _collect(fresh, spec.ratio, problems, "fresh")
    for path in sorted(base_ratio.keys() | fresh_ratio.keys()):
        if path not in fresh_ratio or path not in base_ratio:
            problems.append(f"ratio key mismatch: {path}")
            continue
        base_value, fresh_value = base_ratio[path], fresh_ratio[path]
        if not isinstance(base_value, (int, float)) or not isinstance(
            fresh_value, (int, float)
        ):
            problems.append(f"non-numeric ratio at {path}")
            continue
        if base_value == 0:
            if fresh_value != 0:
                problems.append(f"ratio drift at {path}: baseline 0 vs {fresh_value}")
            continue
        drift = (fresh_value - base_value) / abs(base_value)
        if abs(drift) > tolerance:
            problems.append(
                f"ratio drift at {path}: baseline {base_value} vs fresh "
                f"{fresh_value} ({drift:+.1%}, tolerance ±{tolerance:.0%})"
            )
    return problems


def check_pair(
    baseline_path: Path,
    fresh_path: Path,
    tolerance: float,
) -> list[str]:
    name = fresh_path.name
    if not baseline_path.exists():
        return [f"{name}: missing baseline {baseline_path}"]
    if not fresh_path.exists():
        return [f"{name}: missing fresh record {fresh_path}"]
    baseline = json.loads(baseline_path.read_text())
    fresh = json.loads(fresh_path.read_text())
    return compare_records(name, baseline, fresh, tolerance)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate freshly emitted BENCH_*.json records against "
        "committed baselines.",
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        required=True,
        help="directory holding the baseline copies of BENCH_*.json",
    )
    parser.add_argument(
        "--fresh-dir",
        type=Path,
        default=Path("."),
        help="directory holding the freshly emitted records (default: .)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="relative tolerance for headline ratios (default 0.30)",
    )
    parser.add_argument(
        "--only",
        nargs="*",
        choices=sorted(SPECS),
        help="restrict the check to these records (default: all)",
    )
    args = parser.parse_args(argv)
    if not 0 <= args.tolerance < 1:
        parser.error(f"--tolerance must be in [0, 1); got {args.tolerance}")

    names = args.only or sorted(SPECS)
    failed = False
    for name in names:
        problems = check_pair(
            args.baseline_dir / name,
            args.fresh_dir / name,
            args.tolerance,
        )
        if problems:
            failed = True
            print(f"DRIFT {name}")
            for problem in problems:
                print(f"  - {problem}")
        else:
            print(f"OK    {name} (tolerance ±{args.tolerance:.0%})")
    if failed:
        print(
            "\nbench records drifted from the committed baselines; if the "
            "change is intended, re-emit the record(s) with BENCH_*_EMIT=1 "
            "and commit them (see ROADMAP.md's bench-gate policy)."
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
