"""Measure the benchmark's own baseline and spreads; write ``baseline.json``.

    python3 benchmarks/e2e/record_baseline.py [--seeds 10] [--same-seed 2]

Runs every workload of ``BENCHMARK.json`` through ``run.py`` — once per
seed ``1..--seeds`` (the run-to-run spread the bounds are sized from),
``--same-seed`` more times at seed 0 (which must agree within the
bounds), and twice traced at seed 0 (the per-layer numbers and layer
shares; every metric in ``spec.EXACT`` must repeat bit for bit).  The
runs go round-robin over the workloads, so a slow stretch of the host
lands on all of them and not on one workload's ten seeds.  Spread is the
distance between the first and third quartile as a share of the median,
as ``statistics.quantiles(values, n=4)`` gives them.  A timing whose
spread is wider than its bound is recorded as ``unresolved`` and makes
this command exit non-zero: such a baseline cannot carry a comparison.

Last, the size check: the workloads run at sizes cut down from the
issue's to keep operations short, so the layer partition and the time
per unit of work are measured once at both sizes and stored side by
side (``size_check``), to show the small size has the large one's
profile.

Absolute seconds are local to the machine that ran this; the file
records which one, and beside every run the time of a fixed
pure-Python loop just before it, which tells this host's fast mode from
its slow one.  Re-run after any accepted change to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as run_module  # noqa: E402  (also puts src/ on the path)
from e2ebench import spec as spec_module  # noqa: E402
from e2ebench.measure import fastest_s  # noqa: E402
from e2ebench.trace import layer_partition  # noqa: E402

#: workload -> (size attribute, the issue's size it was cut down from)
ISSUE_SIZES = {
    spec_module.PROVE: ("mu", 8),
    spec_module.SUMCHECK: ("mu", 13),
    spec_module.SIM: ("jobs", 100_000),
}


def host_loop_ms() -> float:
    """A fixed pure-Python loop: ~55 ms when this host is quiet."""
    started = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x += i * i % 7
    return 1e3 * (time.perf_counter() - started)


def run(workload: str, seed: int, trace: int) -> dict:
    """One ``run.py`` process; its result line, plus the wall it took."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    command += ["--seed", str(seed), "--trace", str(trace)]
    loop_ms = host_loop_ms()
    started = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed")
    result["run_wall_s"] = time.perf_counter() - started
    result["host_loop_ms"] = loop_ms
    return result


def spread_row(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "status": "resolved" if spread <= bound else "unresolved",
        "values": values,
    }


def size_check(name: str, attr: str, issue_size: int) -> dict:
    """Layer shares and seconds per unit of work at the shipped size and
    at the issue's, in this process, seed 0."""
    cls = run_module.workload_classes()[name]
    rows = {}
    for size in (getattr(cls(0), attr), issue_size):
        workload = cls(0)
        setattr(workload, attr, size)
        try:
            workload.setup()
            workload.warmup()
            ops = [workload.op(i) for i in range(2)]
            partition = layer_partition(lambda: workload.op(0))
        finally:
            workload.close()
        best_s = fastest_s(ops)
        rows[f"{attr}={size}"] = {
            "fastest_op_s": best_s,
            "work": ops[0].work,
            "us_per_work": 1e6 * best_s / ops[0].work,
            "share_pct": {
                key[: -len(".share_pct")]: round(value, 2)
                for key, value in partition.items()
                if key.endswith(".share_pct") and value >= 0.5
            },
        }
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--same-seed", type=int, default=2)
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args()
    spec = spec_module.load()

    plan = [(seed, 0) for seed in range(1, args.seeds + 1)]
    plan += [(0, 0)] * args.same_seed + [(0, 1), (0, 1)]
    runs: dict[str, list[dict]] = {name: [] for name in spec.workloads}
    for seed, trace in plan:
        for name in spec.workloads:
            runs[name].append(run(name, seed, trace))
            print(f"{name} seed={seed} trace={trace} done", flush=True)

    doc: dict = {
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "note": "absolute seconds are local to this machine",
        },
        "run_seconds": spec.run_seconds,
        "workloads": {},
    }
    worst = 0.0
    for name, results in runs.items():
        seeded = results[: args.seeds]
        same = results[args.seeds : -2]
        traced, again = results[-2:]
        inexact = sorted(
            metric
            for metric in spec_module.EXACT
            if traced["metrics"][metric] != again["metrics"][metric]
        )
        if inexact:
            raise RuntimeError(f"{name}: exact metrics moved: {inexact}")
        entry: dict = {"end_to_end": {}, "same_seed": {}}
        for metric, meta in spec.end_to_end.items():
            values = [r["metrics"][metric]["value"] for r in seeded]
            row = spread_row(values, meta["bound"])
            entry["end_to_end"][metric] = row
            if metric != "setup_s":
                worst = max(worst, row["spread"] / meta["bound"])
            entry["same_seed"][metric] = [
                r["metrics"][metric]["value"] for r in same
            ]
            print(
                f"{name:24s} {metric:12s} median {row['median']:12.4f} "
                f"spread {100 * row['spread']:5.2f}% of bound "
                f"{100 * meta['bound']:.0f}% {row['status']}",
                flush=True,
            )
        entry["host_loop_ms"] = [round(r["host_loop_ms"], 1) for r in seeded]
        entry["run_wall_s"] = {
            "untraced_median": statistics.median(r["run_wall_s"] for r in seeded),
            "traced": traced["run_wall_s"],
        }
        entry["per_layer"] = {
            metric: value["value"]
            for metric, value in traced["metrics"].items()
            if value["value"] != 0
        }
        doc["workloads"][name] = entry
    doc["size_check"] = {
        name: size_check(name, attr, size)
        for name, (attr, size) in ISSUE_SIZES.items()
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"worst spread / bound: {worst:.2f} (target < 0.33); wrote {args.out}")
    return 0 if worst < 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
