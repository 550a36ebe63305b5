"""The repo benchmark: ``python3 benchmarks/e2e/run.py --workload NAME ...``.

One command, one workload per process.  It builds the workload's inputs
from ``--seed``, measures for ``--seconds``, checks every output, prints
each metric by name with its unit, and ends with one JSON line::

    {"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}

``--trace 0`` (default) reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` reports its per-layer metrics and
writes a span file.  Without ``--workload`` every workload runs in turn,
each in its own subprocess.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import compileall
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

#: where traced runs leave their span files, relative to the working dir
TRACE_DIR = Path(".bench_out")


def workload_classes() -> dict:
    from e2ebench.wl_paper import PaperModel
    from e2ebench.wl_prove import ProveJellyfish
    from e2ebench.wl_service import ServiceZipf
    from e2ebench.wl_sim import SimOpenLoop
    from e2ebench.wl_sumcheck import SumcheckGates

    classes = (ProveJellyfish, SumcheckGates, ServiceZipf, SimOpenLoop, PaperModel)
    return {cls.name: cls for cls in classes}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload name (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0
    )
    parser.add_argument("--out", type=Path, default=TRACE_DIR, help="span file dir")
    parser.add_argument("--toy", action="store_true", help="smoke-test sizes")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace, names: list[str]) -> int:
    """Every workload in its own subprocess; one combined JSON line."""
    combined, status = {}, 0
    for name in names:
        command = [sys.executable, str(Path(__file__)), "--workload", name]
        command += ["--seed", str(args.seed), "--trace", str(args.trace)]
        command += ["--out", str(args.out)]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.toy:
            command.append("--toy")
        done = subprocess.run(command, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        status = status or done.returncode
        # a child that failed on an operation still ends with its result
        # line; one that crashed does not, and its stderr says why
        if lines and lines[-1].startswith("{"):
            combined[name] = json.loads(lines.pop())
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
        print("\n".join(lines), flush=True)
    print(json.dumps(combined))
    return status


def main(argv: list[str]) -> int:
    entered_s = time.perf_counter()
    args = parse_args(argv)
    from e2ebench import spec as spec_module

    spec = spec_module.load()
    try:
        classes = workload_classes()
    except ModuleNotFoundError as exc:
        if not (exc.name or "").startswith("repro"):
            raise
        print(f"{exc}: expected the program under {ROOT / 'src'}", file=sys.stderr)
        return 1
    if set(classes) != set(spec.workloads):
        raise spec_module.SpecError(
            f"BENCHMARK.json workloads {sorted(spec.workloads)} != "
            f"harness workloads {sorted(classes)}"
        )
    if args.workload is None:
        return run_all(args, list(spec.workloads))
    if args.workload not in classes:
        print(f"unknown workload {args.workload!r}; choose from {sorted(classes)}",
              file=sys.stderr)
        return 2

    from e2ebench import measure

    workload = classes[args.workload](args.seed, toy=args.toy)
    if args.setup_only:
        try:
            workload.setup()
            ready_s = time.perf_counter() - entered_s  # before the teardown
        finally:
            workload.close()
        print(repr(ready_s))
        return 0

    seconds = spec.run_seconds if args.seconds is None else args.seconds
    details: dict = {}
    if args.trace:
        trace_path = args.out / f"trace-{workload.name}-seed{args.seed}.json"
        metrics, attempted, failed = measure.run_traced(
            workload, seconds, spec, trace_path
        )
        print(f"# spans written to {trace_path}")
    else:
        metrics, attempted, failed, details = measure.run_untraced(
            workload, seconds, entered_s=entered_s, run_py=Path(__file__)
        )
    print(f"# {workload.name} seed={args.seed} seconds={seconds:g} trace={args.trace}")
    for name, value in metrics.items():
        extra = " ".join(
            f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in details.get(name, {}).items()
        )
        print(f"{name:36s} {value:16.6f} {spec.unit(name):8s} {extra}".rstrip())
    print(f"# operations attempted={attempted} failed={failed}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": spec.unit(name)}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    # byte-compile the program first (this is the build), so that the
    # first set-up of a fresh checkout is not charged for it
    compileall.compile_dir(str(ROOT / "src"), quiet=2, workers=1)
    sys.exit(main(sys.argv[1:]))
