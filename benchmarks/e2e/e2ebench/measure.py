"""The workload interface and the two run modes (untraced, traced).

A workload builds its inputs from the seed, warms the program up, and
then performs *operations*; the harness owns the clock around them.
End-to-end metrics always come from the untraced run; the traced run
reports only per-layer metrics.
"""

from __future__ import annotations

import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from e2ebench.spec import Spec
from e2ebench.trace import Spans

#: fresh-interpreter set-ups per run, this process's own included: at
#: least MIN, then more while they are cheap (under BUDGET_S in all), up to MAX
SETUP_SAMPLES_MIN = 3
SETUP_SAMPLES_MAX = 7
SETUP_BUDGET_S = 2.0
#: a set-up child that takes longer than this is killed and fails the run
SETUP_CHILD_TIMEOUT_S = 150


@dataclass
class Op:
    """One timed operation, as the workload reports it."""

    #: seconds on the clock for this operation
    wall_s: float
    #: units of work completed (proofs, jobs, host events, experiments)
    work: float
    #: whatever :meth:`Workload.check` needs to judge correctness
    output: Any = None
    #: the operation's stages, name -> seconds, when it is a sequence of
    #: independent stages each timed on its own (the three gates of a
    #: SumCheck pass, the 17 experiments of a model pass)
    parts: dict[str, float] | None = None


class Workload:
    """Base class: one named workload of ``BENCHMARK.json``.

    ``toy=True`` shrinks every size so the whole workload runs in about
    a second (the smoke test); names and code paths stay the same.
    """

    name = ""
    #: what one unit of ``work_per_s`` is, for the printed report; every
    #: operation of one run does the same amount of it
    work_unit = ""

    def __init__(self, seed: int, *, toy: bool = False):
        self.seed = seed
        self.toy = toy

    def setup(self, spans: Spans | None = None) -> None:
        """Build the inputs from the seed and bring the program to the
        state in which it serves operations, lazy state included; the
        time this takes in a fresh interpreter is ``setup_s``."""
        raise NotImplementedError

    def warmup(self) -> None:
        """One untimed operation before the clock starts."""
        self.op(0)

    def op(self, i: int) -> Op:
        """Perform and time the ``i``-th operation."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop everything :meth:`setup` started."""

    def check(self, ops: list[Op]) -> tuple[int, int]:
        """Off the clock: ``(operations attempted, operations failed)``."""
        raise NotImplementedError

    def traced(self, spans: Spans, seconds: float) -> tuple[dict, list[Op]]:
        """Traced operations for ``seconds``, then standalone probes and
        one operation under :func:`~e2ebench.trace.layer_partition`:
        this workload's per-layer metrics plus the operations to check."""
        raise NotImplementedError


def run_ops(op: Callable[[int], Op], seconds: float) -> list[Op]:
    """``op(0)``, ``op(1)``, ... back to back until ``seconds`` have
    passed (at least one)."""
    ops: list[Op] = []
    started = time.perf_counter()
    while True:
        ops.append(op(len(ops)))
        if time.perf_counter() - started >= seconds:
            return ops


def peak_rss_mb() -> float:
    """Largest resident set of this process plus that of its largest
    waited-for child (the service's pool workers), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _setup_in_child(run_py: Path, workload: Workload) -> float:
    """Set the workload up in a fresh interpreter; its seconds to ready."""
    command = [
        sys.executable,
        str(run_py),
        "--workload",
        workload.name,
        "--seed",
        str(workload.seed),
        "--setup-only",
    ]
    if workload.toy:
        command.append("--toy")
    done = subprocess.run(
        command,
        capture_output=True,
        text=True,
        timeout=SETUP_CHILD_TIMEOUT_S,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def fastest_s(ops: list[Op]) -> float:
    """Seconds of the fastest operation seen; for staged operations, the
    fastest time seen of each stage, summed.

    The fastest, not the median: this host slows by half for seconds at
    a time and can only ever add time, so the best of many short
    operations repeats where their median does not (README.md, "How the
    bounds were sized")."""
    if ops[0].parts is None:
        return min(op.wall_s for op in ops)
    return sum(min(op.parts[stage] for op in ops) for stage in ops[0].parts)


def run_untraced(
    workload: Workload, seconds: float, *, entered_s: float, run_py: Path
) -> tuple[dict[str, float], int, int, dict]:
    """The end-to-end run: ``(metrics, attempted, failed, details)``."""
    try:
        workload.setup()
        setups = [time.perf_counter() - entered_s]
        workload.warmup()
        ops = run_ops(workload.op, seconds)
    finally:
        workload.close()
    # read before the set-up children run: they would otherwise count as
    # this run's largest child
    rss = peak_rss_mb()
    attempted, failed = workload.check(ops)
    while len(setups) < SETUP_SAMPLES_MIN or (
        len(setups) < SETUP_SAMPLES_MAX and sum(setups) < SETUP_BUDGET_S
    ):
        setups.append(_setup_in_child(run_py, workload))
    walls = [op.wall_s for op in ops]
    best_s = fastest_s(ops)
    metrics = {
        "setup_s": statistics.median(setups),
        "work_per_s": ops[0].work / best_s,
        "peak_rss_mb": rss,
    }
    details = {
        "setup_s": {"n": len(setups), "min": min(setups), "max": max(setups)},
        "work_per_s": {
            "work": f"{ops[0].work:g} {workload.work_unit}",
            "n": len(ops),
            "fastest_s": best_s,
            "median_s": statistics.median(walls),
            "slowest_s": max(walls),
        },
    }
    return metrics, attempted, failed, details


def run_traced(
    workload: Workload, seconds: float, spec: Spec, trace_path: Path
) -> tuple[dict[str, float], int, int]:
    """The traced run: every per-layer metric (0 where this workload
    does not reach the layer), and a span file at ``trace_path``."""
    spans = Spans(workload.name)
    try:
        with spans.span("bench.setup"):
            workload.setup(spans)
        workload.warmup()
        measured, ops = workload.traced(spans, seconds)
    finally:
        workload.close()
    attempted, failed = workload.check(ops)
    measured["trace.spans"] = len(spans.rows)
    spans.write(trace_path, seed=workload.seed)
    unknown = sorted(set(measured) - set(spec.per_layer))
    if unknown:
        raise KeyError(f"{workload.name} emitted unnamed metrics {unknown}")
    metrics = {name: float(measured.get(name, 0.0)) for name in spec.per_layer}
    return metrics, attempted, failed


def overhead_pct(traced_s: list[float], plain_s: list[float]) -> float:
    """Tracing overhead: each traced operation against the untraced one
    that ran right after it on the same inputs (so both saw the same
    host speed); the median of those ratios."""
    ratios = [traced / plain for traced, plain in zip(traced_s, plain_s)]
    return 100.0 * (statistics.median(ratios) - 1.0)
