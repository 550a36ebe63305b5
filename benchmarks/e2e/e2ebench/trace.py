"""Tracing from outside the program: spans, probes and a layer partition.

Three tools, all owned by the benchmark (nothing in ``src/`` knows them):

* :class:`Spans` — an in-memory span recorder (name, start, end, parent,
  attributes) that can wrap a callable or temporarily patch a module
  attribute, so a call into a layer shows up as a child of the span
  that caused it.  Written out as one JSON file when the run ends.
* :func:`probe_s` — the fastest wall time of a standalone call into a
  layer's public function.
* :func:`layer_partition` — one operation under ``cProfile``, with every
  function's self time and call count attributed to the ``repro``
  package (layer) its source file lives in.  The profiler inflates
  call-heavy code, so the partition is reported as shares and exact call
  counts, never as seconds.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import re
import time
from contextlib import contextmanager
from pathlib import Path

#: the ``repro`` packages the per-layer metrics are named after
LAYERS = (
    "fields",
    "curves",
    "mle",
    "gates",
    "sumcheck",
    "hyperplonk",
    "plan",
    "service",
    "sim",
    "traffic",
    "cluster",
    "carbon",
    "workloads",
    "hw",
    "experiments",
)

#: spans kept for the trace file; sums always cover every span
MAX_SPANS_WRITTEN = 50_000


class Spans:
    """Span recorder: rows are ``[name, start_s, end_s, parent, attrs]``."""

    def __init__(self, workload: str):
        self.workload = workload
        self.rows: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span; yields its row index."""
        index = len(self.rows)
        parent = self._stack[-1] if self._stack else None
        row = [name, time.perf_counter(), None, parent, attrs]
        self.rows.append(row)
        self._stack.append(index)
        try:
            yield index
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    def traced(self, name: str, fn):
        """``fn`` with a span called ``name`` around every call."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def patched(self, owner, attr: str, name: str):
        """Swap ``owner.attr`` for a traced wrapper while the block runs.

        A boundary the program no longer has is skipped, not an error:
        the benchmark must keep running across refactors, and the
        metrics fed by the missing span then read 0.
        """
        original = getattr(owner, attr, None)
        if original is None:
            yield False
            return
        setattr(owner, attr, self.traced(name, original))
        try:
            yield True
        finally:
            setattr(owner, attr, original)

    # -- queries -----------------------------------------------------------
    def duration(self, index: int) -> float:
        return self.rows[index][2] - self.rows[index][1]

    def under(self, root: int, name: str, *, outside: str | None = None):
        """Indices of ``name`` spans below ``root``, skipping any that sit
        (at any depth) inside a span named ``outside``."""
        found = []
        for index in range(root + 1, len(self.rows)):
            row = self.rows[index]
            if row[1] >= self.rows[root][2]:
                break
            if row[0] != name:
                continue
            parent, hidden, below = row[3], False, False
            while parent is not None:
                if parent == root:
                    below = True
                    break
                if self.rows[parent][0] == outside:
                    hidden = True
                parent = self.rows[parent][3]
            if below and not hidden:
                found.append(index)
        return found

    def total(self, root: int, name: str, *, outside: str | None = None):
        return sum(
            self.duration(i) for i in self.under(root, name, outside=outside)
        )

    def named(self, name: str) -> list[int]:
        return [i for i, row in enumerate(self.rows) if row[0] == name]

    def fastest(self, name: str) -> float:
        """Shortest duration among the spans called ``name``."""
        return min(self.duration(i) for i in self.named(name))

    # -- output ------------------------------------------------------------
    def write(self, path: Path, *, seed: int) -> None:
        """One JSON file: every span with times relative to the first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.rows[0][1] if self.rows else 0.0
        doc = {
            "workload": self.workload,
            "seed": seed,
            "span_count": len(self.rows),
            "columns": ["id", "name", "start_s", "end_s", "parent", "attrs"],
            "spans": [
                [i, name, start - origin, end - origin, parent, attrs]
                for i, (name, start, end, parent, attrs) in enumerate(
                    self.rows[:MAX_SPANS_WRITTEN]
                )
            ],
        }
        path.write_text(json.dumps(doc))


def probe_s(fn, repeats: int = 5) -> float:
    """Fastest wall seconds of ``fn()`` over ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return min(times)


_LAYER_OF_PATH = re.compile(r"[\\/]repro[\\/](\w+)[\\/]")


def _layer_of(filename: str) -> str | None:
    match = _LAYER_OF_PATH.search(filename)
    if match and match.group(1) in LAYERS:
        return match.group(1)
    return None


def layer_partition(fn) -> dict[str, float]:
    """Run ``fn()`` under cProfile; ``<layer>.share_pct`` / ``<layer>.calls``.

    Self time of a builtin or a standard-library function is charged to
    the layer of the ``repro`` function that called it, so a layer pays
    for the ``pow`` and ``hashlib`` calls it makes; what is left (the
    harness, the interpreter) is the remainder to 100%.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    total = 0.0
    for (filename, _, _), (_, ncalls, tottime, _, callers) in stats.items():
        total += tottime
        layer = _layer_of(filename)
        if layer is not None:
            self_s[layer] += tottime
            calls[layer] += ncalls
            continue
        for (caller_file, _, _), (_, _, caller_tottime, _) in callers.items():
            caller_layer = _layer_of(caller_file)
            if caller_layer is not None:
                self_s[caller_layer] += caller_tottime
    out = {}
    for layer in LAYERS:
        out[f"{layer}.share_pct"] = 100.0 * self_s[layer] / total if total else 0.0
        out[f"{layer}.calls"] = calls[layer]
    return out
