"""Shared experiment plumbing: result container and table formatting."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import exp, log
from typing import Sequence


def geomean(values: Sequence[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        raise ValueError("geomean needs positive values")
    # an in-order fold: sum() of floats is compensated from Python 3.12,
    # and a headline must not depend on the interpreter
    total = 0.0
    for v in vals:
        total += log(v)
    return exp(total / len(vals))


@dataclass
class ExperimentResult:
    """Rows of an experiment plus free-form notes.

    ``rows`` is a list of dicts sharing keys; ``summary`` holds headline
    scalars (geomeans, crossover points) the tests assert on.
    """

    name: str
    title: str
    rows: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    notes: str = ""

    def columns(self) -> list[str]:
        cols: dict[str, None] = {}
        for row in self.rows:
            for key in row:
                cols.setdefault(key)
        return list(cols)

    def format_table(self, max_rows: int | None = None) -> str:
        cols = self.columns()
        if not cols:
            return f"== {self.title} ==\n(no rows)"

        def fmt(v):
            if isinstance(v, float):
                if v == 0:
                    return "0"
                if abs(v) >= 1000 or abs(v) < 0.01:
                    return f"{v:.3g}"
                return f"{v:.3f}"
            return str(v)

        rows = self.rows if max_rows is None else self.rows[:max_rows]
        table = [[fmt(r.get(c, "")) for c in cols] for r in rows]
        widths = [
            max(len(c), *(len(t[i]) for t in table)) if table else len(c)
            for i, c in enumerate(cols)
        ]
        lines = [f"== {self.title} =="]
        lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for t in table:
            lines.append("  ".join(v.ljust(w) for v, w in zip(t, widths)))
        if max_rows is not None and len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        for k, v in self.summary.items():
            if k.startswith("_"):  # private payloads for downstream reuse
                continue
            lines.append(f"  {k}: {fmt(v)}")
        if self.notes:
            lines.append(f"  note: {self.notes}")
        return "\n".join(lines)

    def print(self, max_rows: int | None = None) -> None:
        print(self.format_table(max_rows))
