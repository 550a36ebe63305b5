#!/usr/bin/env python
"""CI gate: compare fresh ``BENCH_*.json`` records against baselines.

A record says how each of its numbers is gated: every leaf value sits
under exactly one *section* key, and its nearest enclosing section
decides the rule.

* ``exact`` — compared for equality: scenario blocks
  (``Scenario.as_dict()``), seeds, job counts, units, floors, and every
  deterministic model count or model-time figure.  A change means the
  benchmark now measures something else, which must be a deliberate,
  reviewed baseline update.
* ``ratio`` — numeric, within a relative tolerance (default ±30%,
  ``--tolerance``): speedups, throughput, hit and goodput rates.
* ``info`` — never compared: seconds and anything else read off the
  host (wall clock, core count).

Sections may sit at the top of a record or inside any row, so a row
stays one object (``rows[3].exact.name`` beside ``rows[3].ratio.speedup``).
The sets of ``exact`` and of ``ratio`` paths must match between the two
records.  A leaf outside every section fails as an ungated key, and so
does a section nested inside another section.  The gate holds no
knowledge of any particular record.

Usage (what CI runs)::

    cp BENCH_*.json ci-baselines/          # before re-running benches
    ... run every bench with BENCH_*_EMIT=1 ...
    python benchmarks/check_regression.py --baseline-dir ci-baselines

Exits 0 when every record is within policy and 1 on any drift (a record
present on one side only is drift), printing one line per problem so
failures are attributable.  A record that is not JSON, or an ``--only``
name with no file on either side, exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SECTIONS = ("exact", "ratio", "info")


def flatten(doc, problems: list[str], side: str) -> dict[str, tuple[str, object]]:
    """Map every leaf path to ``(section, value)``; an empty object or
    list is one leaf.  Ungated leaves and nested sections are reported
    in ``problems`` instead."""
    leaves: dict[str, tuple[str, object]] = {}

    def walk(node, path: str, section: str | None) -> None:
        if isinstance(node, dict) and node:
            children = [(f"{path}.{k}" if path else k, k, v) for k, v in node.items()]
        elif isinstance(node, list) and node:
            children = [(f"{path}[{i}]", None, v) for i, v in enumerate(node)]
        elif section is None:
            problems.append(f"{side}: ungated key (outside every section): {path}")
            return
        else:
            leaves[path] = (section, node)
            return
        for child, key, value in children:
            if key not in SECTIONS:
                walk(value, child, section)
            elif section is None:
                walk(value, child, key)
            else:
                problems.append(f"{side}: section nested in {section!r}: {child}")

    walk(doc, "", None)
    return leaves


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare_records(baseline, fresh, tolerance: float = 0.30) -> list[str]:
    """Problems (empty = within policy) for one record pair."""
    problems: list[str] = []
    base = flatten(baseline, problems, "baseline")
    new = flatten(fresh, problems, "fresh")
    for path in sorted(base.keys() | new.keys()):
        section, base_value = base.get(path) or new[path]
        if section == "info":
            continue
        if path not in new or path not in base:
            state = "vanished" if path in base else "appeared"
            problems.append(f"{section} key {state}: {path}")
            continue
        fresh_value = new[path][1]
        if section == "exact":
            if base_value != fresh_value:
                problems.append(
                    f"exact drift at {path}: baseline {base_value!r} "
                    f"!= fresh {fresh_value!r}"
                )
        elif not (is_number(base_value) and is_number(fresh_value)):
            problems.append(f"non-numeric ratio at {path}")
        elif base_value == 0:
            if fresh_value != 0:
                problems.append(f"ratio drift at {path}: baseline 0 vs {fresh_value}")
        else:
            drift = (fresh_value - base_value) / abs(base_value)
            if abs(drift) > tolerance:
                problems.append(
                    f"ratio drift at {path}: baseline {base_value} vs fresh "
                    f"{fresh_value} ({drift:+.1%}, tolerance ±{tolerance:.0%})"
                )
    return problems


def load(path: Path, parser: argparse.ArgumentParser):
    """A record's JSON; a file that does not parse exits 2 naming it."""
    try:
        return json.loads(path.read_text())
    except ValueError as exc:
        parser.error(f"{path} is not a JSON record ({exc})")


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
        help="relative tolerance for ratio values (default 0.30)",
    )
    parser.add_argument(
        "--only",
        nargs="*",
        metavar="RECORD",
        help="check only these record file names (default: every "
        "BENCH_*.json on either side)",
    )
    args = parser.parse_args(argv)
    if not 0 <= args.tolerance < 1:
        parser.error(f"--tolerance must be in [0, 1); got {args.tolerance}")
    dirs = (args.baseline_dir, args.fresh_dir)
    names = args.only or sorted({p.name for d in dirs for p in d.glob("BENCH_*.json")})
    if not names:
        parser.error(f"no BENCH_*.json in {args.baseline_dir} or {args.fresh_dir}")
    for name in names:
        if not any((d / name).exists() for d in dirs):
            parser.error(f"no record {name} in {args.baseline_dir} or {args.fresh_dir}")

    failed = False
    for name in names:
        baseline, fresh = (d / name for d in dirs)
        if not baseline.exists():
            problems = [f"missing baseline {baseline}"]
        elif not fresh.exists():
            problems = [f"missing fresh record {fresh}"]
        else:
            problems = compare_records(
                load(baseline, parser), load(fresh, parser), args.tolerance
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
