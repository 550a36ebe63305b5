#!/usr/bin/env python
"""Print the round schedule the fused SumCheck kernel runs a gate on.

``FusedBackend.round_evaluations`` multiplies every sub-sum of a gate out
at its own degree + 1 points, carries it to the rest by forward
differences and multiplies the factor common to all terms in once
(``repro.fields.vector.round_schedule``; DESIGN.md §2 "The fused round
schedule").  This tool shows what that comes to for a gate::

    PYTHONPATH=src python tools/sumcheck_plan.py 22          # Jellyfish
    PYTHONPATH=src python tools/sumcheck_plan.py sweep-d16-fr
    PYTHONPATH=src python tools/sumcheck_plan.py --all

For one gate: the common factor, the residual degree groups, and how
many points each MLE is extended to.  For ``--all``: one row for each of
Table I's 25 gates and for the degree-sweep family (d = 2, 3, 7, 16,
with and without ``fr``).  Every row ends with the big-int multiplies
and the reductions of products *per pair*, under the all-points schedule
the kernel ran before (every term multiplied out at all d + 1 points:
a closed form over the term structure) and under the schedule it runs
now (*counted*: the kernel is run on integers that tally their own
multiplies and reductions, over one pair and over two, and the
difference is what a pair costs — so the column cannot drift from the
code).  One-lane reductions of extension columns, which only the old
schedule had (d − 1 per MLE and pair), are in neither column.  The last
column is the kernel's working set: the big-int entries it holds for one
tile of ``ROUND_TILE_PAIRS`` pairs, each MLE's extension points plus
each power column's, read off the same schedule the kernel sizes them by.

Exits non-zero if a schedule asks for an MLE at more than d + 1 points.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter

from repro.fields import Fr
from repro.fields.vector import (
    KERNEL,
    ROUND_TILE_PAIRS,
    RoundSchedule,
    round_schedule,
)
from repro.gates import gate_by_id, high_degree_sweep_gate
from repro.gates.library import TABLE1, GateSpec

SWEEP_DEGREES = (2, 3, 7, 16)


class Counted(int):
    """An ``int`` that tallies the big-int work done on it: a multiply
    when both operands are wider than a machine word (not a sign or a
    small constant), a reduction when the operand is a product (wider
    than the modulus by more than a word)."""

    tally: Counter = Counter()

    def __mul__(self, other):
        if abs(self) >> 64 and abs(other) >> 64:
            Counted.tally["muls"] += 1
        return Counted(int.__mul__(self, other))

    __rmul__ = __mul__

    def __mod__(self, modulus):
        if abs(self) >> 64 >= modulus:
            Counted.tally["reductions"] += 1
        return Counted(int.__mod__(self, modulus))

    def __add__(self, other):
        return Counted(int.__add__(self, other))

    __radd__ = __add__

    def __sub__(self, other):
        return Counted(int.__sub__(self, other))

    def __rsub__(self, other):
        return Counted(int.__rsub__(self, other))

    def __neg__(self):
        return Counted(int.__neg__(self))


def counted_per_pair(terms, names, degree: int) -> tuple[int, int]:
    """(multiplies, reductions) one more pair costs the fused kernel."""
    rng = random.Random(0)
    seen = []
    for pairs in (1, 2):
        tables = {
            name: [Counted(rng.randrange(1 << 200, Fr.modulus))
                   for _ in range(2 * pairs)]
            for name in names
        }
        Counted.tally = Counter()
        KERNEL.round_evaluations(Fr, terms, tables, degree)
        seen.append(Counted.tally)
    return (seen[1]["muls"] - seen[0]["muls"],
            seen[1]["reductions"] - seen[0]["reductions"])


def _power_ops(power: int) -> tuple[int, int]:
    """(multiplies, reductions) the old kernel spent on ``v ** power``."""
    special = {2: (1, 1), 3: (2, 1), 4: (2, 2), 5: (3, 2)}
    if power in special:
        return special[power]
    ops = bin(power).count("1") - 1 + power.bit_length() - 1
    return ops, ops


def all_points_per_pair(factors, degree: int) -> tuple[int, int]:
    """(multiplies, reductions) per pair when every term is multiplied
    out at all d + 1 points: k − 1 multiplies for a term of k factor
    columns, a reduction for every two lanes past the third, and each
    distinct power column raised once."""
    muls = reductions = 0
    for term in factors:
        k = len(term)
        muls += max(k - 1, 0)
        if k >= 4:
            reductions += 1 + (k - 3) // 2
    for _, power in {key for term in factors for key in term}:
        if power > 1:
            m, r = _power_ops(power)
            muls += m
            reductions += r
    return muls * (degree + 1), reductions * (degree + 1)


def tile_entries(plan: RoundSchedule) -> int:
    """Big-int entries the kernel holds for one tile: every MLE extended
    to ``mle_points`` and every power column raised at ``points``, per
    pair (as ``_round_tile`` sizes them), times ``ROUND_TILE_PAIRS``."""
    per_pair = sum(plan.mle_points.values()) + sum(
        n for (_, power), n in plan.points.items() if power > 1
    )
    return per_pair * ROUND_TILE_PAIRS


def describe(spec: GateSpec) -> dict:
    """A gate's schedule and its per-pair costs, old and new."""
    compiled = spec.compiled
    scalars = {name: 3 for name in compiled.scalar_names}
    terms = compiled.bind(Fr, scalars)
    factors = tuple(term.factors for term in terms)
    plan = round_schedule(factors, spec.degree)
    return {
        "spec": spec,
        "plan": plan,
        "old": all_points_per_pair(factors, spec.degree),
        "new": counted_per_pair(terms, compiled.mle_names, spec.degree),
    }


def _product(factors) -> str:
    return "·".join(
        name if power == 1 else f"{name}^{power}" for name, power in factors
    ) or "1"


def print_gate(row: dict) -> None:
    """The verbose form: one gate, its groups and its points per MLE."""
    spec, plan = row["spec"], row["plan"]
    print(f"{spec.name}: degree {plan.degree}, {spec.num_terms} terms, "
          f"{spec.num_unique_mles} MLEs, {plan.degree + 1} points a round")
    print(f"  common factor: {_product(plan.common)}"
          + ("" if plan.common else "  (none: groups are summed first)"))
    for m, members in plan.groups:
        residuals = " + ".join(_product(plan.residuals[i]) for i in members)
        print(f"  degree {m:2d} at {min(m, plan.degree) + 1:2d} points: "
              f"{residuals}")
    by_points: dict[int, list[str]] = {}
    for name, n in plan.mle_points.items():
        by_points.setdefault(n, []).append(name)
    for n in sorted(by_points):
        print(f"  extended to {n:2d} points: {' '.join(by_points[n])}")
    for label, (muls, reductions) in (("all points", row["old"]),
                                      ("scheduled", row["new"])):
        print(f"  {label}: {muls:4d} multiplies, {reductions:4d} reductions "
              "per pair")
    print(f"  working set: {tile_entries(plan)} entries a tile "
          f"({ROUND_TILE_PAIRS} pairs)")


def print_table(rows: list[dict]) -> None:
    """The ``--all`` form: one line per gate."""
    print(f"{'gate':<24} {'d':>2} {'terms':>5}  {'common':<16} "
          f"{'groups (degree×terms)':<22} {'mul old→new':<11} "
          f"{'red old→new':<11} {'tile entries':>12}")
    for row in rows:
        spec, plan = row["spec"], row["plan"]
        label = spec.name if spec.gate_id < 0 else f"{spec.gate_id} {spec.name}"
        groups = " ".join(f"{m}×{len(members)}" for m, members in plan.groups)
        print(f"{label[:24]:<24} {plan.degree:>2} {spec.num_terms:>5}  "
              f"{_product(plan.common):<16} {groups:<22} "
              f"{row['old'][0]:>4}→{row['new'][0]:<6} "
              f"{row['old'][1]:>4}→{row['new'][1]:<6} "
              f"{tile_entries(plan):>12}")


def over_budget(plan: RoundSchedule) -> list[str]:
    """MLEs the schedule wants at more than d + 1 points (never)."""
    return [name for name, n in plan.mle_points.items() if n > plan.degree + 1]


def parse_gate(text: str) -> GateSpec:
    """``7`` (a Table I id) or ``sweep-d16`` / ``sweep-d16-fr``."""
    if text.startswith("sweep-d"):
        body = text[len("sweep-d"):]
        with_fr = body.endswith("-fr")
        try:
            return high_degree_sweep_gate(
                int(body[:-3] if with_fr else body), with_fr
            )
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    try:
        gate_id = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is neither a Table I id nor sweep-dN[-fr]"
        ) from None
    if not 0 <= gate_id < len(TABLE1):
        raise argparse.ArgumentTypeError(
            f"Table I ids run 0..{len(TABLE1) - 1}, got {gate_id}"
        )
    return gate_by_id(gate_id)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Show the fused SumCheck kernel's round schedule."
    )
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("gate", nargs="?", type=parse_gate, metavar="GATE",
                        help="a Table I id (0..24) or sweep-dN[-fr]")
    target.add_argument("--all", action="store_true",
                        help="Table I's 25 gates and the sweep family")
    args = parser.parse_args(argv)

    if args.all:
        specs = list(TABLE1) + [
            high_degree_sweep_gate(d, with_fr)
            for d in SWEEP_DEGREES for with_fr in (False, True)
        ]
        rows = [describe(spec) for spec in specs]
        print_table(rows)
    else:
        rows = [describe(args.gate)]
        print_gate(rows[0])

    bad = {row["spec"].name: over_budget(row["plan"]) for row in rows}
    bad = {name: mles for name, mles in bad.items() if mles}
    for name, mles in bad.items():
        print(f"error: {name}: more than d + 1 points asked of "
              f"{', '.join(mles)}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
