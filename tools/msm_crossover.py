#!/usr/bin/env python
"""Measure the Straus / signed-bucket crossover of the G1 MSM kernel.

``repro.curves.msm.STRAUS_MAX_TERMS`` and
``repro.curves.curve.BATCH_MIN_PAIRS`` are constants chosen from these
tables (recorded in DESIGN.md §13); rerun it after changing the group
law or the kernel::

    PYTHONPATH=src python tools/msm_crossover.py
    PYTHONPATH=src python tools/msm_crossover.py --sizes 48 64 96 --repeats 5
    PYTHONPATH=src python tools/msm_crossover.py --sizes 4 64 --repeats 1 --check

It first prints the per-operation costs, in µs, the break-even of a
shared-inversion round follows from: a mixed and a full Jacobian
addition, a batched affine addition (16 rows of 16 points summed by
``affine_sum_rows``, its four inversions included), and one Fq
inversion.  Then, per size n (random full-length scalars, so 2n terms
after the GLV split), the fastest of ``--repeats`` runs, in ms, of the
Straus path, of the bucket path at the window the kernel would pick,
and of the best pinned window with its width; each round times every
variant once, so a slow stretch of the host hits all of them.
``--check`` compares every timed MSM with ``msm_naive`` and exits
non-zero on a mismatch.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

import repro.curves.msm as msm
from repro.curves import G1, batch_normalize, msm_naive, msm_pippenger
from repro.curves.bls12_381_g1 import generator_table
from repro.curves.curve import (
    BATCH_MIN_PAIRS,
    affine_sum_rows,
    jacobian_add,
    jacobian_add_affine,
)
from repro.fields import FR_MODULUS


def fastest(fns: dict, repeats: int) -> dict:
    """``{name: (fastest wall time in seconds, result)}`` of each
    callable.  Every round times all of them once, so a slow stretch of
    the host falls on all alike instead of on whichever ran then."""
    best = {name: (float("inf"), None) for name in fns}
    for _ in range(repeats):
        for name, fn in fns.items():
            started = time.perf_counter()
            result = fn()
            seconds = time.perf_counter() - started
            best[name] = (min(best[name][0], seconds), result)
    return best


def operation_costs_us(points, repeats: int) -> dict[str, float]:
    """Per-operation costs on distinct random points (no special case)."""
    p, a = G1.field.modulus, G1.a
    pairs = [(pt.x, pt.y) for pt in points]
    start = (*pairs[0], 1)
    jacobian = [jacobian_add_affine(*start, x, y, p, a) for x, y in pairs[1:]]

    def mixed():
        acc = start
        for x, y in pairs[1:]:
            acc = jacobian_add_affine(*acc, x, y, p, a)

    def full():
        acc = start
        for triple in jacobian:
            acc = jacobian_add(*acc, *triple, p, a)

    rows = [pairs[i:i + 16] for i in range(0, len(pairs), 16)]

    def batched():
        affine_sum_rows(G1.field, a, list(rows), min_pairs=1)

    def inversion():
        for x, _ in pairs:
            pow(x, -1, p)

    n = len(pairs)
    calls = {"mixed add": (mixed, n - 1), "full add": (full, n - 1),
             "batched affine add": (batched, n - len(rows)), "inversion": (inversion, n)}
    timed = fastest({name: fn for name, (fn, _) in calls.items()}, repeats)
    return {name: timed[name][0] / count * 1e6 for name, (_, count) in calls.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[1, 4, 16, 32, 48, 64, 80, 96, 112, 128, 256, 512])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--check", action="store_true",
                        help="compare every timed result with msm_naive")
    args = parser.parse_args()

    rng = random.Random(args.seed)
    table = generator_table()
    points = batch_normalize([
        table.mul(rng.randrange(1, FR_MODULUS))
        for _ in range(max(*args.sizes, 256))
    ])

    costs = operation_costs_us(points[:256], args.repeats)
    print("  ".join(f"{name} {us:.2f} us" for name, us in costs.items()))
    # on the safe side: the batched figure carries its own inversions
    saved = costs["mixed add"] - costs["batched affine add"]
    print(f"BATCH_MIN_PAIRS = {BATCH_MIN_PAIRS} "
          f"(measured break-even {costs['inversion'] / saved:.1f} pairs)")

    shipped = msm.STRAUS_MAX_TERMS
    mismatches = 0
    print(f"STRAUS_MAX_TERMS = {shipped}")
    print(f"{'n':>5} {'terms':>6} {'straus':>9} {'buckets':>9} {'(c)':>4} "
          f"{'best pinned':>12} {'(c)':>4}")
    for n in args.sizes:
        scalars = [rng.randrange(FR_MODULUS) for _ in range(n)]
        pts = points[:n]

        def forced(straus_max_terms: int, window_bits: int | None = None):
            def run():
                msm.STRAUS_MAX_TERMS = straus_max_terms
                try:
                    return msm_pippenger(scalars, pts, window_bits)
                finally:
                    msm.STRAUS_MAX_TERMS = shipped
            return run

        auto_c = msm.optimal_window_bits(2 * n)
        timed = fastest({
            "straus": forced(1 << 62),
            "buckets": forced(0),
            **{c: forced(0, c) for c in range(max(2, auto_c - 2), auto_c + 3)},
        }, args.repeats)
        if args.check:
            expected = msm_naive(scalars, pts)
            for name, (_, got) in timed.items():
                if got != expected:
                    mismatches += 1
                    print(f"MISMATCH n={n} path={name}", file=sys.stderr)
        ms = {name: seconds * 1e3 for name, (seconds, _) in timed.items()}
        best_c = min((c for c in ms if isinstance(c, int)), key=ms.get)
        print(f"{n:>5} {2 * n:>6} {ms['straus']:>9.2f} {ms['buckets']:>9.2f} "
              f"{auto_c:>4} {ms[best_c]:>12.2f} {best_c:>4}")
    if args.check:
        print("check: " + ("FAILED" if mismatches else "every result equals msm_naive"))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
