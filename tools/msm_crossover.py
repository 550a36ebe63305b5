#!/usr/bin/env python
"""Measure the Straus / signed-bucket crossover of the G1 MSM kernel.

``repro.curves.msm.STRAUS_MAX_TERMS`` is a constant chosen from this
table (recorded in DESIGN.md §13); rerun it after changing the group
law or the kernel::

    PYTHONPATH=src python tools/msm_crossover.py
    PYTHONPATH=src python tools/msm_crossover.py --sizes 48 64 96 --repeats 5

Per size n (random full-length scalars, so 2n terms after the GLV
split) it prints the fastest of ``--repeats`` runs, in ms, of the
Straus path, of the bucket path at the window the kernel would pick,
and of the best pinned window with its width.
"""

from __future__ import annotations

import argparse
import random
import time

import repro.curves.msm as msm
from repro.curves import batch_normalize, msm_pippenger
from repro.curves.bls12_381_g1 import generator_table
from repro.fields import FR_MODULUS


def fastest_ms(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[1, 4, 16, 32, 48, 64, 80, 96, 128, 256, 512])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    table = generator_table()
    points = batch_normalize(
        [table.mul(rng.randrange(1, FR_MODULUS)) for _ in range(max(args.sizes))]
    )
    shipped = msm.STRAUS_MAX_TERMS
    print(f"STRAUS_MAX_TERMS = {shipped}")
    print(f"{'n':>5} {'terms':>6} {'straus':>9} {'buckets':>9} {'(c)':>4} "
          f"{'best pinned':>12} {'(c)':>4}")
    for n in args.sizes:
        scalars = [rng.randrange(FR_MODULUS) for _ in range(n)]
        pts = points[:n]
        try:
            msm.STRAUS_MAX_TERMS = 1 << 62
            straus = fastest_ms(lambda: msm_pippenger(scalars, pts), args.repeats)
            msm.STRAUS_MAX_TERMS = 0
            buckets = fastest_ms(lambda: msm_pippenger(scalars, pts), args.repeats)
        finally:
            msm.STRAUS_MAX_TERMS = shipped
        auto_c = msm.optimal_window_bits(2 * n) + 1
        pinned = {
            c: fastest_ms(lambda: msm_pippenger(scalars, pts, window_bits=c),
                          args.repeats)
            for c in range(max(2, auto_c - 2), auto_c + 3)
        }
        best_c = min(pinned, key=pinned.get)
        print(f"{n:>5} {2 * n:>6} {straus:>9.2f} {buckets:>9.2f} {auto_c:>4} "
              f"{pinned[best_c]:>12.2f} {best_c:>4}")


if __name__ == "__main__":
    main()
