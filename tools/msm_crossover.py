#!/usr/bin/env python
"""Measure the constants of the G1 MSM kernel.

``repro.curves.curve.BATCH_MIN_PAIRS`` and ``repro.curves.msm``'s
``WNAF_WIDTH``, ``RESIDENT_WIDTH``, ``STRAUS_MAX_TERMS`` and
``RESIDENT_STRAUS_MAX_TERMS`` are chosen from these tables (recorded in
DESIGN.md §13); rerun it after changing the group law or the kernel::

    PYTHONPATH=src python tools/msm_crossover.py
    PYTHONPATH=src python tools/msm_crossover.py --sizes 48 64 96 --repeats 5
    PYTHONPATH=src python tools/msm_crossover.py --sizes 4 64 --repeats 1 --check

Every number is the fastest of ``--repeats`` runs, and each round times
all variants of a line once, so a slow stretch of the host hits all of
them.  In order:

* per-operation costs, in µs, the break-even of a shared-inversion round
  follows from: a mixed and a full Jacobian addition, a batched affine
  addition (16 rows of 16 points summed by ``affine_sum_rows``, its four
  inversions included), and one Fq inversion;
* wNAF widths at n=64: the Straus path over tables built in the call
  (plain points) and over resident tables (``ResidentBases``, with the
  one-time build per base and the number of term uses that repays it);
* per size n (random full-length scalars, so 2n terms after the GLV
  split), ms: Straus over plain points, Straus over resident tables, the
  bucket path at the window the kernel would pick, and the best pinned
  window with its width;
* the comb (``msm_fixed_base``) against resident-table Straus on the
  same bases, n = 1 … 32, with the comb's build per base;
* a Jellyfish proof at μ = 4 and 6 on plain-list bases (the kernel sees
  variable bases), on a fresh SRS (every table built inside the proof)
  and warm, with the G1 points it commits directly and in opening
  quotients.

``--check`` compares every timed MSM with ``msm_naive`` and the
proofs with each other, and exits non-zero on a mismatch.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from contextlib import contextmanager

import repro.curves.msm as msm
from repro.curves import (
    G1,
    FixedBaseTable,
    batch_normalize,
    msm_fixed_base,
    msm_naive,
    msm_pippenger,
)
from repro.curves.bls12_381_g1 import generator_table
from repro.curves.curve import (
    BATCH_MIN_PAIRS,
    affine_sum_rows,
    jacobian_add,
    jacobian_add_affine,
)
from repro.curves.msm import ResidentBases
from repro.fields import FR_MODULUS
from repro.hyperplonk import (
    JELLYFISH,
    HyperPlonkProver,
    MultilinearKZG,
    TrapdoorSRS,
    preprocess,
)
from repro.service.traffic import synthesize_circuit

ALWAYS = 1 << 62  # a term bound no MSM reaches: the Straus path, forced


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


@contextmanager
def kernel(**constants):
    """Module constants of ``repro.curves.msm`` set for the block."""
    shipped = {name: getattr(msm, name) for name in constants}
    for name, value in constants.items():
        setattr(msm, name, value)
    try:
        yield
    finally:
        for name, value in shipped.items():
            setattr(msm, name, value)


def straus(scalars, points, **constants):
    """A callable running the MSM on the Straus path whatever its size."""
    def run():
        with kernel(STRAUS_MAX_TERMS=ALWAYS, RESIDENT_STRAUS_MAX_TERMS=ALWAYS,
                    **constants):
            return msm_pippenger(scalars, points)
    return run


class Checker:
    """Counts results that differ from the expected one."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.mismatches = 0

    def __call__(self, what: str, timed: dict, expected) -> None:
        if not self.enabled:
            return
        expected = expected()
        for name, (_, got) in timed.items():
            if got != expected:
                self.mismatches += 1
                print(f"MISMATCH {what} {name}", file=sys.stderr)


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


def width_table(points, scalars, repeats: int, check: Checker) -> None:
    """wNAF widths on the Straus path, tables built per call and resident."""
    n = len(points)
    fresh_widths, resident_widths = (3, 4, 5), (5, 6, 7, 8)
    residents, build_ms = {}, {}
    for width in resident_widths:
        with kernel(RESIDENT_WIDTH=width):
            residents[width] = ResidentBases(points)
            started = time.perf_counter()
            residents[width].odd_multiples()
            build_ms[width] = (time.perf_counter() - started) * 1e3 / n
    timed = fastest({
        **{f"w={w}": straus(scalars, points, WNAF_WIDTH=w) for w in fresh_widths},
        **{f"resident w={w}": straus(scalars, residents[w], RESIDENT_WIDTH=w)
           for w in resident_widths},
    }, repeats)
    check(f"widths n={n}", timed, lambda: msm_naive(scalars, points))
    ms = {name: seconds * 1e3 for name, (seconds, _) in timed.items()}
    print(f"WNAF_WIDTH = {msm.WNAF_WIDTH}, tables built in the call, n={n}, ms: "
          + "  ".join(f"w={w} {ms[f'w={w}']:.2f}" for w in fresh_widths))
    print(f"RESIDENT_WIDTH = {msm.RESIDENT_WIDTH}, n={n}:")
    print(f"{'w':>5} {'msm ms':>8} {'build ms/base':>14} {'repaid after':>13}")
    shipped_ms = ms[f"w={msm.WNAF_WIDTH}"]
    for w in resident_widths:
        # reads of a base's table (two a dense MSM, one per GLV half)
        # until what a term saves over building its own repays the build
        saved_per_term = (shipped_ms - ms[f"resident w={w}"]) / (2 * n)
        uses = build_ms[w] / saved_per_term if saved_per_term > 0 else float("inf")
        print(f"{w:>5} {ms[f'resident w={w}']:>8.2f} {build_ms[w]:>14.3f} "
              f"{uses:>8.1f} uses")


def crossover_table(points, sizes, rng, repeats: int, check: Checker) -> None:
    """Straus (plain and resident) against the buckets, per size."""
    print(f"STRAUS_MAX_TERMS = {msm.STRAUS_MAX_TERMS}, "
          f"RESIDENT_STRAUS_MAX_TERMS = {msm.RESIDENT_STRAUS_MAX_TERMS}")
    print(f"{'n':>5} {'terms':>6} {'straus':>9} {'resident':>9} {'buckets':>9} "
          f"{'(c)':>4} {'best pinned':>12} {'(c)':>4}")
    for n in sizes:
        scalars = [rng.randrange(FR_MODULUS) for _ in range(n)]
        pts = points[:n]
        resident = ResidentBases(pts)
        resident.odd_multiples()  # built off the clock
        auto_c = msm.optimal_window_bits(2 * n)
        timed = fastest({
            "straus": straus(scalars, pts),
            "resident": straus(scalars, resident),
            **{c: (lambda c=c: msm_pippenger(scalars, pts, c))
               for c in range(max(2, auto_c - 2), auto_c + 3)},
        }, repeats)
        check(f"n={n} path", timed, lambda: msm_naive(scalars, pts))
        ms = {name: seconds * 1e3 for name, (seconds, _) in timed.items()}
        best_c = min((c for c in ms if isinstance(c, int)), key=ms.get)
        print(f"{n:>5} {2 * n:>6} {ms['straus']:>9.2f} {ms['resident']:>9.2f} "
              f"{ms[auto_c]:>9.2f} {auto_c:>4} {ms[best_c]:>12.2f} {best_c:>4}")


def comb_table(points, rng, repeats: int, check: Checker) -> None:
    """The comb of ``fixed_base=True`` against resident-table Straus."""
    started = time.perf_counter()
    combs = [FixedBaseTable(pt) for pt in points[:32]]
    comb_build_ms = (time.perf_counter() - started) * 1e3 / len(combs)
    print(f"comb (msm_fixed_base, build {comb_build_ms:.2f} ms/base) vs resident Straus, ms:")
    print(f"{'n':>5} {'comb':>8} {'resident':>9}")
    for n in (1, 2, 4, 8, 16, 32):
        scalars = [rng.randrange(FR_MODULUS) for _ in range(n)]
        resident = ResidentBases(points[:n])
        resident.odd_multiples()
        timed = fastest({
            "comb": lambda: msm_fixed_base(scalars, combs[:n]),
            "resident": lambda: msm_pippenger(scalars, resident),
        }, repeats)
        check(f"comb table n={n}", timed, lambda: msm_naive(scalars, points[:n]))
        print(f"{n:>5} {timed['comb'][0] * 1e3:>8.2f} {timed['resident'][0] * 1e3:>9.2f}")


class ViewSRS(TrapdoorSRS):
    """An SRS whose bases reach the kernel as ``view(bases)``: ``list``
    hides the resident tables (the kernel sees variable bases), and a
    new ``ResidentBases`` after :meth:`forget` has none built yet."""

    def __init__(self, max_vars: int, seed: int, view):
        super().__init__(max_vars, random.Random(seed))
        self.view = view
        self.forget()

    def forget(self) -> None:
        self.viewed: dict[int, list] = {}

    def bases(self, num_vars: int):
        if num_vars not in self.viewed:
            self.viewed[num_vars] = self.view(super().bases(num_vars))
        return self.viewed[num_vars]


class PointCountingKZG(MultilinearKZG):
    """Tallies the points a proof commits: directly, and as opening
    quotients (the commits ``open`` makes)."""

    def __init__(self, srs: TrapdoorSRS):
        super().__init__(srs)
        self.points = {"commit": 0, "quotient": 0}
        self.kind = "commit"

    def commit(self, mle):
        self.points[self.kind] += len(mle.table)
        return super().commit(mle)

    def open(self, mle, point):
        self.kind = "quotient"
        try:
            return super().open(mle, point)
        finally:
            self.kind = "commit"


def proof_lines(seed: int, repeats: int, check: Checker) -> None:
    """One Jellyfish proof on plain-list bases, cold and warm, and the
    G1 points it commits (the SRS has μ variables: no more are needed)."""
    for mu in (4, 6):
        circuit = synthesize_circuit(JELLYFISH, mu, witness_seed=seed)
        plain = ViewSRS(mu, seed, list)
        cold = ViewSRS(mu, seed, ResidentBases)
        # the index is the same for both (same secrets) and is built on
        # the plain one, so the cold SRS meets its first MSM in prove()
        pidx, _ = preprocess(circuit, MultilinearKZG(plain))
        for arity in range(mu + 1):
            cold.bases(arity)

        def prove(srs):
            return HyperPlonkProver(
                circuit, pidx, MultilinearKZG(srs)).prove()

        def first_proof():
            cold.forget()
            return prove(cold)

        timed = fastest({"plain": lambda: prove(plain), "cold": first_proof,
                         "warm": lambda: prove(cold)}, repeats)
        counting = PointCountingKZG(cold)
        counted = HyperPlonkProver(circuit, pidx, counting).prove()
        timed["counted"] = (0.0, counted)
        check(f"mu={mu} proof", timed, lambda: timed["plain"][1])
        print(f"Jellyfish mu={mu} proof, ms: plain-list bases "
              f"{timed['plain'][0] * 1e3:.0f}, first on a fresh SRS (tables "
              f"built inside) {timed['cold'][0] * 1e3:.0f}, "
              f"warm {timed['warm'][0] * 1e3:.0f}; G1 points: "
              f"{counting.points['commit']} committed, "
              f"{counting.points['quotient']} in opening quotients")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[1, 4, 16, 32, 64, 128, 256, 512, 1024, 2048])
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
    check = Checker(args.check)

    costs = operation_costs_us(points[:256], args.repeats)
    print("  ".join(f"{name} {us:.2f} us" for name, us in costs.items()))
    # on the safe side: the batched figure carries its own inversions
    saved = costs["mixed add"] - costs["batched affine add"]
    print(f"BATCH_MIN_PAIRS = {BATCH_MIN_PAIRS} "
          f"(measured break-even {costs['inversion'] / saved:.1f} pairs)")

    scalars64 = [rng.randrange(FR_MODULUS) for _ in range(64)]
    width_table(points[:64], scalars64, args.repeats, check)
    crossover_table(points, args.sizes, rng, args.repeats, check)
    comb_table(points, rng, args.repeats, check)
    proof_lines(args.seed, args.repeats, check)
    if args.check:
        print("check: " + ("FAILED" if check.mismatches
                           else "every MSM equals msm_naive, the proofs are equal"))
    return 1 if check.mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
