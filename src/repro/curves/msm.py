"""Multi-scalar multiplication (MSM).

Computes ``sum_i k_i * P_i`` for scalars ``k_i`` and curve points ``P_i``.
MSMs dominate HyperPlonk's prover runtime (§II-B, Fig. 12), and zkPHIRE's
MSM unit implements Pippenger's bucket algorithm [Pippenger76] in hardware.

:func:`msm_pippenger` is the software kernel (:func:`msm_jacobian`
documents its stages): equal scalars merged, a GLV scalar split, then
interleaved wNAF (Straus) for few terms or signed-digit buckets for
many, with every accumulation of affine points done batch-affine —
pairwise, a whole round of independent additions through one shared
inversion (:func:`~repro.curves.curve.affine_sum_rows`), at a bit over
half the cost of the mixed Jacobian additions it replaces.  The bucket
stage is the algorithm the hardware model (``repro.hw.msm_unit``) costs
out: per scalar window, accumulate points into buckets, then reduce
them with a running-sum scan; that model's docstring lists which of the
software choices here the paper's unit does not make.  Every small MSM
pays one doubling chain of half the scalar length however few points it
has, which is why scalar multiplication is simply the one-point case.

:func:`msm_naive` is the O(n · 256) double-and-add oracle used in tests.

**Fixed-base path.**  :class:`FixedBaseTable` is a comb (Lim–Lee)
table of one base: 2^8 - 1 precomputed affine points turn a scalar
multiplication into 16 doublings and ≤32 additions, and
:func:`msm_fixed_base` sums such tables on one shared doubling chain,
its 16 columns being 16 rows of the same batch-affine accumulation:
a bit over half the kernel's time on the same points (3.2 ms against
5.6 ms at n=16) for ~2 ms of precomputation per base.  The result is
the same group element (hence bit-identical affine coordinates) as any
other MSM algorithm;
``tests/test_msm_fixed_base.py`` locks the equivalence.  The serving
layer (:mod:`repro.service`) turns this on for its shared KZG; one-shot
callers only ever use the shared generator table
(:func:`repro.curves.bls12_381_g1.generator_table`), since per-base
tables pay for themselves only after some ten MSMs over the same bases.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.curves.curve import (
    INFINITY,
    AffinePoint,
    JacobianPoint,
    ShortWeierstrassCurve,
    affine_sum_rows,
    jacobian_add,
    jacobian_add_affine,
    jacobian_double,
    jacobian_normalize,
)
from repro.fields.vector import window_decompose

#: Width of the interleaved wNAF on the Straus path (≥ 3): digits are
#: the odd values in [-7, 7], so each point precomputes P, 3P, 5P, 7P.
WNAF_WIDTH = 4

#: Largest term count (after equal scalars are merged and the GLV split
#: has made two terms of a point) the Straus path handles; above it the
#: signed-bucket path is faster.  The two tie at 224 terms in the
#: per-size measurement of ``tools/msm_crossover.py`` (DESIGN.md §13).
STRAUS_MAX_TERMS = 224


def _check_lengths(scalars: Sequence[int], points: Sequence) -> None:
    if len(scalars) != len(points):
        raise ValueError("scalars and points must have equal length")
    if not points:
        raise ValueError("empty MSM")


def msm_naive(scalars: Sequence[int], points: Sequence[AffinePoint]) -> AffinePoint:
    """Reference MSM: an independent, plain double-and-add per term.

    Shares nothing with the kernel below but the three group-law
    formulas, which ``tests/test_curves.py`` checks on their own.
    """
    _check_lengths(scalars, points)
    curve = points[0].curve
    acc = curve.jacobian_infinity
    for k, pt in zip(scalars, points):
        base = pt.to_jacobian()
        term = curve.jacobian_infinity
        for bit in bin(k % curve.order)[2:]:
            term = term.double()
            if bit == "1":
                term = term.add(base)
        acc = acc.add(term)
    return acc.to_affine()


def optimal_window_bits(n: int) -> int:
    """Pippenger's asymptotically optimal window: ~log2(n) - log2(log2(n))."""
    if n <= 4:
        return 2
    logn = math.log2(n)
    return max(2, int(round(logn - math.log2(max(logn, 2)))))


def msm_pippenger(
    scalars: Sequence[int],
    points: Sequence[AffinePoint],
    window_bits: int | None = None,
) -> AffinePoint:
    """``sum_i scalars[i] * points[i]`` through the G1 MSM kernel.

    Points must lie in the subgroup of order ``curve.order`` (scalars
    are reduced modulo it).  With ``window_bits=None`` the kernel picks
    Straus or signed buckets from the term count; ``window_bits=c``
    pins the bucket method with ``c``-bit windows.
    """
    _check_lengths(scalars, points)
    return msm_jacobian(points[0].curve, scalars, points, window_bits).to_affine()


def msm_jacobian(
    curve: ShortWeierstrassCurve,
    scalars: Sequence[int],
    points: Sequence[AffinePoint],
    window_bits: int | None = None,
    in_subgroup: bool = True,
) -> JacobianPoint:
    """The kernel behind :func:`msm_pippenger` and ``scalar_mul``.

    1. **Equal scalars.**  Live points are grouped by scalar and every
       class is summed first (k·P + k·Q = k·(P + Q)), so a column with
       few distinct values — a selector, a sparse witness — is a
       few-term MSM whatever its length (the paper's sparse-MSM path,
       §IV-B1: 0 is skipped, 1 is a plain accumulation).
    2. **GLV split.**  On a curve with an endomorphism (β, λ), where
       λ² + λ + 1 equals the group order, ``divmod(k, λ)`` writes
       k = k₁ + k₂·λ with both halves below 2¹²⁸, and
       k·P = k₁·P + k₂·φ(P) with φ(x, y) = (βx, y): twice the terms at
       half the length, so half the doublings.
    3. **Straus** (few terms): width-4 wNAF per term over affine odd
       multiples; the summands of each bit position are one row, and
       one doubling chain walks the row sums.
    4. **Signed buckets** (many terms, or a pinned window): digits in
       [-2^(c-1), 2^(c-1)], so half the buckets of unsigned Pippenger;
       each bucket is one row.

    Every sum of affine points — classes, odd multiples, rows, buckets
    — is :func:`~repro.curves.curve.affine_sum_rows`: batch-affine
    additions sharing one inversion per round.  Only doublings, the
    bucket running sums and the few additions a round cannot amortise
    an inversion over are Jacobian.  All arithmetic runs on bare integer
    coordinates; zero scalars and points at infinity are dropped up
    front.

    φ acts as λ only inside the subgroup of order ``curve.order``, so
    stage 2 needs every point to be in it.  ``in_subgroup=False`` is
    for points of unchecked origin (what a verifier is handed): it
    skips the split and returns the same element as double-and-add for
    any curve point, at twice the doublings.
    """
    order = curve.order
    # k·P + k·Q = k·(P + Q): points under one scalar are summed first
    classes: dict[int, list[tuple[int, int]]] = {}
    for k, pt in zip(scalars, points):
        k %= order
        if k and not pt.inf:
            classes.setdefault(k, []).append((pt.x, pt.y))
    rows = list(classes.values())
    # a point left over in a class costs a whole term, not one addition
    affine_sum_rows(curve.field, curve.a, rows, min_pairs=1)
    # without the split λ = order leaves k₁ = k, k₂ = 0
    beta, lam = (in_subgroup and curve.endomorphism) or (1, order)
    split = [  # (x, y, k₁, k₂) per class with a finite sum
        (*row[0], k % lam, k // lam) for k, row in zip(classes, rows) if row
    ]
    if not split:
        return curve.jacobian_infinity
    terms = sum((k1 > 0) + (k2 > 0) for _, _, k1, k2 in split)
    if window_bits is None and terms <= STRAUS_MAX_TERMS:
        xyz = _straus(curve, split, beta)
    else:
        xyz = _signed_buckets(
            curve, split, beta, window_bits or optimal_window_bits(terms)
        )
    return JacobianPoint(curve, *xyz)


def _wnaf(k: int) -> list[tuple[int, int]]:
    """Nonzero width-:data:`WNAF_WIDTH` NAF digits of ``k > 0`` as
    (bit position, odd digit in (-2^(w-1), 2^(w-1))), LSB first; any two
    are at least ``w`` positions apart."""
    full = 1 << WNAF_WIDTH
    out = []
    pos = 0
    while k:
        zeros = (k & -k).bit_length() - 1
        k >>= zeros
        pos += zeros
        d = k & (full - 1)
        if d > full >> 1:
            d -= full
        out.append((pos, d))
        k = (k - d) >> WNAF_WIDTH
        pos += WNAF_WIDTH
    return out


def _straus(curve, split, beta: int) -> tuple[int, int, int]:
    """Interleaved wNAF over per-point tables of odd multiples."""
    field, a = curve.field, curve.a
    p = field.modulus
    # (2i+1)·P = (2i-1)·P + 2P for every point at once, in affine form
    multiple = [[(x, y)] for x, y, _, _ in split]
    twice = [row * 2 for row in multiple]
    affine_sum_rows(field, a, twice, min_pairs=1)
    tables = [list(row) for row in multiple]
    for _ in range((1 << (WNAF_WIDTH - 2)) - 1):
        multiple = [m + t for m, t in zip(multiple, twice)]
        affine_sum_rows(field, a, multiple, min_pairs=1)
        for table, row in zip(tables, multiple):
            table.append(row[0] if row else None)

    top = max(max(k1, k2) for _, _, k1, k2 in split).bit_length()
    schedule: list[list[tuple[int, int]]] = [[] for _ in range(top + 1)]

    def place(k: int, table: list) -> None:
        for pos, d in _wnaf(k):
            entry = table[abs(d) >> 1]
            if entry is not None:
                ex, ey = entry
                schedule[pos].append((ex, ey if d > 0 else ey and p - ey))

    for (_, _, k1, k2), table in zip(split, tables):
        place(k1, table)
        if k2:  # runs on φ(P), whose odd multiples are φ of P's
            place(k2, [e and (e[0] * beta % p, e[1]) for e in table])

    return _horner(curve, schedule)


def _horner(curve, schedule) -> tuple[int, int, int]:
    """Σ_j 2^j · Σ schedule[j] for rows of affine (x, y) pairs: the
    rows are summed batch-affine, the walk over their sums is Jacobian."""
    p, a = curve.field.modulus, curve.a
    affine_sum_rows(curve.field, a, schedule)
    x, y, z = INFINITY
    for row in reversed(schedule):
        x, y, z = jacobian_double(x, y, z, p, a)
        for x2, y2 in row:
            x, y, z = jacobian_add_affine(x, y, z, x2, y2, p, a)
    return x, y, z


def _signed_buckets(curve, split, beta: int, c: int) -> tuple[int, int, int]:
    """Bucket method over signed ``c``-bit digits.

    Adding B = Σ_w 2^(c-1)·2^(cw) (every window but the top one) to a
    scalar and slicing the sum into unsigned windows gives digits u_w
    with k = Σ_w (u_w - 2^(c-1))·2^(cw): the borrow/carry chain of
    signed recoding is done by one integer addition.  A negative digit
    adds the negated point, so buckets are indexed by |digit| ≤ 2^(c-1).
    Every (window, |digit|) bucket is one row of a single batch-affine
    accumulation; only the running-sum scan is Jacobian.
    """
    p, a = curve.field.modulus, curve.a
    terms = []
    for x, y, k1, k2 in split:
        if k1:
            terms.append((k1, x, y))
        if k2:
            terms.append((k2, x * beta % p, y))
    ks, xs, ys = zip(*terms)
    half = 1 << (c - 1)
    num_windows = -(-max(ks).bit_length() // c) + 1
    bias = sum(half << (c * w) for w in range(num_windows - 1))
    digits = window_decompose([k + bias for k in ks], c, num_windows)

    # bucket |d| of window w is buckets[w * half + |d| - 1]
    buckets: list[list[tuple[int, int]]] = [[] for _ in range(num_windows * half)]
    for w in range(num_windows):
        offset = half if w < num_windows - 1 else 0
        first = w * half - 1
        for u, x2, y2 in zip(digits[w], xs, ys):
            d = u - offset
            if d > 0:
                buckets[first + d].append((x2, y2))
            elif d < 0:
                buckets[first - d].append((x2, y2 and p - y2))
    affine_sum_rows(curve.field, a, buckets)

    x, y, z = INFINITY
    for w in range(num_windows - 1, -1, -1):
        # Σ_d d·bucket[d] by a suffix running sum
        running = total = INFINITY
        for d in range(half, 0, -1):
            for x2, y2 in buckets[w * half + d - 1]:
                running = jacobian_add_affine(*running, x2, y2, p, a)
            total = jacobian_add(*total, *running, p, a)
        for _ in range(c):
            x, y, z = jacobian_double(x, y, z, p, a)
        x, y, z = jacobian_add(x, y, z, *total, p, a)
    return x, y, z


class FixedBaseTable:
    """Comb table (Lim–Lee) of one fixed base point P.

    A scalar of ``columns · window_bits`` bits is cut into
    ``window_bits`` blocks of ``columns`` bits, and ``rows[0][m - 1]``
    holds Σ_{t ∈ bits of m} 2^(t·columns)·P in affine form.  Gathering
    bit j of every block into an index m_j gives
    k·P = Σ_j 2^j · rows[0][m_j - 1]: ``columns`` doublings and one
    addition per column, against a table of 2^window_bits - 1
    points that costs one affine addition per entry to build.  (A comb
    is that one row; ``rows`` stays a list of rows for entry counts.)

    On a curve with an endomorphism the comb covers one GLV half and
    serves the other through φ, which halves ``columns``; an explicit
    ``num_bits`` (a table for short scalars) skips the split.  The
    base must lie in the subgroup of order ``curve.order``.
    """

    def __init__(self, point: AffinePoint, window_bits: int = 8,
                 num_bits: int | None = None):
        if window_bits < 1:
            raise ValueError("window_bits must be >= 1")
        if num_bits is not None and num_bits < 1:
            raise ValueError("num_bits must be >= 1")
        curve = point.curve
        self.curve = curve
        self.point = point
        self.window_bits = window_bits
        self.num_bits = num_bits or curve.order.bit_length()
        # (β, λ) when scalars are split; (1, order) leaves k₁ = k, k₂ = 0
        self._split = (
            curve.endomorphism if num_bits is None and curve.endomorphism
            else (1, curve.order)
        )
        lam = self._split[1]
        half_bits = min(self.num_bits, max(lam, curve.order // lam).bit_length())
        self.columns = -(-half_bits // window_bits)
        self.rows = [self._comb()]

    def _comb(self) -> "list[tuple[int, int] | None]":
        """Block t doubles the table: 2^(t·columns)·P, then every entry
        so far plus it, through one shared inversion per block."""
        size = (1 << self.window_bits) - 1
        if self.point.inf:
            return [None] * size
        field = self.curve.field
        p, a = field.modulus, self.curve.a
        teeth = [(self.point.x, self.point.y, 1)]
        while len(teeth) < self.window_bits:
            cur = teeth[-1]
            for _ in range(self.columns):
                cur = jacobian_double(*cur, p, a)
            teeth.append(cur)
        comb: list[tuple[int, int] | None] = []
        for tooth in jacobian_normalize(field, teeth):
            if tooth is None:  # adding infinity repeats the table so far
                comb += [None, *comb]
                continue
            rows = [[entry, tooth] if entry else [tooth] for entry in comb]
            affine_sum_rows(field, a, rows, min_pairs=1)
            comb += [tooth, *[row[0] if row else None for row in rows]]
        return comb

    def place(self, k: int, schedule: "list[list[tuple[int, int]]]") -> None:
        """Append the affine summands of ``k * P`` to ``schedule``, one
        list per column: k·P = Σ_j 2^j · Σ schedule[j]."""
        k %= self.curve.order
        if k >> self.num_bits:
            raise ValueError(
                f"scalar needs {k.bit_length()} bits but this table only "
                f"covers {self.num_bits}"
            )
        comb, columns = self.rows[0], self.columns
        p = self.curve.field.modulus
        beta, lam = self._split
        k2, k1 = divmod(k, lam)
        for half, twist in ((k1, 1), (k2, beta)):
            if not half:
                continue
            # MSB first, so every ``columns``-th character from the
            # right spot is one column's index, top block first
            bits = format(half, f"0{columns * self.window_bits}b")
            for j in range(columns):
                m = int(bits[columns - 1 - j::columns], 2)
                entry = comb[m - 1] if m else None
                if entry is not None:
                    schedule[j].append(
                        entry if twist == 1 else (entry[0] * twist % p, entry[1])
                    )

    def mul(self, k: int) -> JacobianPoint:
        """``k * P`` as a Jacobian point."""
        return _sum_fixed_base(self.curve, [k], [self])

    def scalar_mul(self, k: int) -> AffinePoint:
        """``k * P`` in affine form (drop-in for AffinePoint.scalar_mul)."""
        return self.mul(k).to_affine()

    def __repr__(self):
        return (f"FixedBaseTable({self.curve.name}, w={self.window_bits}, "
                f"{self.columns} columns)")


def _sum_fixed_base(curve, scalars, tables) -> JacobianPoint:
    """Σ k_i · P_i over comb tables, on one shared doubling chain."""
    schedule: list[list[tuple[int, int]]] = [
        [] for _ in range(max(table.columns for table in tables))
    ]
    for k, table in zip(scalars, tables):
        table.place(k, schedule)
    return JacobianPoint(curve, *_horner(curve, schedule))


def msm_fixed_base(scalars: Sequence[int],
                   tables: Sequence[FixedBaseTable]) -> AffinePoint:
    """MSM over precomputed fixed-base tables (one per point)."""
    if len(scalars) != len(tables):
        raise ValueError("scalars and tables must have equal length")
    if not tables:
        raise ValueError("empty MSM")
    return _sum_fixed_base(tables[0].curve, scalars, tables).to_affine()
