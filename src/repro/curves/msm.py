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

**Fixed bases.**  Every MSM a prover runs is over the bases of an SRS,
and a list of bases wrapped in :class:`ResidentBases` keeps the 32 odd
multiples of each between calls: a class that holds one base reads
them with a width-7 wNAF (16 additions a 128-bit term and no table to
build, against 26 + 4 at the per-call width 4), which is 1.6× on a
64-point commitment and, at 0.24 ms a base to build, repaid by the
third or fourth read of a base's table — inside the first proof.

:class:`FixedBaseTable` goes further for one base: a comb (Lim–Lee)
of 2^8 - 1 precomputed affine points turns a scalar multiplication
into 16 doublings and ≤32 additions, and :func:`msm_fixed_base` sums
such tables on one shared doubling chain, its 16 columns being 16 rows
of the same batch-affine accumulation: 0.4–0.85× the resident-table
time on the same points from n=1 to n=32, for ~2 ms of precomputation
per base (ten times the resident build), which pays for itself after
some ten MSMs over the same bases.  The serving layer
(:mod:`repro.service`) turns it on for the small arities of its shared
KZG; multiples of the generator go through one process-wide comb
(:func:`repro.curves.bls12_381_g1.generator_table`).  Either way the
result is the same group element (hence bit-identical affine
coordinates) as any other MSM algorithm;
``tests/test_msm_fixed_base.py`` locks the equivalence.

Each kernel call counts its group operations, in closed form, into the
recorder's G1 tally (:mod:`repro.fields.counters`, DESIGN.md §4).
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
from repro.fields import counters
from repro.fields.vector import window_decompose

#: Width of the interleaved wNAF for a term that builds its table in the
#: call (≥ 3): digits are the odd values in [-7, 7] over P, 3P, 5P, 7P.
#: ``tools/msm_crossover.py``, plain points, ms at width 3 / 4 / 5:
#: n=1 1.48 / 1.42 / 1.52, n=4 2.96 / 2.77 / 2.74, n=16 8.34 / 7.32 /
#: 6.99, n=64 29.4 / 25.4 / 23.2 — width 5 leads only from ~16 points a
#: call, and the callers that had that many (SRS commitments) now read
#: resident tables; what builds a table here is a merged class or two of
#: a witness column, or the verifier's μ-term sums.
WNAF_WIDTH = 4

#: Width of the wNAF over the tables of :class:`ResidentBases`: 2^5 = 32
#: odd multiples a base, one digit per 8 bits where width 4 has one per
#: 5.  ``tools/msm_crossover.py``, n=64, width 5 / 6 / 7 / 8: MSM 20.0 /
#: 18.0 / 15.7 / 14.1 ms (25.1 with per-call width-4 tables), one-time
#: build 0.06 / 0.12 / 0.24 / 0.53 ms a base, repaid after 1.4 / 2.2 /
#: 3.2 / 6.2 reads of a base's table (a dense MSM reads it twice).
#: Width 8 buys 10% for twice the build and twice the memory (9.4 kB a
#: base at width 7, its entries carrying β·x).
RESIDENT_WIDTH = 7

#: Largest term count (after equal scalars are merged and the GLV split
#: has made two terms of a point) the Straus path handles when every
#: term builds its table in the call; above it the signed-bucket path is
#: faster.  The two tie at 224 terms in the per-size measurement of
#: ``tools/msm_crossover.py`` (DESIGN.md §13).
STRAUS_MAX_TERMS = 224

#: The same bound when every term reads a resident table.  Median
#: resident-Straus / buckets time over 11 alternations
#: (``tools/msm_crossover.py`` sizes): 0.73 at 512 terms, 0.88 at 1024,
#: 0.92 at 1536, 0.99 at 2048, 1.05 at 3072.  It is also what bounds the
#: tables: a list of more than 1024 bases gets none (:func:`msm_jacobian`).
RESIDENT_STRAUS_MAX_TERMS = 2048


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
    3. **Straus** (few terms): wNAF per term over affine odd multiples;
       the summands of each bit position are one row, and one doubling
       chain walks the row sums.  When ``points`` is a
       :class:`ResidentBases`, a class that holds a single base reads
       that base's resident table at width :data:`RESIDENT_WIDTH`; a
       class merged from several is a new point and builds its
       width-:data:`WNAF_WIDTH` table here.
    4. **Signed buckets** (many terms, or a pinned window): digits in
       [-2^(c-1), 2^(c-1)], so half the buckets of unsigned Pippenger;
       each bucket is one row.

    Straus is taken while ``fresh / STRAUS_MAX_TERMS + resident /
    RESIDENT_STRAUS_MAX_TERMS ≤ 1`` over the terms that build a table
    and the terms that read one: each kind against the count at which it
    alone ties with the buckets.

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
    last: dict[int, int] = {}  # scalar -> index of the last point under it
    for i, (k, pt) in enumerate(zip(scalars, points)):
        k %= order
        if k and not pt.inf:
            classes.setdefault(k, []).append((pt.x, pt.y))
            last[k] = i
    rows = list(classes.values())
    # a class of one base keeps its index into the resident tables; a
    # list too long for a dense MSM over it to take the Straus path
    # never gets any
    tabled = (isinstance(points, ResidentBases)
              and 2 * len(points) <= RESIDENT_STRAUS_MAX_TERMS)
    bases = [last[k] if tabled and len(row) == 1 else None
             for k, row in classes.items()]
    # a point left over in a class costs a whole term, not one addition
    affine_sum_rows(curve.field, curve.a, rows, min_pairs=1)
    # without the split λ = order leaves k₁ = k, k₂ = 0
    beta, lam = (in_subgroup and curve.endomorphism) or (1, order)
    split = [  # (x, y, k₁, k₂, base) per class with a finite sum
        (*row[0], k % lam, k // lam, base)
        for k, row, base in zip(classes, rows, bases) if row
    ]
    if not split:
        return curve.jacobian_infinity
    fresh = resident = 0
    for _, _, k1, k2, base in split:
        if base is None:
            fresh += (k1 > 0) + (k2 > 0)
        else:
            resident += (k1 > 0) + (k2 > 0)
    if window_bits is None and (
        fresh * RESIDENT_STRAUS_MAX_TERMS + resident * STRAUS_MAX_TERMS
        <= STRAUS_MAX_TERMS * RESIDENT_STRAUS_MAX_TERMS
    ):
        xyz = _straus(curve, split, beta,
                      points.odd_multiples() if resident else None)
    else:
        xyz = _signed_buckets(
            curve, split, beta, window_bits or optimal_window_bits(fresh + resident)
        )
    return JacobianPoint(curve, *xyz)


def _place_wnaf(schedule, k: int, table: list, width: int, coord: int,
                p: int) -> None:
    """Append the summands of ``k·P`` to ``schedule`` (row j holds those
    of 2^j): ``k ≥ 0`` recoded LSB first into width-``width`` NAF digits
    — odd, in (-2^(w-1), 2^(w-1)), any two at least ``w`` positions apart
    — and digit d at position j puts ``table[|d| >> 1]``, the entry for
    |d|·P, into row j as (``entry[coord]``, ±y).  ``coord`` 2 reads the
    entry's β·x (:func:`_with_phi_x`), which makes it an entry of φ(P).
    A ``None`` entry (infinity) adds nothing."""
    full = 1 << width
    half = full >> 1
    pos = 0
    while k:
        zeros = (k & -k).bit_length() - 1
        k >>= zeros
        pos += zeros
        d = k & (full - 1)
        k >>= width
        if d > half:  # the digit d - 2^w borrows one from the rest
            k += 1
            entry = table[(full - d) >> 1]
            if entry is not None:
                y = entry[1]
                schedule[pos].append((entry[coord], y and p - y))
        else:
            entry = table[d >> 1]
            if entry is not None:
                schedule[pos].append((entry[coord], entry[1]))
        pos += width


def _with_phi_x(curve, entries: list) -> list:
    """(x, y) entries as (x, y, β·x): beside each point the x-coordinate
    of its image under φ(x, y) = (βx, y), so the k₂ half of a GLV split
    reads φ's multiples instead of multiplying per digit placed (β = 1
    on a curve without an endomorphism).  ``None`` stays ``None``."""
    p = curve.field.modulus
    beta = curve.endomorphism[0] if curve.endomorphism else 1
    return [e and (e[0], e[1], e[0] * beta % p) for e in entries]


def _odd_multiples(field, a: int, points, width: int) -> list[list]:
    """``[P, 3P, …, (2^(width-1) - 1)·P]`` in affine form for every
    (x, y) of ``points`` at once: (2i+1)·P = (2i-1)·P + 2P, one round of
    shared-inversion additions per table column.  ``None`` stands for
    the point at infinity, as an input and as an entry."""
    multiple = [[xy] if xy else [] for xy in points]
    twice = [row * 2 for row in multiple]
    affine_sum_rows(field, a, twice, min_pairs=1)
    tables = [[xy] for xy in points]
    for _ in range((1 << (width - 2)) - 1):
        multiple = [m + t for m, t in zip(multiple, twice)]
        affine_sum_rows(field, a, multiple, min_pairs=1)
        for table, row in zip(tables, multiple):
            table.append(row[0] if row else None)
    return tables


class ResidentBases(list):
    """Points that many MSMs run over — one arity of an SRS: a list of
    :class:`AffinePoint` that also carries, for the kernel, the odd
    multiples B, 3B, …, (2^(w-1) - 1)·B of every base B at
    w = :data:`RESIDENT_WIDTH`.

    Each entry also carries φ's x-coordinate β·x (:func:`_with_phi_x`),
    which the k₂ half of a GLV split reads.  The tables are built on the
    first Straus MSM that reads one (all bases at once, so each of the
    2^(w-2) - 1 rounds shares one inversion across the list; ~0.24 ms
    and ~10 kB a base) and kept for
    the life of the list, which must not change after that.  A list
    too long for a dense MSM over it to take the Straus path never gets
    them, which bounds their memory; neither does a copy or a slice,
    which is a plain list.  They are derived data: pickling sends the
    points only.
    """

    def __init__(self, points=()):
        super().__init__(points)
        self._tables: list[list] | None = None

    def odd_multiples(self) -> list[list]:
        """``tables[i][j]`` = (2j+1)·self[i] as (x, y, β·x), or ``None``
        for infinity; built on first use."""
        if self._tables is None:
            curve = self[0].curve
            self._tables = [_with_phi_x(curve, row) for row in _odd_multiples(
                curve.field, curve.a,
                [None if pt.inf else (pt.x, pt.y) for pt in self],
                RESIDENT_WIDTH,
            )]
        return self._tables

    def __reduce__(self):
        return ResidentBases, (list(self),)


def _straus(curve, split, beta: int, resident) -> tuple[int, int, int]:
    """Interleaved wNAF over per-point tables of odd multiples:
    ``resident[base]`` for a term that has one, built here otherwise.
    k₂ runs on φ(P), whose odd multiples are φ of P's: a resident entry
    carries their x-coordinate β·x, a table built here gets it for its
    4 entries when k₂ needs it (``beta`` is 1 when nothing is split)."""
    field = curve.field
    p = field.modulus
    built = iter(_odd_multiples(
        field, curve.a,
        [(x, y) for x, y, _, _, base in split if base is None], WNAF_WIDTH,
    ))
    top = max(max(k1, k2) for _, _, k1, k2, _ in split).bit_length()
    schedule: list[list[tuple[int, int]]] = [[] for _ in range(top + 1)]
    for _, _, k1, k2, base in split:
        if base is not None:
            table = resident[base]
            _place_wnaf(schedule, k1, table, RESIDENT_WIDTH, 0, p)
            _place_wnaf(schedule, k2, table, RESIDENT_WIDTH, 2, p)
            continue
        table = next(built)
        _place_wnaf(schedule, k1, table, WNAF_WIDTH, 0, p)
        if k2:
            twisted = [e and (e[0] * beta % p, e[1]) for e in table]
            _place_wnaf(schedule, k2, twisted, WNAF_WIDTH, 0, p)
    return _horner(curve, schedule)


def _horner(curve, schedule) -> tuple[int, int, int]:
    """Σ_j 2^j · Σ schedule[j] for rows of affine (x, y) pairs: the
    rows are summed batch-affine, the walk over their sums is Jacobian."""
    p, a = curve.field.modulus, curve.a
    affine_sum_rows(curve.field, a, schedule)
    if (tally := counters.g1_sink) is not None:
        tally.doubling += len(schedule)
        tally.mixed += sum(map(len, schedule))
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
    for x, y, k1, k2, _ in split:
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
    if (tally := counters.g1_sink) is not None:
        tally.mixed += sum(map(len, buckets))
        tally.jacobian += num_windows * (half + 1)
        tally.doubling += num_windows * c

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
    holds Σ_{t ∈ bits of m} 2^(t·columns)·P as affine (x, y, β·x).  Gathering
    bit j of every block into an index m_j gives
    k·P = Σ_j 2^j · rows[0][m_j - 1]: ``columns`` doublings and one
    addition per column, against a table of 2^window_bits - 1
    points that costs one affine addition per entry to build.  (A comb
    is that one row; ``rows`` stays a list of rows for entry counts.)

    On a curve with an endomorphism the comb covers one GLV half and
    serves the other through φ, which halves ``columns``: every entry
    carries φ's x-coordinate β·x as well (:func:`_with_phi_x`).  The
    base must lie in the subgroup of order ``curve.order``, and
    ``window_bits`` must stay below ``columns`` (:meth:`place` gathers a
    column's index with one multiplication that needs the room).
    """

    def __init__(self, point: AffinePoint, window_bits: int = 8):
        if window_bits < 1:
            raise ValueError("window_bits must be >= 1")
        curve = point.curve
        self.curve = curve
        self.point = point
        self.window_bits = window_bits
        # λ splits k into k₁ + k₂·λ; the order leaves k₁ = k, k₂ = 0
        lam = self._lam = (curve.endomorphism or (1, curve.order))[1]
        half_bits = max(lam, curve.order // lam).bit_length()
        columns = self.columns = -(-half_bits // window_bits)
        if window_bits >= columns:
            raise ValueError(
                f"window_bits must be below the {columns} columns it makes")
        # bit j of block t sits at t·columns + j; ``lanes`` keeps bit j
        # of every block, ``spread`` moves block t's to bit
        # (window_bits - 1)·(columns - 1) + t — every product bit lands
        # on its own position, so nothing carries
        self._gather = (
            sum(1 << (t * columns) for t in range(window_bits)),
            sum(1 << (t * (columns - 1)) for t in range(window_bits)),
            (window_bits - 1) * (columns - 1),
        )
        self.rows = [_with_phi_x(curve, self._comb())]

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
        if (tally := counters.g1_sink) is not None:
            tally.doubling += (self.window_bits - 1) * self.columns
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
        k2, k1 = divmod(k % self.curve.order, self._lam)
        comb = self.rows[0]
        lanes, spread, shift = self._gather
        top = (1 << self.window_bits) - 1
        for half, coord in ((k1, 0), (k2, 2)):  # k₂ reads φ's x, β·x
            if not half:
                continue
            for j in range(self.columns):
                # bit j of every block, block t at bit t: the column's index
                m = ((half >> j) & lanes) * spread >> shift & top
                if m and (entry := comb[m - 1]) is not None:
                    schedule[j].append((entry[coord], entry[1]))

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
