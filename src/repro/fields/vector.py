"""The field-vector kernel: batched operations over flat ``[0, p)`` lists.

The functional stack's hot loops (MLE fold/extend, SumCheck round
evaluations, OpenCheck batching, MSM windowing) all reduce to a small set
of *vector* primitives over flat ``[0, p)`` integer arrays.  This module
holds them as one kernel, :data:`KERNEL` (a :class:`FusedBackend`), which
every layer calls directly: whole-column comprehensions with the modulus
and tables bound to locals, and a SumCheck round kernel that runs on a
degree-aware :class:`RoundSchedule` — every sub-sum multiplied out at its
own degree + 1 points and carried to the rest by forward differences,
the factor common to all terms multiplied in once, modular reduction
deferred to the per-point sums, the pairs streamed in fixed tiles.

:class:`ReferenceBackend` is its differential oracle, as ``msm_naive`` is
the MSM kernel's: per-element loops that mirror the original scalar code
path operation for operation.  Both implement :class:`VectorBackend`.
Nothing in ``src`` selects the oracle; the tests run it beside
:data:`KERNEL` (``FastSumCheckProver(kernel=...)`` is the seam) and
require **bit-identical results** and **identical
:class:`~repro.fields.counters.OpCounter` tallies** — the counts model
the abstract dataflow of the paper's Figure 1, not the Python op count —
so the hw-model cross-checks in ``tests/test_hw_validation.py`` hold.
``tests/test_fastpath_differential.py`` locks this down.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from types import MappingProxyType
from typing import Mapping, Sequence

from repro.fields import counters
from repro.fields.prime_field import PrimeField


class VectorBackend:
    """What the kernel and its oracle both implement.

    All methods take and return flat lists of canonical integers in
    ``[0, p)``.  Each call counts into :mod:`repro.fields.counters` in
    closed form; the tallies follow the hardware grouping
    (extension-engine vs product-lane) and must be identical between
    :class:`FusedBackend` and :class:`ReferenceBackend` for identical
    inputs.
    """

    # -- elementwise -------------------------------------------------------
    def add(self, field: PrimeField, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """Elementwise ``(a[i] + b[i]) mod p``."""
        raise NotImplementedError

    def sub(self, field: PrimeField, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """Elementwise ``(a[i] - b[i]) mod p``."""
        raise NotImplementedError

    def mul(self, field: PrimeField, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """Elementwise ``(a[i] * b[i]) mod p``."""
        raise NotImplementedError

    def scale(self, field: PrimeField, a: Sequence[int], c: int) -> list[int]:
        """Elementwise ``(c * a[i]) mod p``, scalar ``c``."""
        raise NotImplementedError

    def axpy(self, field: PrimeField, acc: Sequence[int], c: int,
             x: Sequence[int]) -> list[int]:
        """``acc + c * x`` elementwise — the OpenCheck batching kernel."""
        raise NotImplementedError

    # -- SumCheck primitives ----------------------------------------------
    def fold(self, field: PrimeField, table: Sequence[int], r: int) -> list[int]:
        """MLE Update: ``out[i] = t[2i] + r * (t[2i+1] - t[2i])`` mod p."""
        raise NotImplementedError

    def extend_columns(self, field: PrimeField, table: Sequence[int],
                       degree: int) -> list[list[int]]:
        """Extension Engine over a whole table: column ``x`` holds the
        value of every adjacent pair's line at the point ``X = x``, for
        ``x = 0..degree``.  Column 0 is the even half, column 1 the odd
        half."""
        raise NotImplementedError

    def round_evaluations(self, field: PrimeField, terms, tables: dict,
                          degree: int) -> list[int]:
        """One SumCheck round: s(0..degree) for the given term structure
        over the current (partially folded) raw tables."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# the reference oracle
# ---------------------------------------------------------------------------

class ReferenceBackend(VectorBackend):
    """Per-element loops mirroring the original scalar code paths: the
    differential oracle for :class:`FusedBackend`, which nothing in
    ``src`` selects."""

    def add(self, field, a, b):
        """Oracle loop for :meth:`VectorBackend.add`."""
        fadd = field.add
        out = [fadd(x, y) for x, y in zip(a, b)]
        if (sink := counters.field_sink) is not None:
            sink.count_add(len(out))
        return out

    def sub(self, field, a, b):
        """Oracle loop for :meth:`VectorBackend.sub`."""
        fsub = field.sub
        out = [fsub(x, y) for x, y in zip(a, b)]
        if (sink := counters.field_sink) is not None:
            sink.count_add(len(out))
        return out

    def mul(self, field, a, b):
        """Oracle loop for :meth:`VectorBackend.mul`."""
        fmul = field.mul
        out = [fmul(x, y) for x, y in zip(a, b)]
        if (sink := counters.field_sink) is not None:
            sink.count_mul(len(out))
        return out

    def scale(self, field, a, c):
        """Oracle loop for :meth:`VectorBackend.scale`."""
        fmul = field.mul
        c %= field.modulus
        out = [fmul(x, c) for x in a]
        if (sink := counters.field_sink) is not None:
            sink.count_mul(len(out))
        return out

    def axpy(self, field, acc, c, x):
        """Oracle loop for :meth:`VectorBackend.axpy`."""
        p = field.modulus
        c %= p
        out = [(u + c * v) % p for u, v in zip(acc, x)]
        if (sink := counters.field_sink) is not None:
            sink.count_mul(len(out))
            sink.count_add(len(out))
        return out

    def fold(self, field, table, r):
        """Oracle loop for :meth:`VectorBackend.fold`."""
        p = field.modulus
        r %= p
        out = [0] * (len(table) // 2)
        for i in range(len(out)):
            lo = table[2 * i]
            hi = table[2 * i + 1]
            out[i] = (lo + r * (hi - lo)) % p
        if (sink := counters.field_sink) is not None:
            sink.count_mul(len(out), kind="ee")
            sink.count_add(2 * len(out))
        return out

    def extend_columns(self, field, table, degree):
        """Oracle loop for :meth:`VectorBackend.extend_columns`."""
        p = field.modulus
        half = len(table) // 2
        cols = [[0] * half for _ in range(degree + 1)]
        for j in range(half):
            lo = table[2 * j] % p
            hi = table[2 * j + 1] % p
            delta = (hi - lo) % p
            cols[0][j] = lo
            if degree >= 1:
                cols[1][j] = hi
            cur = hi
            for x in range(2, degree + 1):
                cur = (cur + delta) % p
                cols[x][j] = cur
        if (sink := counters.field_sink) is not None:
            sink.count_add(max(degree - 1, 0) * half)
        return cols

    def round_evaluations(self, field, terms, tables, degree):
        # Deliberately mirrors the original per-pair scalar loop
        # (including its count call pattern) so it can serve as the
        # differential oracle for the fused kernel.
        """Oracle loop for :meth:`VectorBackend.round_evaluations`."""
        sink = counters.field_sink
        p = field.modulus
        names = list(tables)
        half = len(tables[names[0]]) // 2
        evals = [0] * (degree + 1)
        for j in range(half):
            exts = {}
            for name in names:
                t = tables[name]
                lo = t[2 * j] % p
                hi = t[2 * j + 1] % p
                delta = (hi - lo) % p
                ext = [lo, hi]
                cur = hi
                for _ in range(degree - 1):
                    cur = (cur + delta) % p
                    ext.append(cur)
                if sink is not None:
                    sink.count_add(max(degree - 1, 0))
                exts[name] = ext[: degree + 1]
            for term in terms:
                coeff = term.coeff
                for x in range(degree + 1):
                    prod = coeff
                    nmul = 0
                    for name, power in term.factors:
                        e = exts[name][x]
                        for _ in range(power):
                            prod = prod * e % p
                            nmul += 1
                    evals[x] = (evals[x] + prod) % p
                    if sink is not None:
                        sink.count_mul(nmul, kind="pl")
                        sink.count_add(1)
        return evals


# ---------------------------------------------------------------------------
# the fused round kernel's schedule and column helpers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoundSchedule:
    """Which points each part of a term structure is multiplied out at.

    A SumCheck round needs s(0..d), but a sub-sum of degree m is fixed by
    m + 1 of those values and the rest follow by forward differences —
    adds only, the software shape of Fig. 1's extension engines.  The
    schedule is derived from the *factors* of the terms alone (the
    coefficients, e.g. PermCheck's α, are per-proof data):

    * ``common`` — the MLE powers every term carries (``fr`` in the
      ZeroCheck gates), multiplied in once per point instead of once per
      term and point; empty for a single term, which has nothing to share;
    * ``residuals[i]`` — term ``i``'s factors with the common ones removed;
    * ``groups`` — ``(m, term indices)`` by residual degree ``m``,
      ascending; a group is multiplied out at points ``0..min(m, d)``;
    * ``points[(name, power)]`` — how many points that power column is
      needed at, ``mle_points[name]`` — how far the MLE is extended.
    """

    degree: int
    common: tuple[tuple[str, int], ...]
    residuals: tuple[tuple[tuple[str, int], ...], ...]
    groups: tuple[tuple[int, tuple[int, ...]], ...]
    points: Mapping[tuple[str, int], int]
    mle_points: Mapping[str, int]


@lru_cache(maxsize=256)
def round_schedule(
    factors: tuple[tuple[tuple[str, int], ...], ...], degree: int
) -> RoundSchedule:
    """The :class:`RoundSchedule` of a term structure (``term.factors``
    per term) for a round polynomial of ``degree``; cached, bounded."""
    shared: dict[str, int] = {}
    if len(factors) > 1:
        powers = [dict(term) for term in factors]
        for name, _ in factors[0]:
            low = min(term.get(name, 0) for term in powers)
            if low:
                shared[name] = low
    residuals = tuple(
        tuple(
            (name, power - shared.get(name, 0))
            for name, power in term
            if power > shared.get(name, 0)
        )
        for term in factors
    )
    by_degree: dict[int, list[int]] = {}
    for i, residual in enumerate(residuals):
        by_degree.setdefault(sum(pw for _, pw in residual), []).append(i)
    groups = tuple((m, tuple(by_degree[m])) for m in sorted(by_degree))

    common = tuple(shared.items())
    points = dict.fromkeys(common, degree + 1)
    for m, members in groups:
        for i in members:
            for key in residuals[i]:
                points[key] = max(points.get(key, 0), min(m, degree) + 1)
    mle_points: dict[str, int] = {}
    for (name, _), n in points.items():
        mle_points[name] = max(mle_points.get(name, 0), n)
    return RoundSchedule(
        degree, common, residuals, groups,
        MappingProxyType(points), MappingProxyType(mle_points),
    )


def _extend_points(
    table: Sequence[int], start: int, stop: int, npts: int
) -> list[int]:
    """Flat column-major extension of pairs ``start..stop-1``:
    ``flat[x * w + j]`` is pair ``start + j``'s line at ``X = x``, for
    ``x < npts`` and ``w = stop - start``.  Read straight from the table;
    an adder chain over whole columns, left unreduced: from canonical
    input ``|lo + x·δ| < npts·p``, which for every degree the gates reach
    is the same nine 30-bit digits a reduced element takes."""
    lo = table[2 * start:2 * stop:2]
    if npts == 1:
        return lo
    hi = table[2 * start + 1:2 * stop:2]
    flat = lo + hi
    if npts > 2:
        step = [h - l for h, l in zip(hi, lo)]
        cur = hi
        for _ in range(npts - 2):
            cur = [c + s for c, s in zip(cur, step)]
            flat += cur
    return flat


def _power_column(p: int, base: list[int], power: int) -> list[int]:
    """``base ** power`` elementwise (``power >= 2``), reduced: binary
    square-and-multiply from the top bit over whole columns, the multiply
    of a set bit fused into its squaring as one three-lane product."""
    acc = base
    for bit in bin(power)[3:]:
        if bit == "1":
            acc = [a * a * v % p for a, v in zip(acc, base)]
        else:
            acc = [a * a % p for a in acc]
    return acc


def _lane_product(p: int, cols: list, n: int, lanes: int) -> list[int]:
    """Elementwise product of one-lane columns over their first ``n``
    rows, reduced only as often as keeps the result within ``lanes``
    (1 to 3) lanes — a lane being one factor below ~p that has been
    multiplied in without a reduction.  ``cols[1:]`` may be iterators."""
    acc = cols[0] if len(cols[0]) == n else cols[0][:n]
    rest = cols[1:]
    while rest:
        shed = 1 + len(rest) - lanes
        if shed <= 0:
            if len(rest) == 1:
                return [a * u for a, u in zip(acc, rest[0])]
            return [a * u * v for a, u, v in zip(acc, rest[0], rest[1])]
        if shed == 1 or len(rest) == 1:
            acc = [a * u % p for a, u in zip(acc, rest[0])]
            rest = rest[1:]
        else:
            acc = [a * u * v % p for a, u, v in zip(acc, rest[0], rest[1])]
            rest = rest[2:]
    return acc


def extend_by_differences(
    flat: list[int], width: int, have: int, want: int
) -> list[int]:
    """Carry ``width`` polynomials of degree below ``have`` from their
    values at ``0..have-1`` to ``0..want-1``, by forward differences.

    ``flat`` is column-major (``flat[x * width + j]`` is row ``j`` at
    ``X = x``).  Exact integer adds and subtracts only — no multiply, no
    reduction — so rows may be unreduced or negative, and a row that
    equals its polynomial mod p on the way in does so on the way out.
    """
    if want <= have:
        return flat
    diffs = [flat[x * width:(x + 1) * width] for x in range(have)]
    # pass k turns diffs[i] into Δ^k f(i) for i < have - k; what it leaves
    # behind, diffs[have-1-k], is the backward difference ∇^k f(have-1)
    for k in range(1, have):
        for i in range(have - k):
            diffs[i] = [b - a for a, b in zip(diffs[i], diffs[i + 1])]
    back = diffs[::-1]
    out = list(flat)
    for _ in range(want - have):
        # ∇^k f(x+1) = ∇^k f(x) + ∇^(k+1) f(x+1), the top one constant
        for k in range(have - 2, -1, -1):
            back[k] = [a + b for a, b in zip(back[k], back[k + 1])]
        out += back[0]
    return out


#: Pairs the round kernel extends and multiplies out at a time.  A tile's
#: extension and power columns are the kernel's whole working set, so a
#: round holds them for this many pairs whatever 2^μ is, as Fig. 1's PEs
#: hold a few buffers per MLE rather than a table extended to d + 1
#: points.  On the reference host one ``sumcheck_gates_mu11`` pass (gates
#: 20, 22 and sweep-d16 at μ = 11) raises RSS 2.1 / 2.9 / 4.4 / 7.2 MB
#: above set-up with tiles of 64 / 128 / 256 / 512 pairs, 11.7 MB untiled;
#: in best-of-20 in-process A/B the Jellyfish and sweep proofs take the
#: same time at every size from 32 pairs to untiled, and vanilla, with the
#: fewest points per pair to spread a tile's fixed cost over, is 4% slower
#: at 128 pairs and 11% at 32.  So 128 is the knee.
ROUND_TILE_PAIRS = 128


def _round_tile(
    p: int, plan: RoundSchedule, coeffs: list[int], tables: dict,
    start: int, stop: int,
) -> list[int]:
    """Pairs ``start..stop-1``'s share of s(0..d), reduced: ``plan`` run
    over one tile, with ``coeffs[i]`` term ``i``'s coefficient mod p."""
    degree = plan.degree
    npts = degree + 1
    w = stop - start
    flat = {name: _extend_points(tables[name], start, stop, n)
            for name, n in plan.mle_points.items()}
    columns: dict[tuple[str, int], list[int]] = {}

    def column(key: tuple[str, int]) -> list[int]:
        # power columns are raised once per (name, power), over the
        # points that power is needed at, and shared between terms
        name, power = key
        if power == 1:
            return flat[name]
        col = columns.get(key)
        if col is None:
            base = flat[name][:plan.points[key] * w]
            col = columns[key] = _power_column(p, base, power)
        return col

    # With a common factor the running sum is a column per point
    # (`w` rows, two lanes wide at most, so that times the factor it
    # stays within three); without one every group is summed over the
    # tile first and the running sum is one scalar per point.
    width = w if plan.common else 1
    running: list[int] = []
    have = 0
    for m, members in plan.groups:
        want = min(m, degree) + 1
        n = want * w
        part = None
        for i in members:
            coeff = coeffs[i]
            cols = [column(key) for key in plan.residuals[i]]
            sign = 1
            if plan.common:
                if coeff > p >> 1:
                    # centred, so that -1 is a subtraction and not a lane
                    coeff, sign = p - coeff, -1
                if not cols:
                    piece = [coeff] * n
                else:
                    if coeff != 1:
                        cols.append(repeat(coeff))
                    piece = _lane_product(p, cols, n, 2)
            elif not cols:
                piece = [coeff * w]
            else:
                prods = _lane_product(p, cols, n, 3)
                piece = [
                    coeff * (sum(prods[x * w:(x + 1) * w]) % p)
                    for x in range(want)
                ]
            if part is None:
                part = piece if sign > 0 else [-t for t in piece]
            elif sign > 0:
                part = [a + t for a, t in zip(part, piece)]
            else:
                part = [a - t for a, t in zip(part, piece)]
        if have:
            carried = extend_by_differences(running, width, have, want)
            running = [a + t for a, t in zip(carried, part)]
        else:
            running = part
        have = want
    running = extend_by_differences(running, width, have, npts)

    if plan.common:
        factor = _lane_product(
            p, [column(key) for key in plan.common], npts * w, 1
        )
        prods = [r * c for r, c in zip(running, factor)]
        return [sum(prods[x * w:(x + 1) * w]) % p for x in range(npts)]
    return [v % p for v in running]


# ---------------------------------------------------------------------------
# the kernel
# ---------------------------------------------------------------------------

class FusedBackend(VectorBackend):
    """Hoisted, fused, comprehension-driven kernels.

    Techniques (all semantics-preserving):

    * the modulus and every table are bound to locals once per call;
    * extension columns use the precomputed coefficient identity
      ``line(x) = lo + x * (hi - lo)`` instead of a per-point adder chain;
    * the round kernel follows a :class:`RoundSchedule`: extension
      columns are unreduced adder chains, only as long as some product
      needs them; each group of terms is multiplied out at its own
      degree + 1 points and carried further by forward differences; a
      factor common to every term is multiplied in once per point;
      products are reduced only where they would pass three lanes, sums
      once per point;
    * the round kernel streams the pairs in tiles of
      :data:`ROUND_TILE_PAIRS`, so its columns never span the table;
    * tallies are computed in closed form and applied in bulk.
    """

    def add(self, field, a, b):
        """Fused-loop :meth:`VectorBackend.add`."""
        p = field.modulus
        out = [(x + y) % p for x, y in zip(a, b)]
        if (sink := counters.field_sink) is not None:
            sink.count_add(len(out))
        return out

    def sub(self, field, a, b):
        """Fused-loop :meth:`VectorBackend.sub`."""
        p = field.modulus
        out = [(x - y) % p for x, y in zip(a, b)]
        if (sink := counters.field_sink) is not None:
            sink.count_add(len(out))
        return out

    def mul(self, field, a, b):
        """Fused-loop :meth:`VectorBackend.mul`."""
        p = field.modulus
        out = [x * y % p for x, y in zip(a, b)]
        if (sink := counters.field_sink) is not None:
            sink.count_mul(len(out))
        return out

    def scale(self, field, a, c):
        """Fused-loop :meth:`VectorBackend.scale`."""
        p = field.modulus
        c %= p
        out = [x * c % p for x in a]
        if (sink := counters.field_sink) is not None:
            sink.count_mul(len(out))
        return out

    def axpy(self, field, acc, c, x):
        """Fused-loop :meth:`VectorBackend.axpy`."""
        p = field.modulus
        c %= p
        out = [(u + c * v) % p for u, v in zip(acc, x)]
        if (sink := counters.field_sink) is not None:
            sink.count_mul(len(out))
            sink.count_add(len(out))
        return out

    def fold(self, field, table, r):
        """Fused-loop :meth:`VectorBackend.fold`."""
        p = field.modulus
        r %= p
        lo = table[::2]
        hi = table[1::2]
        out = [(l + r * (h - l)) % p for l, h in zip(lo, hi)]
        if (sink := counters.field_sink) is not None:
            sink.count_mul(len(out), kind="ee")
            sink.count_add(2 * len(out))
        return out

    def extend_columns(self, field, table, degree):
        """Fused-loop :meth:`VectorBackend.extend_columns`."""
        p = field.modulus
        # normalize the pair slices so non-canonical input stays
        # bit-identical to the reference oracle; an odd table's unpaired
        # trailing element is dropped, exactly like the reference loop
        half = len(table) // 2
        lo = [v % p for v in table[:2 * half:2]]
        hi = [v % p for v in table[1:2 * half:2]]
        cols = [lo, hi]
        # precomputed extension coefficient: line(x) = lo + x * (hi - lo)
        for x in range(2, degree + 1):
            cols.append([(l + x * (h - l)) % p for l, h in zip(lo, hi)])
        if (sink := counters.field_sink) is not None:
            sink.count_add(max(degree - 1, 0) * len(lo))
        return cols[: degree + 1]

    def round_evaluations(self, field, terms, tables, degree):
        """Fused-loop :meth:`VectorBackend.round_evaluations`, on the
        degree-aware :class:`RoundSchedule` of the term structure, streamed
        over tiles of :data:`ROUND_TILE_PAIRS` pairs.

        The schedule is looked up once; each tile is extended, multiplied
        out and carried by forward differences on its own, and its d + 1
        values are added into the round's sums mod p.  Every step is
        linear in the pairs, so the sums are the whole table's; only one
        tile's columns are live at a time."""
        p = field.modulus
        npts = degree + 1
        half = len(next(iter(tables.values()))) // 2
        if (sink := counters.field_sink) is not None:
            # closed-form tallies matching the reference loop exactly:
            # they model Fig. 1's dataflow, not this schedule's op count
            sink.count_add(max(degree - 1, 0) * half * len(tables))
            sum_deg = sum(term.degree for term in terms)
            sink.count_mul(half * npts * sum_deg, kind="pl")
            sink.count_add(half * npts * len(terms))
        if not terms:
            return [0] * npts
        plan = round_schedule(tuple(term.factors for term in terms), degree)
        coeffs = [term.coeff % p for term in terms]
        evals = [0] * npts
        for start in range(0, half, ROUND_TILE_PAIRS):
            stop = min(start + ROUND_TILE_PAIRS, half)
            tile = _round_tile(p, plan, coeffs, tables, start, stop)
            evals = [e + t for e, t in zip(evals, tile)]
        return [e % p for e in evals]


#: the one field-vector kernel every layer calls
KERNEL = FusedBackend()


def require_fused(backend: str | None) -> None:
    """Accept the retired ``backend=`` spellings (``None`` or ``"fused"``)
    that callers outside ``src`` still pass; anything else is an error."""
    if backend not in (None, "fused"):
        raise ValueError(
            f"unknown vector backend {backend!r}; the one kernel is 'fused'"
        )


def get_backend(backend: str | None = None) -> FusedBackend:
    """:data:`KERNEL`, under its retired by-name spelling."""
    require_fused(backend)
    return KERNEL

# ---------------------------------------------------------------------------
# batched scalar windowing (MSM support)
# ---------------------------------------------------------------------------

def window_decompose(values: Sequence[int], window_bits: int,
                     num_windows: int) -> list[list[int]]:
    """Decompose every scalar into its ``window_bits``-wide digits.

    Returns ``digits[w][i]`` = window ``w`` (LSB first) of ``values[i]``.
    Each scalar is shifted through once, instead of re-shifting the whole
    vector for every window as the scalar Pippenger loop does — the
    batched analogue of zkPHIRE's MSM scalar pre-slicing.
    """
    if window_bits < 1:
        raise ValueError("window_bits must be >= 1")
    mask = (1 << window_bits) - 1
    digits = [[0] * len(values) for _ in range(num_windows)]
    for i, k in enumerate(values):
        w = 0
        while k and w < num_windows:
            d = k & mask
            if d:
                digits[w][i] = d
            k >>= window_bits
            w += 1
    return digits
