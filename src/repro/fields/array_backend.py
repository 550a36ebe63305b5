"""numpy limb-plane field vectors: the ``array`` backend.

The ``fused`` backend hoists Python bytecode out of the hot loops but
still pays CPython's per-element bigint dispatch.  This module stores a
vector of field elements *transposed* — as a ``(limbs, n)`` ``uint64``
array of 30-bit limb planes — so one numpy ufunc touches limb ``i`` of
every element at once:

* **limb layout** — element ``j`` is ``sum(planes[i][j] << 30*i)``.
  30-bit limbs leave 4 headroom bits per 64-bit word *after* a full
  schoolbook product column (≤ 16 products of two 30-bit limbs plus a
  carry stay below 2^64), so convolutions run carry-free and normalize
  once at the end.  The limb count ``L`` is padded until ``4p < 2^(30L)``
  so conditional-subtract results always fit without an overflow plane.
* **vectorized Montgomery REDC** — scalar multiplications (``fold``,
  ``scale``, ``axpy``) pre-scale the Python-int scalar by ``R = 2^(30L)``
  once, then run a single word-by-word REDC over the limb planes:
  ``REDC(a · (c·R mod p)) = a·c mod p`` with zero per-element domain
  conversions.  The REDC inner loop is carry-free by the same headroom
  argument (column magnitudes stay < 2^63.3 across all ``L`` iterations).
* **Barrett where it wins** — elementwise vector×vector products have no
  precomputable scalar, so REDC would need a second pass to divide the
  stray ``R^-1`` back out.  There the one-pass Barrett reduction
  (``q = ((T >> 30(k-1)) · μ) >> 30(k+1)``, two conditional subtracts)
  reduces the exact double-width product directly.
* **deferred reduction in the round kernel** — SumCheck round products
  are accumulated as *exact* integer convolutions (plane counts grow per
  factor lane), summed per evaluation point with one ``ndarray.sum``,
  and reduced mod p once per (term, point) — mirroring the fused
  backend's ``< p**lanes`` partial-product strategy.

Kernel outputs are wrapped in :class:`LimbVector`, a lazy list-like
view, so chained calls (SumCheck's fold→extend→fold round structure)
stay in limb-plane form and only materialize Python ints at the edges
(final evaluations, transcript absorption, differential comparisons).

Everything here is bit-identical to the ``reference`` backend and
reports the same closed-form :class:`~repro.fields.counters.OpCounter`
tallies; ``tests/test_fastpath_differential.py`` and
``tests/test_vector_fuzz.py`` enforce both.  The module imports only
when numpy is present — :mod:`repro.fields.vector` imports it the first
time a caller asks for the backend (or lists the backends), never
before, and reports :class:`~repro.fields.vector.BackendUnavailable`
if that fails.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence as _SequenceABC
from typing import Sequence

import numpy as np

from repro.fields.prime_field import PrimeField
from repro.fields.vector import VectorBackend

LIMB_BITS = 30
LIMB_BASE = 1 << LIMB_BITS
LIMB_MASK = LIMB_BASE - 1

#: max products a single convolution column may accumulate in a uint64
_MAX_CONV_LANES = 16

_U64_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
_SHIFT = np.uint64(LIMB_BITS)
_MASK = np.uint64(LIMB_MASK)


class LimbPlan:
    """Per-field limb layout and reduction constants (cached per modulus).

    ``limbs`` (L) is the plane count, padded so ``4p < 2^(30L)`` — the
    headroom that lets conditional subtracts and REDC outputs fit in L
    planes.  Also precomputes the Montgomery constants (``R = 2^(30L)``,
    ``n' = -p^-1 mod 2^30``) and the Barrett constants over the field's
    *significant* digit count ``k`` (``mu = floor(2^(60k) / p)``).
    """

    __slots__ = (
        "p", "limbs", "words", "r", "r2", "n_prime", "k_sig", "mu_limbs",
        "p_limbs", "p_col", "pc_col", "_mont_scalar_cache",
    )

    def __init__(self, field: PrimeField):
        p = field.modulus
        if p < 3 or p % 2 == 0:
            raise ValueError(
                f"array backend needs an odd modulus >= 3, got {p}"
            )
        self.p = p
        limbs = max(2, -(-(p.bit_length() + 2) // LIMB_BITS))
        while 4 * p >= 1 << (LIMB_BITS * limbs):
            limbs += 1
        k_sig = -(-p.bit_length() // LIMB_BITS)
        if max(limbs, k_sig + 1) > _MAX_CONV_LANES:
            raise ValueError(
                f"modulus too wide for carry-free convolution "
                f"({limbs} limbs > {_MAX_CONV_LANES})"
            )
        self.limbs = limbs
        #: 64-bit words per element in the byte-conversion fast path
        self.words = -(-(LIMB_BITS * limbs) // 64)
        self.r = 1 << (LIMB_BITS * limbs)
        self.r2 = self.r * self.r % p
        self.n_prime = np.uint64((-pow(p, -1, LIMB_BASE)) % LIMB_BASE)
        # Barrett runs over the significant digit count (headroom planes
        # would break the q1/q3 digit-shift bounds)
        self.k_sig = k_sig
        mu = (1 << (2 * LIMB_BITS * k_sig)) // p
        self.mu_limbs = _int_to_limbs(mu)
        self.p_limbs = _int_to_limbs(p, limbs)
        self.p_col = np.array(self.p_limbs, dtype=np.uint64)[:, None]
        # complement 2^(30L) - p: adding it sets the carry-out bit iff
        # the addend was >= p (the branch-free conditional subtract)
        self.pc_col = np.array(
            _int_to_limbs(self.r - p, limbs), dtype=np.uint64
        )[:, None]
        self._mont_scalar_cache: dict[int, list[int]] = {}

    def mont_scalar(self, c: int) -> list[int]:
        """Limbs of ``c·R mod p`` — the pre-scaled REDC multiplicand."""
        c %= self.p
        limbs = self._mont_scalar_cache.get(c)
        if limbs is None:
            limbs = _int_to_limbs(c * self.r % self.p, self.limbs)
            if len(self._mont_scalar_cache) > 64:
                self._mont_scalar_cache.clear()
            self._mont_scalar_cache[c] = limbs
        return limbs


_PLAN_CACHE: dict[int, LimbPlan] = {}


def get_plan(field: PrimeField) -> LimbPlan:
    """The (cached) :class:`LimbPlan` for a field's modulus."""
    plan = _PLAN_CACHE.get(field.modulus)
    if plan is None:
        plan = LimbPlan(field)
        _PLAN_CACHE[field.modulus] = plan
    return plan


def _int_to_limbs(value: int, width: int | None = None) -> list[int]:
    """Little-endian 30-bit digits of a nonnegative int (padded to width)."""
    out = []
    while value:
        out.append(value & LIMB_MASK)
        value >>= LIMB_BITS
    if width is not None:
        out.extend([0] * (width - len(out)))
    return out


def to_planes(plan: LimbPlan, values: Sequence[int]) -> np.ndarray:
    """Canonicalize a value sequence into ``(L, n)`` uint64 limb planes.

    :class:`LimbVector` inputs on the same plan pass through without any
    per-element work — the cross-round fast path.  Everything else is
    reduced mod p and split via one bulk ``to_bytes``/``frombuffer``
    round-trip (no per-limb Python loop over elements).
    """
    if isinstance(values, LimbVector) and values.plan is plan:
        return values.planes
    p = plan.p
    vals = [v % p for v in values]
    n = len(vals)
    if n == 0:
        return np.zeros((plan.limbs, 0), dtype=np.uint64)
    step = plan.words * 8
    buf = b"".join([v.to_bytes(step, "little") for v in vals])
    words = np.frombuffer(buf, dtype=np.uint64).reshape(n, plan.words).T
    planes = np.empty((plan.limbs, n), dtype=np.uint64)
    for i in range(plan.limbs):
        word, off = divmod(LIMB_BITS * i, 64)
        x = words[word] >> np.uint64(off)
        if off > 64 - LIMB_BITS and word + 1 < plan.words:
            x = x | (words[word + 1] << np.uint64(64 - off))
        planes[i] = x & _MASK
    return planes


def from_planes(plan: LimbPlan, planes: np.ndarray) -> list[int]:
    """Materialize ``(L, n)`` canonical limb planes back into Python ints."""
    n = planes.shape[1]
    if n == 0:
        return []
    words = np.zeros((plan.words, n), dtype=np.uint64)
    for i in range(plan.limbs):
        word, off = divmod(LIMB_BITS * i, 64)
        words[word] |= planes[i] << np.uint64(off)
        if off > 64 - LIMB_BITS and word + 1 < plan.words:
            words[word + 1] |= planes[i] >> np.uint64(64 - off)
    buf = words.T.tobytes()
    step = plan.words * 8
    return [
        int.from_bytes(buf[j * step:(j + 1) * step], "little")
        for j in range(n)
    ]


def _normalize(t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Propagate carries so every plane is < 2^30 (values < 2^63.3 ok).

    All work happens through preallocated ``out=`` ufunc buffers (three
    ufunc dispatches per plane, zero allocations in the loop); ``out``
    may alias ``t`` for in-place normalization.
    """
    rows, n = t.shape
    if out is None:
        out = np.empty_like(t)
    carry = np.zeros(n, dtype=np.uint64)
    s = np.empty(n, dtype=np.uint64)
    for i in range(rows):
        np.add(t[i], carry, out=s)
        np.bitwise_and(s, _MASK, out=out[i])
        np.right_shift(s, _SHIFT, out=carry)
    return out


def _cond_sub_p(plan: LimbPlan, v: np.ndarray) -> np.ndarray:
    """Branch-free ``v - p if v >= p else v`` for values < p + 2^(30L).

    Adds the complement ``2^(30L) - p``; the carry out of the top plane
    is exactly the ``v >= p`` predicate, selecting between the wrapped
    sum (``v - p``) and the original.
    """
    u = v + plan.pc_col
    n = v.shape[1]
    carry = np.zeros(n, dtype=np.uint64)
    s = np.empty(n, dtype=np.uint64)
    for i in range(plan.limbs):
        np.add(u[i], carry, out=s)
        np.bitwise_and(s, _MASK, out=u[i])
        np.right_shift(s, _SHIFT, out=carry)
    return np.where(carry.astype(bool)[None, :], u, v)


def add_mod(plan: LimbPlan, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``(a + b) mod p`` over canonical limb planes."""
    t = a + b
    return _cond_sub_p(plan, _normalize(t, out=t))


def sub_mod(plan: LimbPlan, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``(a - b) mod p`` over canonical limb planes.

    The borrow chain rides uint64 wraparound: a negative digit wraps to
    the top of the range, so bit 63 *is* the borrow, and ``& MASK``
    still recovers the digit because 2^64 ≡ 0 (mod 2^30).
    """
    limbs, n = a.shape
    out = np.empty_like(a)
    borrow = np.zeros(n, dtype=np.uint64)
    d = np.empty(n, dtype=np.uint64)
    b63 = np.uint64(63)
    for i in range(limbs):
        np.subtract(a[i], b[i], out=d)
        np.subtract(d, borrow, out=d)
        np.bitwise_and(d, _MASK, out=out[i])
        np.right_shift(d, b63, out=borrow)
    neg = borrow.astype(bool)
    if not neg.any():
        return out
    t = out + plan.p_col
    fixed = _normalize(t, out=t)
    return np.where(neg[None, :], fixed, out)


def _conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact carry-free schoolbook product of limb planes.

    ``b`` must be normalized with at most ``_MAX_CONV_LANES`` planes (the
    per-column accumulation bound); ``a`` may be arbitrarily tall, which
    is what lets the round kernel chain products without reducing.
    Returns *normalized* planes of the full product.
    """
    la, n = a.shape
    lb = b.shape[0]
    t = np.zeros((la + lb, n), dtype=np.uint64)
    scratch = np.empty((la, n), dtype=np.uint64)
    for i in range(lb):
        bi = b[i]
        if bi.any():
            np.multiply(a, bi, out=scratch)
            tt = t[i:i + la]
            np.add(tt, scratch, out=tt)
    return _normalize(t, out=t)


def _redc(plan: LimbPlan, t: np.ndarray) -> np.ndarray:
    """Word-by-word Montgomery reduction: ``T -> T·R^-1 mod p``.

    ``t`` holds normalized planes of ``T < p·R`` (at least ``2L + 1`` of
    them; extra zero planes are fine) and is consumed in place.  The L
    inner iterations run carry-free: plane ``k + j`` accumulates at most
    L products of 30-bit limbs plus one deferred carry, all < 2^63.3.
    """
    limbs = plan.limbs
    rows = 2 * limbs + 1
    n = t.shape[1]
    if t.shape[0] < rows:
        t = np.vstack([t, np.zeros((rows - t.shape[0], n), dtype=np.uint64)])
    p_col = plan.p_col
    n_prime = plan.n_prime
    m = np.empty(n, dtype=np.uint64)
    carry = np.empty(n, dtype=np.uint64)
    scratch = np.empty((limbs, n), dtype=np.uint64)
    for k in range(limbs):
        np.multiply(t[k], n_prime, out=m)
        np.bitwise_and(m, _MASK, out=m)
        np.multiply(p_col, m, out=scratch)
        tt = t[k:k + limbs]
        np.add(tt, scratch, out=tt)
        np.right_shift(t[k], _SHIFT, out=carry)
        np.add(t[k + 1], carry, out=t[k + 1])
    res = t[limbs:rows]
    return _cond_sub_p(plan, _normalize(res, out=res)[:limbs])


def mont_mul_scalar(
    plan: LimbPlan, a: np.ndarray, scalar_limbs: Sequence[int]
) -> np.ndarray:
    """``a · c mod p`` where ``scalar_limbs`` encode ``c·R mod p``.

    One convolution + one REDC; the pre-scaling by R makes the REDC's
    stray ``R^-1`` cancel exactly, so no domain conversions happen.
    """
    limbs, n = a.shape
    t = np.zeros((2 * limbs + 1, n), dtype=np.uint64)
    scratch = np.empty((limbs, n), dtype=np.uint64)
    for i, si in enumerate(scalar_limbs):
        if si:
            np.multiply(a, np.uint64(si), out=scratch)
            tt = t[i:i + limbs]
            np.add(tt, scratch, out=tt)
    return _redc(plan, _normalize(t, out=t))


def barrett_reduce(plan: LimbPlan, t: np.ndarray) -> np.ndarray:
    """One-pass Barrett reduction of an exact product ``T < p^2``.

    Standard digit-level Barrett over base 2^30 with ``k`` = the field's
    significant digit count: ``q = ((T >> 30(k-1)) · mu) >> 30(k+1)``
    under-estimates ``T // p`` by at most 2, so two conditional
    subtracts finish the job.  ``t`` must be normalized planes.
    """
    k = plan.k_sig
    n = t.shape[1]
    q1 = t[k - 1:]
    mu = np.array(plan.mu_limbs, dtype=np.uint64)[:, None]
    q2 = _conv(q1, mu) if q1.shape[0] else np.zeros((1, n), dtype=np.uint64)
    q3 = q2[k + 1:]
    low = k + 1
    r1 = t[:low]
    r2 = _conv(q3, plan.p_col)[:low] if q3.shape[0] else np.zeros(
        (low, n), dtype=np.uint64
    )
    # r1 - r2 is in [0, 3p): borrow-subtract in `low` planes, then trim
    # or pad to L and conditionally subtract p twice
    diff = np.empty((low, n), dtype=np.uint64)
    borrow = np.zeros(n, dtype=np.uint64)
    base = np.uint64(LIMB_BASE)
    for i in range(low):
        d = r1[i] + base - (r2[i] if i < r2.shape[0] else 0) - borrow
        diff[i] = d & _MASK
        borrow = np.uint64(1) - (d >> _SHIFT)
    limbs = plan.limbs
    if low < limbs:
        diff = np.vstack([diff, np.zeros((limbs - low, n), dtype=np.uint64)])
    v = diff[:limbs]
    # the remainder estimate is < 3p, so two rounds of the subtract
    v = _cond_sub_p(plan, v)
    return _cond_sub_p(plan, v)


def mul_mod(plan: LimbPlan, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``a · b mod p`` — exact convolution + Barrett."""
    return barrett_reduce(plan, _conv(a, b))


class LimbVector(_SequenceABC):
    """A lazy list-like view over ``(L, n)`` limb planes.

    Backend kernels return these instead of materialized ``list[int]``
    so chained calls (fold→fold across SumCheck rounds) skip both
    conversions.  Iteration, slicing, indexing, and ``==`` behave exactly
    like the equivalent list of canonical ints; materialization happens
    once and is cached.
    """

    __slots__ = ("plan", "planes", "_materialized")

    def __init__(self, plan: LimbPlan, planes: np.ndarray):
        self.plan = plan
        self.planes = planes
        self._materialized: list[int] | None = None

    def to_list(self) -> list[int]:
        """The canonical ``list[int]`` this vector represents (cached)."""
        if self._materialized is None:
            self._materialized = from_planes(self.plan, self.planes)
        return self._materialized

    def __len__(self) -> int:
        return self.planes.shape[1]

    def __iter__(self):
        return iter(self.to_list())

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return self.to_list()[idx]
        j = operator.index(idx)
        if self._materialized is not None:
            return self._materialized[j]
        n = self.planes.shape[1]
        if j < 0:
            j += n
        if not 0 <= j < n:
            raise IndexError("LimbVector index out of range")
        value = 0
        col = self.planes[:, j]
        for i in range(self.planes.shape[0] - 1, -1, -1):
            value = (value << LIMB_BITS) | int(col[i])
        return value

    def __eq__(self, other):
        if isinstance(other, LimbVector):
            if self.plan is other.plan:
                return np.array_equal(self.planes, other.planes)
            return self.to_list() == other.to_list()
        if isinstance(other, (list, tuple)):
            return self.to_list() == list(other)
        return NotImplemented

    def __repr__(self):
        return f"LimbVector(n={len(self)}, limbs={self.plan.limbs})"


class ArrayBackend(VectorBackend):
    """The numpy limb-plane fast path (see the module docstring).

    Counter tallies are computed in closed form, matching the reference
    backend's loop tallies exactly — the differential suite pins this.
    """

    name = "array"

    def add(self, field, a, b, counter=None):
        """Limb-plane :meth:`VectorBackend.add`."""
        plan = get_plan(field)
        out = LimbVector(
            plan, add_mod(plan, to_planes(plan, a), to_planes(plan, b))
        )
        if counter is not None:
            counter.count_add(len(out))
        return out

    def sub(self, field, a, b, counter=None):
        """Limb-plane :meth:`VectorBackend.sub`."""
        plan = get_plan(field)
        out = LimbVector(
            plan, sub_mod(plan, to_planes(plan, a), to_planes(plan, b))
        )
        if counter is not None:
            counter.count_add(len(out))
        return out

    def mul(self, field, a, b, counter=None):
        """Limb-plane :meth:`VectorBackend.mul`."""
        plan = get_plan(field)
        out = LimbVector(
            plan, mul_mod(plan, to_planes(plan, a), to_planes(plan, b))
        )
        if counter is not None:
            counter.count_mul(len(out))
        return out

    def scale(self, field, a, c, counter=None):
        """Limb-plane :meth:`VectorBackend.scale`."""
        plan = get_plan(field)
        out = LimbVector(
            plan,
            mont_mul_scalar(plan, to_planes(plan, a), plan.mont_scalar(c)),
        )
        if counter is not None:
            counter.count_mul(len(out))
        return out

    def axpy(self, field, acc, c, x, counter=None):
        """Limb-plane :meth:`VectorBackend.axpy`."""
        plan = get_plan(field)
        prod = mont_mul_scalar(plan, to_planes(plan, x), plan.mont_scalar(c))
        out = LimbVector(plan, add_mod(plan, to_planes(plan, acc), prod))
        if counter is not None:
            counter.count_mul(len(out))
            counter.count_add(len(out))
        return out

    def fold(self, field, table, r, counter=None):
        """Limb-plane :meth:`VectorBackend.fold`."""
        plan = get_plan(field)
        planes = to_planes(plan, table)
        half = planes.shape[1] // 2
        lo = np.ascontiguousarray(planes[:, 0:2 * half:2])
        hi = np.ascontiguousarray(planes[:, 1:2 * half:2])
        delta = sub_mod(plan, hi, lo)
        prod = mont_mul_scalar(plan, delta, plan.mont_scalar(r))
        out = LimbVector(plan, add_mod(plan, lo, prod))
        if counter is not None:
            counter.count_mul(half, kind="ee")
            counter.count_add(2 * half)
        return out

    def fold_tables(self, field, tables, r, counter=None):
        """Batched fold: all tables in one kernel pass."""
        plan = get_plan(field)
        names = list(tables)
        planes = [to_planes(plan, tables[n]) for n in names]
        lens = {pl.shape[1] for pl in planes}
        if len(names) < 2 or len(lens) != 1 or next(iter(lens)) % 2:
            return super().fold_tables(field, tables, r, counter)
        # all tables share one even length: concatenate along the element
        # axis and run the butterfly once (pair parity survives the
        # concatenation because every segment has even length)
        half = planes[0].shape[1] // 2
        big = np.concatenate(planes, axis=1)
        lo = np.ascontiguousarray(big[:, 0::2])
        hi = np.ascontiguousarray(big[:, 1::2])
        delta = sub_mod(plan, hi, lo)
        prod = mont_mul_scalar(plan, delta, plan.mont_scalar(r))
        res = add_mod(plan, lo, prod)
        out = {}
        for t, name in enumerate(names):
            seg = np.ascontiguousarray(res[:, t * half:(t + 1) * half])
            out[name] = LimbVector(plan, seg)
            if counter is not None:
                counter.count_mul(half, kind="ee")
                counter.count_add(2 * half)
        return out

    def wrap_table(self, field, table):
        """Convert to a reusable :class:`LimbVector` once."""
        plan = get_plan(field)
        if isinstance(table, LimbVector) and table.plan is plan:
            return table
        return LimbVector(plan, to_planes(plan, table))

    def extend_columns(self, field, table, degree, counter=None):
        """Limb-plane :meth:`VectorBackend.extend_columns`."""
        plan = get_plan(field)
        cols = self._extend_planes(plan, to_planes(plan, table), degree)
        if counter is not None:
            counter.count_add(max(degree - 1, 0) * cols[0].shape[1])
        return [LimbVector(plan, c) for c in cols]

    @staticmethod
    def _extend_planes(
        plan: LimbPlan, planes: np.ndarray, degree: int
    ) -> list[np.ndarray]:
        """Extension columns 0..degree as limb planes (adder chain)."""
        half = planes.shape[1] // 2
        lo = np.ascontiguousarray(planes[:, 0:2 * half:2])
        hi = np.ascontiguousarray(planes[:, 1:2 * half:2])
        cols = [lo]
        if degree >= 1:
            cols.append(hi)
        if degree >= 2:
            delta = sub_mod(plan, hi, lo)
            cur = hi
            for _ in range(degree - 1):
                cur = add_mod(plan, cur, delta)
                cols.append(cur)
        return cols

    def round_evaluations(self, field, terms, tables, degree, counter=None):
        """Limb-plane :meth:`VectorBackend.round_evaluations`."""
        plan = get_plan(field)
        p = field.modulus
        limbs = plan.limbs
        npts = degree + 1
        names = list(tables)
        half = len(tables[names[0]]) // 2

        # flat point-major extension planes per MLE: block x of the
        # column axis holds every pair's line at X = x (the layout the
        # fused kernel's extension columns have).  When every table has
        # the same even length — always true inside the prover — the
        # adder chain runs once over all MLEs concatenated, then splits.
        flat: dict[str, np.ndarray] = {}
        plane_list = [to_planes(plan, tables[name]) for name in names]
        if len(names) > 1 and all(
            pl.shape[1] == 2 * half for pl in plane_list
        ):
            cols = self._extend_planes(
                plan, np.concatenate(plane_list, axis=1), degree
            )
            for t, name in enumerate(names):
                arr = np.empty((limbs, npts * half), dtype=np.uint64)
                seg = slice(t * half, (t + 1) * half)
                for x, col in enumerate(cols):
                    arr[:, x * half:(x + 1) * half] = col[:, seg]
                flat[name] = arr
        else:
            for name, pl in zip(names, plane_list):
                cols = self._extend_planes(plan, pl, degree)
                arr = np.empty((limbs, npts * half), dtype=np.uint64)
                for x, col in enumerate(cols):
                    arr[:, x * half:(x + 1) * half] = col
                flat[name] = arr

        pow_cache: dict[tuple[str, int], np.ndarray] = {}

        def factor_col(name: str, power: int) -> np.ndarray:
            if power == 1:
                return flat[name]
            col = pow_cache.get((name, power))
            if col is None:
                base = flat[name]
                result = None
                e = power
                while e:
                    if e & 1:
                        result = base if result is None else mul_mod(
                            plan, result, base
                        )
                    e >>= 1
                    if e:
                        base = mul_mod(plan, base, base)
                col = result
                pow_cache[(name, power)] = col
            return col

        evals = [0] * npts
        for term in terms:
            coeff = term.coeff % p
            factors = term.factors
            if not factors:
                contrib = coeff * half % p
                for x in range(npts):
                    evals[x] = (evals[x] + contrib) % p
                continue
            # exact deferred product: chained convolutions grow the plane
            # count by L per factor lane and never reduce mod p
            acc = factor_col(*factors[0])
            for name, power in factors[1:]:
                acc = _conv(acc, factor_col(name, power))
            # one vectorized sum per (plane, point), then a single scalar
            # reconstruction + reduction per (term, point)
            sums = acc.reshape(acc.shape[0], npts, half).sum(axis=2)
            for x in range(npts):
                s = 0
                col = sums[:, x]
                for i in range(sums.shape[0] - 1, -1, -1):
                    s = (s << LIMB_BITS) + int(col[i])
                evals[x] = (evals[x] + coeff * s) % p

        if counter is not None:
            counter.count_add(max(degree - 1, 0) * half * len(names))
            sum_deg = sum(term.degree for term in terms)
            counter.count_mul(half * npts * sum_deg, kind="pl")
            counter.count_add(half * npts * len(terms))
        return evals
