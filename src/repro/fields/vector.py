"""Batched field-vector operations with a pluggable backend registry.

The functional stack's hot loops (MLE fold/extend, SumCheck round
evaluations, OpenCheck batching, MSM windowing) all reduce to a small set
of *vector* primitives over flat ``[0, p)`` integer arrays.  This module
centralises those primitives behind a :class:`VectorBackend` interface so
the same protocol code can run on interchangeable implementations:

* ``reference`` — per-element loops that mirror the original scalar code
  path operation-for-operation.  This is the semantic oracle.
* ``fused`` — the pure-Python fast path: modulus and table lookups are
  hoisted out of the loops, extension columns are produced with
  precomputed per-degree coefficients, and the SumCheck
  extend→product→accumulate dataflow is fused into single passes with
  local-variable binding and deferred modular reduction on accumulators.
* ``array`` — numpy uint64 limb planes with vectorized Montgomery REDC
  and Barrett reduction (:mod:`repro.fields.array_backend`); needs
  numpy, otherwise :func:`get_backend` raises :class:`BackendUnavailable`.
* ``gmp`` — optional gmpy2 ``mpz`` variant of the fused kernels; needs
  gmpy2 as well.

The two optional backends are imported on the first request that could
involve them — asking for one by name, :func:`list_backends`,
:func:`unavailable_backends` — so a process that only ever names the
built-in ones never imports numpy.

All backends produce **bit-identical results** and report **identical
:class:`~repro.fields.counters.OpCounter` tallies** — the counter models
the abstract dataflow of the paper's Figure 1, not the Python op count —
so the hw-model cross-checks in ``tests/test_hw_validation.py`` hold on
either path.  ``tests/test_fastpath_differential.py`` locks this down.

Backends are registered by name via :func:`register_backend` and resolved
with :func:`get_backend`; :class:`FieldVec` is a thin value wrapper that
routes operator arithmetic through a chosen backend.
"""

from __future__ import annotations

import random
import threading
from typing import Sequence

from repro.fields.counters import OpCounter
from repro.fields.prime_field import PrimeField


class VectorBackend:
    """Interface for batched field-vector kernels.

    All methods take and return flat lists of canonical integers in
    ``[0, p)``.  ``counter`` tallies follow the hardware grouping
    (extension-engine vs product-lane) and must be identical across
    backends for identical inputs.
    """

    name = "abstract"

    # -- elementwise -------------------------------------------------------
    def add(self, field: PrimeField, a: Sequence[int], b: Sequence[int],
            counter: OpCounter | None = None) -> list[int]:
        """Elementwise ``(a[i] + b[i]) mod p``."""
        raise NotImplementedError

    def sub(self, field: PrimeField, a: Sequence[int], b: Sequence[int],
            counter: OpCounter | None = None) -> list[int]:
        """Elementwise ``(a[i] - b[i]) mod p``."""
        raise NotImplementedError

    def mul(self, field: PrimeField, a: Sequence[int], b: Sequence[int],
            counter: OpCounter | None = None) -> list[int]:
        """Elementwise ``(a[i] * b[i]) mod p``."""
        raise NotImplementedError

    def scale(self, field: PrimeField, a: Sequence[int], c: int,
              counter: OpCounter | None = None) -> list[int]:
        """Elementwise ``(c * a[i]) mod p``, scalar ``c``."""
        raise NotImplementedError

    def axpy(self, field: PrimeField, acc: Sequence[int], c: int,
             x: Sequence[int], counter: OpCounter | None = None) -> list[int]:
        """``acc + c * x`` elementwise — the OpenCheck batching kernel."""
        raise NotImplementedError

    # -- SumCheck primitives ----------------------------------------------
    def fold(self, field: PrimeField, table: Sequence[int], r: int,
             counter: OpCounter | None = None) -> list[int]:
        """MLE Update: ``out[i] = t[2i] + r * (t[2i+1] - t[2i])`` mod p."""
        raise NotImplementedError

    def fold_tables(self, field: PrimeField, tables: dict, r: int,
                    counter: OpCounter | None = None) -> dict:
        """Fold every table by the same challenge ``r`` (one prover round).

        Semantically identical to calling :meth:`fold` per table — which
        is exactly what this default does — but array-style backends
        override it to fold all tables in a single batched kernel pass.
        Insertion order of ``tables`` is preserved.
        """
        return {
            name: self.fold(field, t, r, counter)
            for name, t in tables.items()
        }

    def wrap_table(self, field: PrimeField, table: Sequence[int]):
        """Adopt a raw table into the backend's preferred representation.

        Purely representational — no field operations, no counter
        activity.  The default returns the table unchanged; the array
        backend converts to limb planes once so every subsequent kernel
        call hits its zero-copy fast path.
        """
        return table

    def extend_columns(self, field: PrimeField, table: Sequence[int],
                       degree: int,
                       counter: OpCounter | None = None) -> list[list[int]]:
        """Extension Engine over a whole table: column ``x`` holds the
        value of every adjacent pair's line at the point ``X = x``, for
        ``x = 0..degree``.  Column 0 is the even half, column 1 the odd
        half."""
        raise NotImplementedError

    def round_evaluations(self, field: PrimeField, terms, tables: dict,
                          degree: int,
                          counter: OpCounter | None = None) -> list[int]:
        """One SumCheck round: s(0..degree) for the given term structure
        over the current (partially folded) raw tables."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# reference backend — the semantic oracle
# ---------------------------------------------------------------------------

class ReferenceBackend(VectorBackend):
    """Per-element loops mirroring the original scalar code paths."""

    name = "reference"

    def add(self, field, a, b, counter=None):
        """Oracle loop for :meth:`VectorBackend.add`."""
        fadd = field.add
        out = [fadd(x, y) for x, y in zip(a, b)]
        if counter is not None:
            counter.count_add(len(out))
        return out

    def sub(self, field, a, b, counter=None):
        """Oracle loop for :meth:`VectorBackend.sub`."""
        fsub = field.sub
        out = [fsub(x, y) for x, y in zip(a, b)]
        if counter is not None:
            counter.count_add(len(out))
        return out

    def mul(self, field, a, b, counter=None):
        """Oracle loop for :meth:`VectorBackend.mul`."""
        fmul = field.mul
        out = [fmul(x, y) for x, y in zip(a, b)]
        if counter is not None:
            counter.count_mul(len(out))
        return out

    def scale(self, field, a, c, counter=None):
        """Oracle loop for :meth:`VectorBackend.scale`."""
        fmul = field.mul
        c %= field.modulus
        out = [fmul(x, c) for x in a]
        if counter is not None:
            counter.count_mul(len(out))
        return out

    def axpy(self, field, acc, c, x, counter=None):
        """Oracle loop for :meth:`VectorBackend.axpy`."""
        p = field.modulus
        c %= p
        out = [(u + c * v) % p for u, v in zip(acc, x)]
        if counter is not None:
            counter.count_mul(len(out))
            counter.count_add(len(out))
        return out

    def fold(self, field, table, r, counter=None):
        """Oracle loop for :meth:`VectorBackend.fold`."""
        p = field.modulus
        r %= p
        out = [0] * (len(table) // 2)
        for i in range(len(out)):
            lo = table[2 * i]
            hi = table[2 * i + 1]
            out[i] = (lo + r * (hi - lo)) % p
        if counter is not None:
            counter.count_mul(len(out), kind="ee")
            counter.count_add(2 * len(out))
        return out

    def extend_columns(self, field, table, degree, counter=None):
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
        if counter is not None:
            counter.count_add(max(degree - 1, 0) * half)
        return cols

    def round_evaluations(self, field, terms, tables, degree, counter=None):
        # Deliberately mirrors the original per-pair scalar loop
        # (including its counter call pattern) so it can serve as the
        # differential oracle for the fused kernel.
        """Oracle loop for :meth:`VectorBackend.round_evaluations`."""
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
                if counter is not None:
                    counter.count_add(max(degree - 1, 0))
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
                    if counter is not None:
                        counter.count_mul(nmul, kind="pl")
                        counter.count_add(1)
        return evals


# ---------------------------------------------------------------------------
# fused backend — the fast path
# ---------------------------------------------------------------------------

class FusedBackend(VectorBackend):
    """Hoisted, fused, comprehension-driven kernels.

    Techniques (all semantics-preserving):

    * the modulus and every table are bound to locals once per call;
    * extension columns use the precomputed coefficient identity
      ``line(x) = lo + x * (hi - lo)`` instead of a per-point adder chain;
    * the round kernel fuses extend → product → accumulate into one pass
      over column vectors, deferring modular reduction on accumulators
      (partial products stay ``< p**lanes``, sums reduce once at the end);
    * counter tallies are computed in closed form and applied in bulk.
    """

    name = "fused"

    def add(self, field, a, b, counter=None):
        """Fused-loop :meth:`VectorBackend.add`."""
        p = field.modulus
        out = [(x + y) % p for x, y in zip(a, b)]
        if counter is not None:
            counter.count_add(len(out))
        return out

    def sub(self, field, a, b, counter=None):
        """Fused-loop :meth:`VectorBackend.sub`."""
        p = field.modulus
        out = [(x - y) % p for x, y in zip(a, b)]
        if counter is not None:
            counter.count_add(len(out))
        return out

    def mul(self, field, a, b, counter=None):
        """Fused-loop :meth:`VectorBackend.mul`."""
        p = field.modulus
        out = [x * y % p for x, y in zip(a, b)]
        if counter is not None:
            counter.count_mul(len(out))
        return out

    def scale(self, field, a, c, counter=None):
        """Fused-loop :meth:`VectorBackend.scale`."""
        p = field.modulus
        c %= p
        out = [x * c % p for x in a]
        if counter is not None:
            counter.count_mul(len(out))
        return out

    def axpy(self, field, acc, c, x, counter=None):
        """Fused-loop :meth:`VectorBackend.axpy`."""
        p = field.modulus
        c %= p
        out = [(u + c * v) % p for u, v in zip(acc, x)]
        if counter is not None:
            counter.count_mul(len(out))
            counter.count_add(len(out))
        return out

    def fold(self, field, table, r, counter=None):
        """Fused-loop :meth:`VectorBackend.fold`."""
        p = field.modulus
        r %= p
        lo = table[::2]
        hi = table[1::2]
        out = [(l + r * (h - l)) % p for l, h in zip(lo, hi)]
        if counter is not None:
            counter.count_mul(len(out), kind="ee")
            counter.count_add(2 * len(out))
        return out

    def extend_columns(self, field, table, degree, counter=None):
        """Fused-loop :meth:`VectorBackend.extend_columns`."""
        p = field.modulus
        # normalize the pair slices so non-canonical input stays
        # bit-identical to the reference backend; an odd table's unpaired
        # trailing element is dropped, exactly like the reference loop
        half = len(table) // 2
        lo = [v % p for v in table[:2 * half:2]]
        hi = [v % p for v in table[1:2 * half:2]]
        cols = [lo, hi]
        # precomputed extension coefficient: line(x) = lo + x * (hi - lo)
        for x in range(2, degree + 1):
            cols.append([(l + x * (h - l)) % p for l, h in zip(lo, hi)])
        if counter is not None:
            counter.count_add(max(degree - 1, 0) * len(lo))
        return cols[: degree + 1]

    @staticmethod
    def _extend_flat(p: int, table: Sequence[int], degree: int) -> list[int]:
        """Flat column-major extension array: ``flat[x * half + j]`` is
        pair ``j``'s line evaluated at ``X = x``.  One list per MLE for
        *all* points, so downstream product passes run once per term
        rather than once per (term, point).  Requires canonical ``[0, p)``
        input (guaranteed by DenseMLE tables and fold outputs)."""
        half = len(table) // 2
        lo = table[:2 * half:2]
        hi = table[1:2 * half:2]
        flat = list(lo)
        if degree >= 1:
            flat += hi
        if degree >= 2:
            # incremental adder chain over whole columns: col[x] = col[x-1]
            # + delta (deltas stay unreduced in (-p, p); sums normalize)
            delta = [h - l for h, l in zip(hi, lo)]
            cur = hi
            for _ in range(degree - 1):
                cur = [(c + d) % p for c, d in zip(cur, delta)]
                flat += cur
        return flat

    def round_evaluations(self, field, terms, tables, degree, counter=None):
        """Fused-loop :meth:`VectorBackend.round_evaluations`."""
        p = field.modulus
        npts = degree + 1
        names = list(tables)
        half = len(tables[names[0]]) // 2

        # flat extension arrays, one slice-and-extend pass per MLE
        flat = {name: self._extend_flat(p, tables[name], degree)
                for name in names}

        # elementwise power columns, cached per (name, power) so a factor
        # like w1^5 shared by several terms is exponentiated once; whole
        # columns are squared-and-multiplied (comprehensions beat per-
        # element pow() calls)
        pow_cache: dict[tuple[str, int], list[int]] = {}

        def factor_col(name: str, power: int) -> list[int]:
            if power == 1:
                return flat[name]
            col = pow_cache.get((name, power))
            if col is None:
                base = flat[name]
                if power == 2:
                    col = [v * v % p for v in base]
                elif power == 3:
                    col = [v * v * v % p for v in base]
                elif power == 4:
                    sq = [v * v % p for v in base]
                    col = [s * s % p for s in sq]
                elif power == 5:
                    sq = [v * v % p for v in base]
                    col = [s * s * v % p for s, v in zip(sq, base)]
                else:
                    result = None
                    e = power
                    while e:
                        if e & 1:
                            result = base if result is None else [
                                u * v % p for u, v in zip(result, base)
                            ]
                        e >>= 1
                        if e:
                            base = [v * v % p for v in base]
                    col = result
                pow_cache[(name, power)] = col
            return col

        evals = [0] * npts
        for term in terms:
            coeff = term.coeff % p
            factors = term.factors
            k = len(factors)
            if k == 0:
                # constant term: contributes coeff once per pair
                contrib = coeff * half % p
                for x in range(npts):
                    evals[x] = (evals[x] + contrib) % p
                continue
            # single product pass across all points; modular reduction is
            # deferred to the per-point sums (partials stay < p**k)
            if k == 1:
                prods = factor_col(*factors[0])
            elif k == 2:
                a = factor_col(*factors[0])
                b = factor_col(*factors[1])
                prods = [u * v for u, v in zip(a, b)]
            elif k == 3:
                a = factor_col(*factors[0])
                b = factor_col(*factors[1])
                c3 = factor_col(*factors[2])
                prods = [u * v * w for u, v, w in zip(a, b, c3)]
            else:
                # k >= 4: reduce three lanes at a time, reducing mod p
                # between passes to bound intermediate growth
                lane_cols = [factor_col(name, power) for name, power in factors]
                acc = [u * v % p for u, v in zip(lane_cols[0], lane_cols[1])]
                i = 2
                while k - i >= 3:
                    acc = [
                        t * u * v % p
                        for t, u, v in zip(acc, lane_cols[i], lane_cols[i + 1])
                    ]
                    i += 2
                rest = lane_cols[i:]  # the loop bound leaves 1 or 2 lanes
                if len(rest) == 1:
                    prods = [u * v for u, v in zip(acc, rest[0])]
                else:
                    prods = [
                        u * v * w for u, v, w in zip(acc, rest[0], rest[1])
                    ]
            for x in range(npts):
                s = sum(prods[x * half:(x + 1) * half]) % p
                evals[x] = (evals[x] + coeff * s) % p

        if counter is not None:
            # closed-form tallies matching the reference loop exactly
            counter.count_add(max(degree - 1, 0) * half * len(names))
            sum_deg = sum(term.degree for term in terms)
            counter.count_mul(half * npts * sum_deg, kind="pl")
            counter.count_add(half * npts * len(terms))
        return evals


# ---------------------------------------------------------------------------
# backend registry
# ---------------------------------------------------------------------------

_BACKENDS: dict[str, VectorBackend] = {}

#: backends that failed to register, mapped to a human-readable reason
#: (typically a missing optional dependency); :func:`get_backend` turns
#: these into :class:`BackendUnavailable` instead of "unknown backend"
_UNAVAILABLE: dict[str, str] = {}

DEFAULT_BACKEND = "reference"

#: the optional backends have not been looked for yet
_optional_pending = True
_optional_lock = threading.Lock()


def _load_optional_backends() -> None:
    """Register ``array`` (numpy limb planes) and ``gmp`` (gmpy2), once.

    An import failure files the name under ``_UNAVAILABLE`` with the
    install extra that fixes it, so :func:`list_backends` — and every
    CLI message built from it — shrinks instead of breaking and
    :func:`get_backend` raises a clear :class:`BackendUnavailable`.  A
    backend someone registered under either name beforehand is kept.
    """
    global _optional_pending
    if not _optional_pending:
        return
    with _optional_lock:
        if not _optional_pending:
            return
        try:
            from repro.fields.array_backend import ArrayBackend, GmpBackend
        except ImportError as exc:
            found: dict[str, VectorBackend] = {}
            missing = {
                "array": f"requires numpy (pip install repro-zkphire[fast]): {exc}",
                "gmp": "requires numpy + gmpy2 "
                       f"(pip install repro-zkphire[fast,gmp]): {exc}",
            }
        else:
            found = {"array": ArrayBackend()}
            missing = {}
            try:
                import gmpy2  # noqa: F401  (availability probe only)
            except ImportError as exc:
                missing["gmp"] = (
                    f"requires gmpy2 (pip install repro-zkphire[gmp]): {exc}"
                )
            else:
                found["gmp"] = GmpBackend()
        for name, backend in found.items():
            _BACKENDS.setdefault(name, backend)
        for name, reason in missing.items():
            if name not in _BACKENDS:
                _UNAVAILABLE[name] = reason
        _optional_pending = False


class BackendUnavailable(RuntimeError):
    """A known backend cannot run here (missing optional dependency).

    Distinct from the ``ValueError`` raised for truly unknown names so
    callers (and CI's no-numpy leg) can tell a typo from a degraded
    environment; the message names the install extra that fixes it.
    """


def register_backend(name: str, backend: VectorBackend) -> None:
    """Register (or replace) a named backend implementation."""
    if not isinstance(backend, VectorBackend):
        raise TypeError("backend must be a VectorBackend instance")
    _UNAVAILABLE.pop(name, None)
    _BACKENDS[name] = backend


def get_backend(backend: str | VectorBackend | None = None) -> VectorBackend:
    """Resolve a backend name (or pass through an instance).

    ``None`` resolves to the session default (``reference`` unless
    :func:`set_default_backend` changed it), preserving the
    pre-fast-path semantics everywhere a caller doesn't opt in.
    """
    if backend is None:
        backend = DEFAULT_BACKEND
    if isinstance(backend, VectorBackend):
        return backend
    if backend not in _BACKENDS:
        _load_optional_backends()
    try:
        return _BACKENDS[backend]
    except KeyError:
        if backend in _UNAVAILABLE:
            raise BackendUnavailable(
                f"vector backend {backend!r} is unavailable: "
                f"{_UNAVAILABLE[backend]}"
            ) from None
        raise ValueError(
            f"unknown vector backend {backend!r}; "
            f"available: {available_backends()}"
        ) from None


def list_backends() -> list[str]:
    """Sorted names of every backend that can actually run here.

    This is the single source of truth for CLI ``--backend`` choices and
    for the test parametrization matrix; backends whose optional
    dependencies are missing are omitted (see :func:`unavailable_backends`).
    """
    _load_optional_backends()
    return sorted(_BACKENDS)


def available_backends() -> list[str]:
    """Alias of :func:`list_backends` (kept for older call sites)."""
    return list_backends()


def unavailable_backends() -> dict[str, str]:
    """Known-but-unregistered backends mapped to the reason (a copy)."""
    _load_optional_backends()
    return dict(_UNAVAILABLE)


def set_default_backend(backend: str | VectorBackend | None) -> str:
    """Set the backend that ``None`` selections resolve to; returns its name.

    Validates like :func:`get_backend` (unknown names raise
    ``ValueError``, unavailable ones :class:`BackendUnavailable`).  Used
    by ``repro-experiments --backend`` to steer every functional kernel
    an experiment touches without threading a parameter through each
    experiment module.
    """
    global DEFAULT_BACKEND
    DEFAULT_BACKEND = backend_name(backend)
    return DEFAULT_BACKEND


def backend_name(backend: str | VectorBackend | None) -> str:
    """Normalize a backend selection to its registry name.

    Validates the selection (unknown names raise, like :func:`get_backend`)
    and returns a plain string, which is what crosses process boundaries
    in :mod:`repro.service` worker pools — backend instances are never
    pickled, workers re-resolve the name against their own registry.
    """
    if isinstance(backend, str):
        get_backend(backend)  # validate
        return backend
    return get_backend(backend).name


register_backend("reference", ReferenceBackend())
register_backend("fused", FusedBackend())


# ---------------------------------------------------------------------------
# FieldVec — a value wrapper over the backend kernels
# ---------------------------------------------------------------------------

class FieldVec:
    """A flat vector of canonical field elements bound to a backend.

    Arithmetic between two ``FieldVec``s requires equal length and the
    same field; the left operand's backend carries out the operation.
    ``int`` operands broadcast as scalars.
    """

    __slots__ = ("field", "values", "backend")

    def __init__(self, field: PrimeField, values: Sequence[int],
                 backend: str | VectorBackend | None = None):
        p = field.modulus
        self.field = field
        self.values = [v % p for v in values]
        self.backend = get_backend(backend)

    # -- constructors ------------------------------------------------------
    @classmethod
    def zeros(cls, field: PrimeField, n: int,
              backend: str | VectorBackend | None = None) -> "FieldVec":
        """An all-zero vector of length ``n``."""
        return cls(field, [0] * n, backend)

    @classmethod
    def random(cls, field: PrimeField, n: int,
               rng: random.Random | None = None,
               backend: str | VectorBackend | None = None) -> "FieldVec":
        """A vector of ``n`` uniform elements from ``rng``."""
        rng = rng or random.Random()
        return cls(field, [rng.randrange(field.modulus) for _ in range(n)],
                   backend)

    # -- arithmetic --------------------------------------------------------
    def _coerce(self, other) -> list[int]:
        if isinstance(other, FieldVec):
            if other.field != self.field:
                raise ValueError("FieldVec field mismatch")
            if len(other.values) != len(self.values):
                raise ValueError("FieldVec length mismatch")
            return other.values
        raise TypeError(f"cannot combine FieldVec with {type(other).__name__}")

    def add(self, other, counter: OpCounter | None = None) -> "FieldVec":
        """Elementwise sum with ``other``."""
        out = self.backend.add(self.field, self.values, self._coerce(other),
                               counter)
        return self._wrap(out)

    def sub(self, other, counter: OpCounter | None = None) -> "FieldVec":
        """Elementwise difference with ``other``."""
        out = self.backend.sub(self.field, self.values, self._coerce(other),
                               counter)
        return self._wrap(out)

    def mul(self, other, counter: OpCounter | None = None) -> "FieldVec":
        """Elementwise (Hadamard) product with ``other``."""
        out = self.backend.mul(self.field, self.values, self._coerce(other),
                               counter)
        return self._wrap(out)

    def scale(self, c: int, counter: OpCounter | None = None) -> "FieldVec":
        """Every element multiplied by a scalar."""
        return self._wrap(self.backend.scale(self.field, self.values, c,
                                             counter))

    def axpy(self, c: int, x: "FieldVec",
             counter: OpCounter | None = None) -> "FieldVec":
        """``self + c * x`` elementwise."""
        return self._wrap(self.backend.axpy(self.field, self.values, c,
                                            self._coerce(x), counter))

    def fold(self, r: int, counter: OpCounter | None = None) -> "FieldVec":
        """Fold adjacent pairs by challenge ``r`` (MLE Update)."""
        if len(self.values) < 2:
            raise ValueError("fold needs at least one pair")
        return self._wrap(self.backend.fold(self.field, self.values, r,
                                            counter))

    def extend(self, degree: int,
               counter: OpCounter | None = None) -> list["FieldVec"]:
        """Extension columns at X = 0..degree, each of length ``n // 2``."""
        cols = self.backend.extend_columns(self.field, self.values, degree,
                                           counter)
        return [self._wrap(c) for c in cols]

    def _wrap(self, values: list[int]) -> "FieldVec":
        out = object.__new__(FieldVec)
        out.field = self.field
        out.values = values
        out.backend = self.backend
        return out

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.sub(other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return self.mul(other)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    # -- misc --------------------------------------------------------------
    def to_list(self) -> list[int]:
        """A plain ``list[int]`` copy of the values."""
        return list(self.values)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, idx):
        return self.values[idx]

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other):
        if isinstance(other, FieldVec):
            return self.field == other.field and self.values == other.values
        if isinstance(other, (list, tuple)):
            return self.values == list(other)
        return NotImplemented

    def __repr__(self):
        return (f"FieldVec(n={len(self.values)}, {self.field.name}, "
                f"backend={self.backend.name})")


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
