"""Dense MLE tables and the three hardware primitives.

A multilinear polynomial f(X_1..X_μ) is stored as the list of its 2^μ
hypercube evaluations (raw field ints for speed).  X_1 occupies the least
significant index bit, so the pairs f(0, x_rest), f(1, x_rest) that round
1 of SumCheck consumes are adjacent — mirroring how zkPHIRE streams MLE
tiles from HBM (§III-B).
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.fields import counters
from repro.fields.prime_field import PrimeField
from repro.fields.vector import KERNEL


class DenseMLE:
    """A dense multilinear-extension table over a prime field."""

    __slots__ = ("field", "num_vars", "table")

    def __init__(self, field: PrimeField, table: Sequence[int]):
        n = len(table)
        if n == 0 or n & (n - 1):
            raise ValueError("MLE table length must be a power of two")
        self.field = field
        self.num_vars = n.bit_length() - 1
        self.table = [v % field.modulus for v in table]

    # -- constructors -----------------------------------------------------
    @classmethod
    def zeros(cls, field: PrimeField, num_vars: int) -> "DenseMLE":
        return cls(field, [0] * (1 << num_vars))

    @classmethod
    def constant(cls, field: PrimeField, num_vars: int, value: int) -> "DenseMLE":
        return cls(field, [value % field.modulus] * (1 << num_vars))

    @classmethod
    def random(
        cls,
        field: PrimeField,
        num_vars: int,
        rng: random.Random | None = None,
        sparsity: float = 0.0,
    ) -> "DenseMLE":
        """Random table; ``sparsity`` is the fraction of entries forced to 0.

        Witness and constant MLEs in real circuits are ~90% sparse
        (§IV-B1); tests use this to exercise the sparsity-aware paths.
        """
        rng = rng or random.Random()
        table = []
        for _ in range(1 << num_vars):
            if sparsity and rng.random() < sparsity:
                table.append(0)
            else:
                table.append(rng.randrange(field.modulus))
        return cls(field, table)

    # -- hardware primitive 1: MLE Update (fix X_1 := r) -------------------
    def fix_first_variable(self, r: int) -> "DenseMLE":
        """Return f(r, X_2..X_μ): fold adjacent pairs by the challenge r.

        f(r, x) = f(0, x) + r * (f(1, x) - f(0, x)) — one modular multiply
        and two adds per output entry, exactly the Update unit's datapath,
        carried out by the :mod:`repro.fields.vector` kernel.
        """
        if self.num_vars == 0:
            raise ValueError("cannot fix a variable of a 0-variable MLE")
        out = KERNEL.fold(self.field, self.table, r)
        return DenseMLE(self.field, out)

    # -- hardware primitive 3: point evaluation -----------------------------
    @counters.uncounted()  # DESIGN.md §4
    def evaluate(self, point: Sequence[int]) -> int:
        """Evaluate the MLE at an arbitrary field point (length-μ vector)."""
        if len(point) != self.num_vars:
            raise ValueError(
                f"point has {len(point)} coords, MLE has {self.num_vars} vars"
            )
        cur = self
        for r in point:
            if cur.num_vars == 0:
                break
            cur = cur.fix_first_variable(r)
        return cur.table[0]

    # -- misc ---------------------------------------------------------------
    def __len__(self):
        return len(self.table)

    def __getitem__(self, idx: int) -> int:
        return self.table[idx]

    def __eq__(self, other):
        if not isinstance(other, DenseMLE):
            return NotImplemented
        return self.field == other.field and self.table == other.table

    def __repr__(self):
        return f"DenseMLE(μ={self.num_vars}, {self.field.name})"

    def scaled(self, c: int) -> "DenseMLE":
        p = self.field.modulus
        c %= p
        return DenseMLE(self.field, [v * c % p for v in self.table])


def extend_pair(field: PrimeField, lo: int, hi: int, degree: int) -> list[int]:
    """Hardware primitive 2: extend an evaluation pair to X = 0..degree.

    The pair (f at X=0, f at X=1) defines a line; the Extension Engine
    produces its values at X = 0, 1, 2, ..., degree by repeatedly adding
    the slope (hi - lo) — an adder chain in hardware, so only adds are
    counted.
    """
    p = field.modulus
    delta = (hi - lo) % p
    out = [lo % p, hi % p]
    cur = hi % p
    for _ in range(degree - 1):
        cur = (cur + delta) % p
        out.append(cur)
    if (sink := counters.field_sink) is not None:
        sink.count_add(max(degree - 1, 0))
    return out[: degree + 1]


def extend_table(
    field: PrimeField, table: Sequence[int], degree: int
) -> list[list[int]]:
    """Batched :func:`extend_pair` over a whole table.

    Returns extension *columns*: ``cols[x][j]`` is the value at ``X = x``
    of the line through pair ``j`` — i.e. ``extend_pair`` applied to every
    adjacent pair at once, transposed, on the :mod:`repro.fields.vector`
    kernel.
    """
    if len(table) < 2 or len(table) % 2:
        raise ValueError("extend_table needs an even-length table")
    return KERNEL.extend_columns(field, table, degree)
