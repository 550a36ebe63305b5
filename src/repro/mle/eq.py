"""The eq(x, r) randomizer MLE ("Build MLE" kernel).

ZeroCheck multiplies the gate polynomial by f_r(x) = eq(x, r) =
prod_i (x_i r_i + (1 - x_i)(1 - r_i)) so that individually-wrong gates
cannot cancel in the sum (§III-F).  zkSpeed computes this table with a
separate Build-MLE pass; zkPHIRE fuses it into round 1 of SumCheck.  Both
use the doubling construction implemented here: the table for i variables
is expanded to i+1 variables with one multiply per new entry.
"""

from __future__ import annotations

from typing import Sequence

from repro.fields import counters
from repro.fields.prime_field import PrimeField
from repro.mle.table import DenseMLE


def build_eq_mle(field: PrimeField, challenges: Sequence[int]) -> DenseMLE:
    """Build the 2^μ table of eq(x, r) for r = ``challenges``.

    Doubling construction: start from [1]; processing r_i doubles the
    table, placing the X_i = 0 half at the existing indices and the
    X_i = 1 half ``len(table)`` above them, so X_1 stays in the least
    significant index bit (the package-wide convention).  Total
    multiplies: 2^(μ+1) - 2 ≈ 2N, the O(N) precompute zkPHIRE's round-1
    fusion avoids re-materializing.
    """
    p = field.modulus
    table = [1]
    for r in challenges:
        r %= p
        one_minus_r = (1 - r) % p
        half = len(table)
        nxt = [0] * (2 * half)
        for j, e in enumerate(table):
            nxt[j] = e * one_minus_r % p
            nxt[j + half] = e * r % p
        table = nxt
    if (sink := counters.field_sink) is not None:
        sink.count_mul(2 * len(table) - 2, kind="ee")
    return DenseMLE(field, table)


def eq_eval(field: PrimeField, x: Sequence[int], r: Sequence[int]) -> int:
    """Evaluate eq(x, r) at arbitrary field points x, r."""
    if len(x) != len(r):
        raise ValueError("eq_eval: length mismatch")
    p = field.modulus
    acc = 1
    for xi, ri in zip(x, r):
        xi %= p
        ri %= p
        acc = acc * (xi * ri + (1 - xi) * (1 - ri)) % p
    return acc
