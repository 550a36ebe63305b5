"""Virtual (composite) polynomials: sums of products of MLEs.

SumCheck in modern protocols runs over compositions like
f_plonk = qL*w1 + qR*w2 + qM*w1*w2 - qO*w3 + qC (§II-C1): we hold only the
constituent multilinear tables plus the composition structure.  A
:class:`VirtualPolynomial` is a list of :class:`Term`s, each a field
coefficient times a product of named MLEs raised to small powers
(repeated MLEs such as w1^5 in the Jellyfish gate are expressed as powers,
which is exactly the data-reuse opportunity zkPHIRE's scheduler exploits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.fields.prime_field import PrimeField
from repro.mle.table import DenseMLE


@dataclass(frozen=True)
class Term:
    """coeff * prod_j mle[name_j] ^ power_j  (names within a term distinct)."""

    coeff: int
    factors: tuple[tuple[str, int], ...]

    @property
    def degree(self) -> int:
        """Total degree: number of multilinear factors counted with power."""
        return sum(power for _, power in self.factors)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.factors)

    def validate(self) -> None:
        names = [n for n, _ in self.factors]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate MLE name in term factors: {names}")
        if any(p < 1 for _, p in self.factors):
            raise ValueError("factor powers must be >= 1")


class VirtualPolynomial:
    """A composite polynomial: sum of Terms over a shared set of MLE tables."""

    def __init__(
        self,
        field: PrimeField,
        terms: Sequence[Term],
        mles: Mapping[str, DenseMLE],
    ):
        if not terms:
            raise ValueError("virtual polynomial needs at least one term")
        self.field = field
        self.terms = list(terms)
        self.mles = dict(mles)
        num_vars = None
        for term in self.terms:
            term.validate()
            for name, _ in term.factors:
                if name not in self.mles:
                    raise KeyError(f"term references unknown MLE {name!r}")
        for name, mle in self.mles.items():
            if mle.field != field:
                raise ValueError(f"MLE {name!r} is over the wrong field")
            if num_vars is None:
                num_vars = mle.num_vars
            elif mle.num_vars != num_vars:
                raise ValueError("all MLEs must have the same number of variables")
        if num_vars is None:
            raise ValueError("virtual polynomial needs at least one MLE")
        self.num_vars = num_vars

    # -- structure ---------------------------------------------------------
    @property
    def degree(self) -> int:
        """Max total degree across terms: d+1 evaluations per SumCheck round."""
        return max(term.degree for term in self.terms)

    @property
    def unique_mle_names(self) -> list[str]:
        seen: dict[str, None] = {}
        for term in self.terms:
            for name, _ in term.factors:
                seen.setdefault(name)
        return list(seen)

    # -- evaluation ---------------------------------------------------------
    def evaluate_at_index(self, idx: int) -> int:
        """Evaluate the composition at hypercube point #idx."""
        p = self.field.modulus
        total = 0
        for term in self.terms:
            prod = term.coeff % p
            for name, power in term.factors:
                v = self.mles[name].table[idx]
                prod = prod * pow(v, power, p) % p
                if prod == 0:
                    break
            total = (total + prod) % p
        return total

    def sum_over_hypercube(self) -> int:
        """The claim: the composition summed over all 2^μ hypercube points.

        Column-wise — each ``name ** power`` column is raised once, a term
        is one product pass over its columns and its sum is reduced once;
        :meth:`evaluate_at_index` is the per-point oracle for it.
        """
        p = self.field.modulus
        columns: dict[tuple[str, int], Sequence[int]] = {}

        def column(name: str, power: int) -> Sequence[int]:
            table = self.mles[name].table
            if power == 1:
                return table
            col = columns.get((name, power))
            if col is None:
                col = columns[name, power] = [pow(v, power, p) for v in table]
            return col

        total = 0
        for term in self.terms:
            cols = [column(name, power) for name, power in term.factors]
            if not cols:
                term_sum = 1 << self.num_vars
            elif len(cols) == 1:
                term_sum = sum(cols[0])
            else:
                term_sum = sum(map(math.prod, zip(*cols)))
            total += term.coeff * (term_sum % p)
        return total % p

    def evaluate(self, point: Sequence[int]) -> int:
        """Evaluate the composition at an arbitrary field point.

        Each constituent MLE is evaluated at ``point`` and the composition
        is applied to the results — this is what the SumCheck verifier does
        in its final check.
        """
        evals = {name: self.mles[name].evaluate(point) for name in self.mles}
        return self.combine(evals)

    def combine(self, evals: Mapping[str, int]) -> int:
        """Apply the composition structure to per-MLE evaluation values."""
        p = self.field.modulus
        total = 0
        for term in self.terms:
            prod = term.coeff % p
            for name, power in term.factors:
                prod = prod * pow(evals[name] % p, power, p) % p
            total = (total + prod) % p
        return total

    def fix_first_variable(self, r: int) -> "VirtualPolynomial":
        """Fold every constituent MLE by the challenge r (MLE Update)."""
        folded = {
            name: mle.fix_first_variable(r) for name, mle in self.mles.items()
        }
        return VirtualPolynomial(self.field, self.terms, folded)

    def __repr__(self):
        return (
            f"VirtualPolynomial(μ={self.num_vars}, {len(self.terms)} terms, "
            f"degree {self.degree})"
        )
