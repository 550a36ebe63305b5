"""Compile gate expressions to sum-of-products form.

:func:`compile_expr` fully distributes an expression tree into a list of
monomials (integer coefficient × symbolic scalars × MLE powers) and wraps
the result in a :class:`CompiledGate`, which can be *bound* against
concrete scalar values and a field to yield the
:class:`~repro.mle.virtual.Term` list SumCheck consumes.

The compiled form is also what zkPHIRE's automated scheduler (§III-E)
takes as input: the per-term factor lists drive the graph decomposition
in ``repro.hw.scheduler``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from repro.fields.prime_field import PrimeField
from repro.gates.expr import Const, Expr, Pow, Prod, Scalar, Sum, Var
from repro.mle.virtual import Term


@dataclass(frozen=True)
class Monomial:
    """coeff * prod(scalars) * prod(mle^power); symbolic (field-free) form."""

    coeff: int
    scalars: tuple[tuple[str, int], ...]  # (scalar name, power), sorted
    factors: tuple[tuple[str, int], ...]  # (mle name, power), sorted

    @property
    def degree(self) -> int:
        return sum(p for _, p in self.factors)


def _multiply(a: Monomial, b: Monomial) -> Monomial:
    scalars = Counter(dict(a.scalars))
    scalars.update(dict(b.scalars))
    factors = Counter(dict(a.factors))
    factors.update(dict(b.factors))
    return Monomial(
        coeff=a.coeff * b.coeff,
        scalars=tuple(sorted(scalars.items())),
        factors=tuple(sorted(factors.items())),
    )


_ONE = Monomial(1, (), ())


def _expand(expr: Expr) -> list[Monomial]:
    if isinstance(expr, Const):
        return [Monomial(expr.value, (), ())] if expr.value else []
    if isinstance(expr, Var):
        return [Monomial(1, (), ((expr.name, 1),))]
    if isinstance(expr, Scalar):
        return [Monomial(1, ((expr.name, 1),), ())]
    if isinstance(expr, Sum):
        out: list[Monomial] = []
        for child in expr.children:
            out.extend(_expand(child))
        return out
    if isinstance(expr, Prod):
        partials = [_ONE]
        for child in expr.children:
            child_monomials = _expand(child)
            partials = [_multiply(p, m) for p in partials for m in child_monomials]
        return partials
    if isinstance(expr, Pow):
        if expr.exponent == 0:
            return [_ONE]
        base = _expand(expr.base)
        out = base
        for _ in range(expr.exponent - 1):
            out = [_multiply(p, m) for p in out for m in base]
        return out
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def _combine_like(monomials: list[Monomial]) -> list[Monomial]:
    acc: dict[tuple, int] = {}
    for m in monomials:
        key = (m.scalars, m.factors)
        acc[key] = acc.get(key, 0) + m.coeff
    return [
        Monomial(coeff, scalars, factors)
        for (scalars, factors), coeff in acc.items()
        if coeff != 0
    ]


@dataclass
class CompiledGate:
    """A gate expression in canonical sum-of-products form."""

    name: str
    monomials: list[Monomial]

    @property
    def degree(self) -> int:
        return max((m.degree for m in self.monomials), default=0)

    @property
    def num_terms(self) -> int:
        return len(self.monomials)

    @property
    def mle_names(self) -> list[str]:
        seen: dict[str, None] = {}
        for m in self.monomials:
            for name, _ in m.factors:
                seen.setdefault(name)
        return list(seen)

    @property
    def scalar_names(self) -> list[str]:
        seen: dict[str, None] = {}
        for m in self.monomials:
            for name, _ in m.scalars:
                seen.setdefault(name)
        return list(seen)

    def bind(
        self,
        field: PrimeField,
        scalar_values: Mapping[str, int] | None = None,
    ) -> list[Term]:
        """Resolve symbolic scalars and produce SumCheck-ready Terms."""
        scalar_values = scalar_values or {}
        missing = [s for s in self.scalar_names if s not in scalar_values]
        if missing:
            raise KeyError(f"unbound scalars for gate {self.name!r}: {missing}")
        p = field.modulus
        terms = []
        for m in self.monomials:
            coeff = m.coeff % p
            for sname, spower in m.scalars:
                coeff = coeff * pow(scalar_values[sname] % p, spower, p) % p
            if coeff == 0:
                continue
            terms.append(Term(coeff=coeff, factors=m.factors))
        if not terms:
            raise ValueError(f"gate {self.name!r} bound to the zero polynomial")
        return terms


def compile_expr(name: str, expr: Expr) -> CompiledGate:
    """Expand ``expr`` into canonical sum-of-products form."""
    monomials = _combine_like(_expand(expr))
    if not monomials:
        raise ValueError(f"expression for {name!r} expanded to zero")
    return CompiledGate(name=name, monomials=monomials)
