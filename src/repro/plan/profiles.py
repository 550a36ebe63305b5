"""Composite-polynomial profiles: the shared cost vocabulary.

A :class:`PolyProfile` is the structural summary of a composite
SumCheck polynomial — its product terms, degrees, and per-MLE storage
classes — that every cost consumer speaks: the Figure-2 hardware
scheduler (:mod:`repro.hw.scheduler`), the CPU baseline's modmul
formula, and the :class:`~repro.plan.proof_plan.ProofPlan` phase DAG.
The classes were born inside ``repro.hw.scheduler`` and are still
re-exported there; they live in the plan layer so that describing a
proof's work never requires importing a hardware model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from repro.gates.compiler import CompiledGate
from repro.gates.library import GateSpec

#: reserved name of the ZeroCheck randomizer
FR_NAME = "fr"


@dataclass(frozen=True)
class TermProfile:
    """One product term: (mle name, power) factors."""

    factors: tuple[tuple[str, int], ...]

    @cached_property
    def degree(self) -> int:
        """Total degree of the term (sum of factor powers)."""
        return sum(p for _, p in self.factors)

    @property
    def distinct(self) -> int:
        """Number of distinct MLEs multiplied in this term."""
        return len(self.factors)

    @property
    def names(self) -> tuple[str, ...]:
        """The term's MLE names, in factor order."""
        return tuple(n for n, _ in self.factors)


@dataclass(frozen=True)
class PolyProfile:
    """The scheduler's view of a composite polynomial.

    ``mle_classes`` maps each constituent MLE to a storage class used by
    the round-1 traffic model: ``selector`` (0/1 bitstream), ``sparse``
    (~90% zero/one witness data, offset-buffer encoded), or ``dense``.

    A profile is immutable: ``terms`` is stored as a tuple (a list is
    accepted) and no field can be reassigned, which is what lets
    ``degree`` / ``unique_mles`` / ``term_factors`` /
    ``product_muls_per_point`` / ``has_fr`` be computed once per object —
    a sweep reads them once per SumCheck run otherwise.  They live on the
    object, so they go with it: nothing outside a profile holds a fact
    about it.
    """

    name: str
    terms: tuple[TermProfile, ...]
    mle_classes: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            for n, _ in t.factors:
                self.mle_classes.setdefault(n, "dense")

    @cached_property
    def degree(self) -> int:
        """Degree of the composite: the largest term degree."""
        return max(t.degree for t in self.terms)

    @cached_property
    def unique_mles(self) -> tuple[str, ...]:
        """Distinct constituent MLE names, first-seen order."""
        seen: dict[str, None] = {}
        for t in self.terms:
            for n, _ in t.factors:
                seen.setdefault(n)
        return tuple(seen)

    @cached_property
    def term_factors(self) -> tuple[tuple[tuple[str, int], ...], ...]:
        """Every term's factors as one plain tuple: a value that hashes
        and compares without calling back into Python, which makes it
        the key a cache of per-structure facts can look up cheaply."""
        return tuple(t.factors for t in self.terms)

    @cached_property
    def product_muls_per_point(self) -> int:
        """Multiplies that form every term's product at one evaluation
        point: Σ_t (deg_t − 1)."""
        return sum(t.degree - 1 for t in self.terms)

    @cached_property
    def has_fr(self) -> bool:
        """True when the ZeroCheck randomizer participates."""
        return FR_NAME in self.unique_mles

    @classmethod
    def from_gate(cls, spec: GateSpec) -> "PolyProfile":
        """Profile a Table-I gate spec (selector classes included)."""
        return cls.from_compiled(spec.compiled, selector_names=spec.selector_names)

    @classmethod
    def from_compiled(cls, compiled: CompiledGate,
                      selector_names: Sequence[str] = ()) -> "PolyProfile":
        """Profile a compiled gate expression, classifying each MLE as
        ``selector`` / ``sparse`` / ``dense`` for the traffic model."""
        terms = [TermProfile(m.factors) for m in compiled.monomials]
        classes: dict[str, str] = {}
        for name in compiled.mle_names:
            if name == FR_NAME:
                classes[name] = "dense"
            elif name in selector_names:
                classes[name] = "selector"
            elif name.startswith(("w", "qc", "qC")):
                classes[name] = "sparse"
            else:
                classes[name] = "dense"
        return cls(name=compiled.name, terms=terms, mle_classes=classes)
