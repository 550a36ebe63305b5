"""Explicit operation counting.

The hardware performance model (``repro.hw``) predicts how many modular
multiplications, additions, and inversions each protocol phase performs.
Functional provers accept an optional :class:`OpCounter` and increment it
on every field operation, letting tests assert that the model's predicted
operation counts match reality exactly (DESIGN.md §4).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class OpCounter:
    """Tally of field operations, grouped the way the hardware groups them."""

    mul: int = 0
    add: int = 0
    inv: int = 0
    #: extension-engine multiplies (MLE extension / update), a subset of mul
    ee_mul: int = 0
    #: product-lane multiplies (cross-MLE products), a subset of mul
    pl_mul: int = 0
    labels: dict[str, int] = field(default_factory=dict)

    def count_mul(self, n: int = 1, kind: str | None = None) -> None:
        """Record ``n`` modmuls (kind ``ee`` or ``pl``)."""
        self.mul += n
        if kind == "ee":
            self.ee_mul += n
        elif kind == "pl":
            self.pl_mul += n

    def count_add(self, n: int = 1) -> None:
        """Record ``n`` modular additions."""
        self.add += n

    def count_inv(self, n: int = 1) -> None:
        """Record ``n`` modular inversions."""
        self.inv += n

    def bump(self, label: str, n: int = 1) -> None:
        """Free-form labelled counter (e.g. per protocol phase)."""
        self.labels[label] = self.labels.get(label, 0) + n

    def merged(self, other: "OpCounter") -> "OpCounter":
        """A new counter summing both tallies."""
        out = OpCounter(
            mul=self.mul + other.mul,
            add=self.add + other.add,
            inv=self.inv + other.inv,
            ee_mul=self.ee_mul + other.ee_mul,
            pl_mul=self.pl_mul + other.pl_mul,
        )
        out.labels = dict(self.labels)
        for k, v in other.labels.items():
            out.labels[k] = out.labels.get(k, 0) + v
        return out
