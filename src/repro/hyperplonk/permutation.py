"""Wire-identity (PermCheck) data construction.

This is the software analogue of zkPHIRE's Permutation Quotient Generator
(§IV-B5): from witness columns w_i, identity labels id_i, permutation
labels σ_i and challenges β, γ it builds

* per-column Numerators  N_i(x) = w_i(x) + β·id_i(x) + γ,
* per-column Denominators D_i(x) = w_i(x) + β·σ_i(x) + γ,
* the Fraction MLE        φ(x) = Π_i N_i(x) / Π_i D_i(x)
  (batched modular inversion — the paper's batch-2 Montgomery scheme),
* the Product MLE          π(t), the upper half of the product tree
  (built by the Multifunction Forest in hardware).

Product-tree layout (Quarks-style).  The tree over μ+1 variables is
*virtual*:

    T(x, b) = (1 - b)·φ(x) + b·π(x),      x ∈ {0,1}^μ, b = X_{μ+1},

so its lower half *is* φ — by definition, not by a check — and only the
upper half π is a polynomial of its own.  π[t] = T[2t]·T[2t+1] packs the
reduction levels contiguously; the final slot π[2^μ - 1] is fixed to 1,
which makes the single constraint

    π(t) - p1(t)·p2(t) = 0   for all t in {0,1}^μ,

with π = T(·, 1), p1 = T(X_1=0, ·), p2 = T(X_1=1, ·), *also* consistent
at t = 2^μ - 1 (it reads 1 = root · 1 there).  The permutation argument
is sound iff Π φ = 1, i.e. Π_i,x N_i = Π_i,x D_i under the β, γ
randomization; the root is π(0, 1, …, 1).

What is committed: φ and π, 2^μ points each.  The prover keeps the whole
tree in memory (:attr:`PermutationData.prod_tree`) because the ZeroCheck
sums over its p1/p2 slices, but no (μ+1)-variable polynomial is ever
committed or opened: at the ZeroCheck point ρ,

    p1(ρ) = T(0, ρ_1..ρ_μ) = h(0, ρ′),   p2(ρ) = h(1, ρ′),
    h = (1 - ρ_μ)·φ + ρ_μ·π,             ρ′ = ρ_1..ρ_{μ-1},

and h's commitment is the same combination of the two the proof
carries.  A tree whose leaves are anything but the committed φ cannot
even be expressed.

The full PermCheck ZeroCheck polynomial is then exactly Table I rows
21/23:  (π - p1·p2 + α·(φ·D_1..D_k - N_1..N_k)) · fr.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fields import counters
from repro.fields.prime_field import PrimeField, batch_inverse
from repro.mle.table import DenseMLE
from repro.mle.virtual import Term


@dataclass
class PermutationData:
    """Everything PermCheck commits to or sums over."""

    numerators: dict[str, DenseMLE]    # N1..Nk
    denominators: dict[str, DenseMLE]  # D1..Dk
    phi: DenseMLE                      # fraction MLE (μ vars)
    prod_tree: DenseMLE                # T = φ ‖ π, in memory only (μ+1 vars)

    @property
    def pi(self) -> DenseMLE:
        """π(t) = T(t, 1): the top half of the tree table — the committed half."""
        half = len(self.prod_tree.table) // 2
        return DenseMLE(self.prod_tree.field, self.prod_tree.table[half:])

    @property
    def p1(self) -> DenseMLE:
        """p1(t) = T(0, t): even entries."""
        return DenseMLE(self.prod_tree.field, self.prod_tree.table[0::2])

    @property
    def p2(self) -> DenseMLE:
        """p2(t) = T(1, t): odd entries."""
        return DenseMLE(self.prod_tree.field, self.prod_tree.table[1::2])

    @property
    def root(self) -> int:
        """The grand product Π_x φ(x) — must be 1 for a valid wiring."""
        return self.prod_tree.table[-2]


def build_permutation_data(
    field: PrimeField,
    witness: dict[str, DenseMLE],
    identities: dict[str, DenseMLE],
    sigmas: dict[str, DenseMLE],
    beta: int,
    gamma: int,
) -> PermutationData:
    """Construct N/D/φ and the product tree (the Permutation Quotient
    Generator's outputs); the tree is the phase ``prod_tree``."""
    p = field.modulus
    beta %= p
    gamma %= p
    names = sorted(witness, key=lambda s: int(s[1:]))  # w1..wk
    k = len(names)
    size = len(next(iter(witness.values())).table)

    numerators: dict[str, DenseMLE] = {}
    denominators: dict[str, DenseMLE] = {}
    num_prod = [1] * size
    den_prod = [1] * size
    for col, wname in enumerate(names, start=1):
        w = witness[wname].table
        ident = identities[f"id{col}"].table
        sigma = sigmas[f"sigma{col}"].table
        n_t = [(w[i] + beta * ident[i] + gamma) % p for i in range(size)]
        d_t = [(w[i] + beta * sigma[i] + gamma) % p for i in range(size)]
        numerators[f"N{col}"] = DenseMLE(field, n_t)
        denominators[f"D{col}"] = DenseMLE(field, d_t)
        for i in range(size):
            num_prod[i] = num_prod[i] * n_t[i] % p
            den_prod[i] = den_prod[i] * d_t[i] % p

    den_inv = batch_inverse(field, den_prod)
    phi_t = [num_prod[i] * den_inv[i] % p for i in range(size)]
    if (sink := counters.field_sink) is not None:
        # per column β·id, β·σ and the two running products; then φ
        sink.count_mul(4 * k * size + size)
        sink.count_add(4 * k * size)
        sink.count_inv(size)

    with counters.phase("prod_tree"):
        tree = phi_t + [0] * size
        for t in range(size - 1):
            tree[size + t] = tree[2 * t] * tree[2 * t + 1] % p
        tree[2 * size - 1] = 1
        if (sink := counters.field_sink) is not None:
            sink.count_mul(size - 1)

    return PermutationData(
        numerators=numerators,
        denominators=denominators,
        phi=DenseMLE(field, phi_t),
        prod_tree=DenseMLE(field, tree),
    )


def permcheck_terms(field: PrimeField, num_columns: int, alpha: int) -> list[Term]:
    """The PermCheck gate identity (Table I rows 21/23), *without* fr:

        π - p1·p2 + α·(φ·D1···Dk - N1···Nk)

    ZeroCheck appends the fr factor.
    """
    p = field.modulus
    alpha %= p
    d_factors = tuple((f"D{i}", 1) for i in range(1, num_columns + 1))
    n_factors = tuple((f"N{i}", 1) for i in range(1, num_columns + 1))
    return [
        Term(1, (("pi", 1),)),
        Term(p - 1, (("p1", 1), ("p2", 1))),
        Term(alpha, (("phi", 1),) + d_factors),
        Term(p - alpha, n_factors),
    ]
