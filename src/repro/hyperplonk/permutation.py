"""Wire-identity (PermCheck) data construction.

This is the software analogue of zkPHIRE's Permutation Quotient Generator
(§IV-B5): from witness columns w_i, identity labels id_i, permutation
labels σ_i and challenges β, γ it builds

* per-column Numerators  N_i(x) = w_i(x) + β·id_i(x) + γ,
* per-column Denominators D_i(x) = w_i(x) + β·σ_i(x) + γ,
* the Fraction MLE        φ(x) = Π_i N_i(x) / Π_i D_i(x)
  (batched modular inversion — the paper's batch-2 Montgomery scheme),
* the Product MLE          π(t), the inner nodes of the product tree
  (built by the Multifunction Forest in hardware).

Product-tree layout.  The tree is the product-check relation of Quarks
and HyperPlonk (Chen–Bünz–Boneh–Zhang), v(0, x) = f(x),
v(1, x) = v(x, 0)·v(x, 1), written in this repo's first-variable-first
order.  It is a *virtual* polynomial over μ+1 variables, b the first:

    T(b, x) = (1 - b)·φ(x) + b·π(x),      x ∈ {0,1}^μ,

so its leaves (b = 0, the even slots of the table) *are* φ — by
definition, not by a check — and only π (the odd slots) is a
polynomial of its own.  π(t) = T(t, 0)·T(t, 1), i.e. with N = 2^μ,
π[t] = T[t]·T[t + N]: the two halves of the table, p1 = T(·, 0) and
p2 = T(·, 1), multiplied slot by slot.  A node's level is one more than
its count of low-order one bits (level 1 reads two leaves, level ℓ two
nodes of level ℓ - 1), so π is built level by level; the root is
π(1, …, 1, 0), slot N/2 - 1, the one node of level μ, and the slot
π(1^μ) = π[N - 1] is fixed to 1, which makes the single constraint

    π(t) - p1(t)·p2(t) = 0   for all t in {0,1}^μ

*also* hold at t = 1^μ (it reads 1 = root · 1 there).

Soundness.  The ZeroCheck makes π[t] = T[t]·T[t + N] on the whole cube.
By induction over the levels, a node of level ℓ is the product of 2^ℓ
leaves, and the 2^μ leaves under the root are distinct, so
root = Π_x φ(x).  The root is opened and must be 1, and Π_x φ(x) = 1
iff Π_i,x N_i = Π_i,x D_i, which under the β, γ randomization holds
only for a wiring that respects σ.

What is committed: φ and π, 2^μ points each.  The prover keeps the whole
tree in memory (:attr:`PermutationData.prod_tree`) because the ZeroCheck
sums over its p1/p2 halves, but no (μ+1)-variable polynomial is ever
committed or opened: at the ZeroCheck point ρ = (ρ_1, ρ′),

    p1(ρ) = T(ρ_1, ρ′, 0) = h(ρ′, 0),   p2(ρ) = h(ρ′, 1),
    h = (1 - ρ_1)·φ + ρ_1·π,

and h's commitment is the same combination of the two the proof
carries.  The two points differ only in the last coordinate, the one a
PST opening folds last, so their openings share all μ quotients.  A
tree whose leaves are anything but the committed φ cannot even be
expressed.

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
    prod_tree: DenseMLE                # T: φ in the even slots, π in the odd

    @property
    def pi(self) -> DenseMLE:
        """π(x) = T(1, x): the odd slots of the tree — the committed half."""
        return DenseMLE(self.prod_tree.field, self.prod_tree.table[1::2])

    @property
    def p1(self) -> DenseMLE:
        """p1(t) = T(t, 0): the lower half of the tree table."""
        half = len(self.prod_tree.table) // 2
        return DenseMLE(self.prod_tree.field, self.prod_tree.table[:half])

    @property
    def p2(self) -> DenseMLE:
        """p2(t) = T(t, 1): the upper half of the tree table."""
        half = len(self.prod_tree.table) // 2
        return DenseMLE(self.prod_tree.field, self.prod_tree.table[half:])

    @property
    def root(self) -> int:
        """π(1, …, 1, 0) = Π_x φ(x) — must be 1 for a valid wiring."""
        return self.prod_tree.table[len(self.prod_tree.table) // 2 - 1]


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
        tree = [0] * (2 * size)
        tree[0::2] = phi_t
        # level ℓ: the slots t with ℓ - 1 low-order one bits
        for level in range(1, size.bit_length()):
            for t in range((1 << (level - 1)) - 1, size, 1 << level):
                tree[2 * t + 1] = tree[t] * tree[t + size] % p
        tree[-1] = 1
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
