"""``MultilinearKZG.open_many``: same-polynomial openings share the
quotient commitments (and folded tables) of every common point prefix.

The i-th quotient of an opening is a function of the polynomial and
z_1..z_{i-1} only, so sharing changes how often ``commit`` runs and
nothing about what any opening contains.
"""

import random
from collections import Counter

import pytest

from repro.fields import Fr
from repro.hyperplonk import (
    VANILLA,
    HyperPlonkProver,
    HyperPlonkVerifier,
    MultilinearKZG,
    TrapdoorSRS,
    preprocess,
)
from repro.hyperplonk.commitment import Commitment
from repro.mle import DenseMLE
from repro.service.traffic import synthesize_circuit

P = Fr.modulus
MU = 3


class CountingKZG(MultilinearKZG):
    """Counts ``commit`` calls by table size, the way the benchmark's
    ``TracedKZG`` wraps them."""

    def __init__(self, srs):
        super().__init__(srs)
        self.commit_sizes = Counter()
        self.open_calls = 0
        self.opened = []

    def commit(self, mle):
        self.commit_sizes[len(mle.table)] += 1
        return super().commit(mle)

    def open(self, mle, point):
        self.open_calls += 1
        self.opened.append(mle)
        return super().open(mle, point)


@pytest.fixture(scope="module")
def srs():
    return TrapdoorSRS(MU + 1, random.Random(0x0BE7))


def tree_points(rho):
    """Four points over two levels of shared prefixes: all share the
    empty one, the second and fourth share ``(0,)`` as well.  (The
    prover's own two walks are the last two tests.)"""
    return [
        list(rho) + [1],
        [0] + list(rho),
        [1] + list(rho),
        [0] + [1] * len(rho),
    ]


class TestOpenMany:
    def test_equals_open_per_point_field_for_field(self, srs, rng):
        kzg = MultilinearKZG(srs)
        f = DenseMLE.random(Fr, MU + 1, rng)
        rho = [rng.randrange(P) for _ in range(MU)]
        # unreduced and repeated points too
        points = tree_points(rho) + [[v + P for v in [0] + rho], [1] + rho]
        shared = kzg.open_many(f, points)
        alone = [kzg.open(f, pt) for pt in points]
        assert len(shared) == len(points)
        for got, expected in zip(shared, alone):
            assert got.point == expected.point
            assert got.value == expected.value
            assert got.quotients == expected.quotients
            assert kzg.verify(kzg.commit(f), got)
        assert shared[0].value == f.evaluate(points[0])

    def test_empty_and_zero_variable_inputs(self, srs):
        kzg = MultilinearKZG(srs)
        constant = DenseMLE(Fr, [42])
        assert kzg.open_many(constant, []) == []
        (opening,) = kzg.open_many(constant, [[]])
        assert (opening.value, opening.quotients) == (42, ())
        assert kzg.verify(kzg.commit(constant), opening)

    def test_blend_pair_shares_every_quotient_and_pi_pair_the_first(
            self, srs, rng):
        """The prover's two walks over a μ-variable polynomial.  h at
        (ρ′, 0) and (ρ′, 1) differ in the last coordinate only, so its μ
        quotients are made once and both openings carry the same tuple;
        π at ρ and at the root point (1, …, 1, 0) part at the first
        coordinate and share q₁ alone."""
        mu = MU + 1
        h = DenseMLE.random(Fr, mu, rng)
        rho = [rng.randrange(2, P) for _ in range(mu)]
        # quotient i has 2^(μ-1-i) entries; the last is a generator multiple
        sizes = [1 << (mu - 1 - i) for i in range(mu - 1)]

        blend = CountingKZG(srs)
        low, high = blend.open_many(h, [rho[1:] + [0], rho[1:] + [1]])
        assert low.quotients == high.quotients and len(low.quotients) == mu
        assert blend.commit_sizes == Counter(sizes)
        assert (low.value, high.value) == (
            h.evaluate(rho[1:] + [0]), h.evaluate(rho[1:] + [1]))

        pi = CountingKZG(srs)
        at_rho, at_root = pi.open_many(h, [rho, [1] * (mu - 1) + [0]])
        assert at_rho.quotients[0] == at_root.quotients[0]
        assert all(a != b for a, b in zip(at_rho.quotients[1:],
                                          at_root.quotients[1:]))
        assert pi.commit_sizes == Counter(sizes + sizes[1:])
        assert blend.open_calls == pi.open_calls == 2  # per point, still

        unshared = CountingKZG(srs)
        for point in (rho[1:] + [0], rho[1:] + [1]):
            unshared.open(h, point)
        assert unshared.commit_sizes == Counter(sizes + sizes)

    def test_memo_does_not_outlive_the_call_or_leak_across_polynomials(self, srs, rng):
        f = DenseMLE.random(Fr, MU + 1, rng)
        g = DenseMLE.random(Fr, MU + 1, rng)
        point = [rng.randrange(P) for _ in range(MU + 1)]

        class OpensAnother(MultilinearKZG):
            def open(self, mle, pt):
                if mle is f:  # an open of g in the middle of f's walk
                    self.inner = super().open(g, pt)
                return super().open(mle, pt)

        kzg = OpensAnother(srs)
        kzg.open_many(f, [point, point])
        plain = MultilinearKZG(srs)
        assert kzg.inner == plain.open(g, point)
        assert kzg._memo is None
        counting = CountingKZG(srs)
        counting.open_many(f, [point])
        counting.open(f, point)  # afterwards: nothing shared
        assert counting.commit_sizes[1 << MU] == 2

    def test_failed_walk_still_clears_the_memo(self, srs, rng):
        kzg = MultilinearKZG(srs)
        f = DenseMLE.random(Fr, MU + 1, rng)
        with pytest.raises(ValueError, match="arity"):
            kzg.open_many(f, [[1] * (MU + 1), [1]])
        assert kzg._memo is None


def test_prover_opens_the_tree_through_open_many():
    """End to end: five openings, all of μ-variable polynomials — the
    combined one, π twice and the blend h = (1 - ρ_1)·φ + ρ_1·π twice.
    π's pair shares its 2^(μ-1)-point top quotient, h's pair every
    quotient, and the proof is the unshared one.  The SRS has μ
    variables: nothing is committed or opened at arity μ+1."""
    srs = TrapdoorSRS(MU, random.Random(0x0BE7))
    circuit = synthesize_circuit(VANILLA, MU, witness_seed=11)
    plain = MultilinearKZG(srs)
    pidx, vidx = preprocess(circuit, plain)
    counting = CountingKZG(srs)
    proof = HyperPlonkProver(circuit, pidx, counting).prove()
    assert counting.open_calls == 5
    combined, pi, pi_again, blend, blend_again = counting.opened
    assert [mle.num_vars for mle in counting.opened] == [MU] * 5
    assert pi is pi_again and blend is blend_again and pi is not blend
    assert plain.commit(pi) == proof.prod_commitment
    rho_first = proof.perm_zerocheck.challenges[0]
    assert plain.commit(blend) == Commitment.combine(
        [1 - rho_first, rho_first], [proof.phi_commitment, proof.prod_commitment]
    )
    openings = proof.tree_openings
    assert openings["p1"].quotients == openings["p2"].quotients
    assert openings["pi"].quotients[0] == openings["root"].quotients[0]
    # witness/phi/pi commits have these sizes too, so count against a
    # prover whose open_many opens point by point
    unshared = CountingKZG(srs)
    unshared.open_many = lambda mle, points: [unshared.open(mle, p) for p in points]
    assert HyperPlonkProver(circuit, pidx, unshared).prove() == proof
    # π saves its top quotient; h saves every quotient MSM of its second
    # opening, from the top one down to two points
    saved = unshared.commit_sizes - counting.commit_sizes
    assert saved == Counter({1 << (MU - 1): 2}) + Counter(
        1 << j for j in range(1, MU - 1))
    HyperPlonkVerifier(Fr, vidx, plain).verify(proof)
