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
    prover's own calls share the empty prefix only, see the last test.)"""
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

    def test_tree_points_cost_one_top_quotient_and_three_second(self, srs, rng):
        f = DenseMLE.random(Fr, MU + 1, rng)
        rho = [rng.randrange(2, P) for _ in range(MU)]
        counting = CountingKZG(srs)
        counting.open_many(f, tree_points(rho))
        # prefix (): once; prefixes (rho_1), (0), (1): p1 and root share (0)
        assert counting.commit_sizes[1 << MU] == 1
        assert counting.commit_sizes[1 << (MU - 1)] == 3
        assert counting.open_calls == 4  # still attributed to open(), per point

        unshared = CountingKZG(srs)
        for point in tree_points(rho):
            unshared.open(f, point)
        assert unshared.commit_sizes[1 << MU] == 4
        assert unshared.commit_sizes[1 << (MU - 1)] == 4

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
    combined one, π twice and the blend h = (1 - ρ_μ)·φ + ρ_μ·π twice —
    each pair sharing its 2^(μ-1)-point top quotient, and the proof is
    the unshared one.  The SRS has μ variables: nothing is committed or
    opened at arity μ+1."""
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
    rho_last = proof.perm_zerocheck.challenges[-1]
    assert plain.commit(blend) == Commitment.combine(
        [1 - rho_last, rho_last], [proof.phi_commitment, proof.prod_commitment]
    )
    # witness/phi/pi commits have these sizes too, so count against a
    # prover whose open_many opens point by point
    unshared = CountingKZG(srs)
    unshared.open_many = lambda mle, points: [unshared.open(mle, p) for p in points]
    assert HyperPlonkProver(circuit, pidx, unshared).prove() == proof
    # one top quotient saved per open_many, nothing below it: π's two
    # points part at the first coordinate and so do h's (0 / 1)
    saved = unshared.commit_sizes - counting.commit_sizes
    assert saved == Counter({1 << (MU - 1): 2})
    HyperPlonkVerifier(Fr, vidx, plain).verify(proof)
