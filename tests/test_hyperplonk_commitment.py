"""Tests for the multilinear KZG commitment scheme."""

import random

import pytest
from goldens import SRS_SEEDS, pinned, sha256, srs_text

import repro.hyperplonk.commitment as commitment_module
from repro.curves import G1, G1_GENERATOR, AffinePoint, msm_naive, msm_pippenger
from repro.curves.bls12_381_g1 import generator_table
from repro.curves.msm import ResidentBases
from repro.fields import Fr
from repro.fields.counters import recording
from repro.hyperplonk.commitment import (
    Commitment,
    MultilinearKZG,
    Opening,
    TrapdoorSRS,
)
from repro.mle import DenseMLE
from repro.mle.eq import build_eq_mle

P = Fr.modulus


@pytest.fixture(scope="module")
def kzg():
    return MultilinearKZG(TrapdoorSRS(4, random.Random(0xABCD)))


@pytest.fixture
def mle(rng):
    return DenseMLE.random(Fr, 3, rng)


class TestCommit:
    def test_commit_is_deterministic(self, kzg, mle):
        assert kzg.commit(mle).point == kzg.commit(mle).point

    def test_commit_binds_to_table(self, kzg, mle, rng):
        other = DenseMLE.random(Fr, 3, rng)
        assert kzg.commit(mle).point != kzg.commit(other).point

    def test_commit_zero_polynomial(self, kzg):
        assert kzg.commit(DenseMLE.zeros(Fr, 3)).point.inf

    def test_commit_is_linear(self, kzg, rng):
        """C(f + g) = C(f) + C(g) — homomorphism used by the RLC opening."""
        f = DenseMLE.random(Fr, 3, rng)
        g = DenseMLE.random(Fr, 3, rng)
        fg = DenseMLE(Fr, [(a + b) % P for a, b in zip(f.table, g.table)])
        assert kzg.commit(fg).point == kzg.commit(f).point.add(kzg.commit(g).point)

    def test_commit_scale(self, kzg, rng):
        f = DenseMLE.random(Fr, 3, rng)
        k = rng.randrange(2, P)
        assert kzg.commit(f.scaled(k)).point == kzg.commit(f).scale(k).point

    def test_arity_above_srs_rejected(self, kzg, rng):
        with pytest.raises(ValueError):
            kzg.commit(DenseMLE.random(Fr, 5, rng))

    def test_srs_sizes_from_one_seed_are_nested(self, rng):
        """The suffix secrets of an arity do not depend on ``max_vars``:
        a verifier holding a larger SRS from the prover's seed accepts
        the prover's openings (services size theirs to the largest μ,
        out-of-band checkers may size theirs differently)."""
        small = MultilinearKZG(TrapdoorSRS(2, random.Random(0xABCD)))
        large = MultilinearKZG(TrapdoorSRS(4, random.Random(0xABCD)))
        # each derives arities 0..2 from its own top arity: 2 and 4
        for arity in range(3):
            assert small.srs.bases(arity) == large.srs.bases(arity)
        f = DenseMLE.random(Fr, 2, rng)
        point = [rng.randrange(P) for _ in range(2)]
        assert small.commit(f) == large.commit(f)
        assert large.verify(large.commit(f), small.open(f, point))


def request_orders(max_vars):
    """Ascending (the benchmark's set-up loop), descending (a prover:
    top arity first) and two mixed orders over every arity."""
    ascending = list(range(max_vars + 1))
    middle_out = sorted(ascending, key=lambda a: (abs(a - max_vars // 2), a))
    shuffled = random.Random(max_vars).sample(ascending, len(ascending))
    return [ascending, ascending[::-1], middle_out, shuffled]


class TestSRSBases:
    """Whatever arity a caller asks for first, the SRS builds its top
    arity from the generator — one multiplication per base, 2^max_vars
    in all — and every lower arity as pair sums of the one above, once;
    the same points as a direct build of each arity."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The arity of every build from the generator, in order (each
        one evaluates eq once)."""
        builds = []
        real = commitment_module.build_eq_mle
        monkeypatch.setattr(
            commitment_module, "build_eq_mle",
            lambda field, point: builds.append(len(point)) or real(field, point),
        )
        return builds

    @staticmethod
    def direct(srs, arity):
        table = generator_table()
        eq = build_eq_mle(Fr, srs.secrets_for(arity))
        return [table.scalar_mul(v) for v in eq.table]

    @pytest.mark.parametrize("seed", [0xABCD, 20])
    @pytest.mark.parametrize("max_vars", [1, 4, 7])
    def test_every_order_gives_the_direct_points(self, seed, max_vars):
        expected = None
        for order in request_orders(max_vars):
            srs = TrapdoorSRS(max_vars, random.Random(seed))
            for arity in order:
                assert len(srs.bases(arity)) == 1 << arity
            if expected is None:
                expected = [self.direct(srs, a) for a in range(max_vars + 1)]
                assert all(G1.is_on_curve(pt.x, pt.y)
                           for level in expected for pt in level)
            got = [list(srs.bases(a)) for a in range(max_vars + 1)]
            assert got == expected, order

    def test_an_arity_is_built_once_and_keeps_its_tables(self, builds):
        srs = TrapdoorSRS(5, random.Random(3))
        low = srs.bases(2)  # builds 5 from the generator, derives 4..0
        assert builds == [5] and sorted(srs._bases_cache) == list(range(6))
        scalars = list(range(1, 5))
        expected = msm_pippenger(scalars, low)
        tables = low._tables
        assert tables is not None
        top = srs.bases(5)
        for arity in (4, 3, 1, 0):
            assert isinstance(srs.bases(arity), ResidentBases)
        assert builds == [5]
        assert srs.bases(2) is low and low._tables is tables
        assert srs.bases(5) is top
        assert msm_pippenger(scalars, srs.bases(2)) == expected
        with pytest.raises(ValueError):
            srs.bases(6)

    @pytest.mark.parametrize("max_vars", [1, 4, 7])
    def test_every_order_makes_one_top_arity_build(self, max_vars, builds):
        """2^max_vars generator multiplications whatever the order: the
        yardstick's set-up (arities 0..7 ascending) went from 255 to 128.
        Each is one comb walk of ``columns`` doublings in ``srs_bases``."""
        comb = generator_table()
        for order in request_orders(max_vars):
            builds.clear()
            srs = TrapdoorSRS(max_vars, random.Random(max_vars))
            with recording() as rec:
                for arity in order:
                    srs.bases(arity)
            assert builds == [max_vars], order
            assert rec.row("srs_bases").g1.doubling == comb.columns << max_vars

    def test_an_arity_above_the_srs_builds_nothing(self, builds):
        srs = TrapdoorSRS(4, random.Random(2))
        with pytest.raises(ValueError):
            srs.bases(5)
        assert builds == [] and srs._bases_cache == {}

    @pytest.mark.parametrize("seed", SRS_SEEDS)
    @pytest.mark.parametrize("top_first", [False, True])
    def test_points_are_bit_identical_to_the_recorded_digest(self, seed,
                                                             top_first):
        """``srs/`` in ``tests/goldens.json`` was recorded while a
        bottom-first caller still had each arity built from the generator
        on its own (the same digests asked bottom-first and top-first)."""
        text = srs_text(seed, first=7 if top_first else 0)
        assert sha256(text) == pinned(f"srs/seed{seed}")

    def test_infinity_bases_survive_the_pair_sums(self):
        """A secret equal to 1 (never drawn in practice) zeroes half of
        eq: infinity summands drop out of their pair."""
        srs = TrapdoorSRS(3, random.Random(1))
        srs.secret[1] = 1
        srs.bases(3)
        assert sum(pt.inf for pt in srs.bases(3)) == 4
        for arity in range(4):
            assert list(srs.bases(arity)) == self.direct(srs, arity)


class TestOpenVerify:
    def test_honest_opening_verifies(self, kzg, mle, rng):
        point = [rng.randrange(P) for _ in range(3)]
        opening = kzg.open(mle, point)
        assert opening.value == mle.evaluate(point)
        assert kzg.verify(kzg.commit(mle), opening)

    def test_opening_at_hypercube_point(self, kzg, mle):
        opening = kzg.open(mle, [1, 0, 1])
        assert opening.value == mle.table[0b101]
        assert kzg.verify(kzg.commit(mle), opening)

    def test_lower_arity_opening(self, kzg, rng):
        """Suffix-secret SRS serves smaller polynomials too."""
        f = DenseMLE.random(Fr, 2, rng)
        point = [rng.randrange(P) for _ in range(2)]
        assert kzg.verify(kzg.commit(f), kzg.open(f, point))

    def test_max_arity_opening(self, kzg, rng):
        f = DenseMLE.random(Fr, 4, rng)
        point = [rng.randrange(P) for _ in range(4)]
        assert kzg.verify(kzg.commit(f), kzg.open(f, point))

    def test_wrong_value_rejected(self, kzg, mle, rng):
        point = [rng.randrange(P) for _ in range(3)]
        opening = kzg.open(mle, point)
        bad = Opening(opening.point, (opening.value + 1) % P, opening.quotients)
        assert not kzg.verify(kzg.commit(mle), bad)

    def test_wrong_commitment_rejected(self, kzg, mle, rng):
        point = [rng.randrange(P) for _ in range(3)]
        opening = kzg.open(mle, point)
        other = kzg.commit(DenseMLE.random(Fr, 3, rng))
        assert not kzg.verify(other, opening)

    def test_swapped_quotients_rejected(self, kzg, mle, rng):
        point = [rng.randrange(P) for _ in range(3)]
        opening = kzg.open(mle, point)
        qs = list(opening.quotients)
        qs[0], qs[1] = qs[1], qs[0]
        bad = Opening(opening.point, opening.value, tuple(qs))
        # quotient order matters (distinct secrets per variable)
        assert not kzg.verify(kzg.commit(mle), bad)

    def test_arity_mismatch_rejected(self, kzg, mle, rng):
        opening = kzg.open(mle, [1, 2, 3])
        wrong = Commitment(kzg.commit(mle).point, 4)
        assert not kzg.verify(wrong, opening)

    def test_point_arity_check(self, kzg, mle):
        with pytest.raises(ValueError):
            kzg.open(mle, [1, 2])

    def test_quotient_count(self, kzg, mle):
        opening = kzg.open(mle, [5, 6, 7])
        assert len(opening.quotients) == 3
        assert opening.size_bytes == 32 + 3 * 48

    def test_opening_of_constant_shift(self, kzg, rng):
        """f and f + c open consistently (homomorphic shift)."""
        f = DenseMLE.random(Fr, 3, rng)
        c = rng.randrange(P)
        g = DenseMLE(Fr, [(v + c) % P for v in f.table])
        point = [rng.randrange(P) for _ in range(3)]
        assert (kzg.open(g, point).value - kzg.open(f, point).value) % P == c


class TestUncheckedProverPoints:
    """``verify`` is handed points nobody has subgroup-checked: its
    equation must be the plain group equation on whatever they are, not
    one that silently assumes the order-r subgroup."""

    #: on the curve, order 3, outside G1
    TORSION = G1.affine(0, 2)

    def forged(self, kzg, mle, rng):
        point = [rng.randrange(P) for _ in range(3)]
        opening = kzg.open(mle, point)
        quotients = (opening.quotients[0].add(self.TORSION),
                     *opening.quotients[1:])
        return Opening(opening.point, opening.value, quotients)

    def test_off_subgroup_quotient_gets_the_plain_equation(self, kzg, mle, rng):
        commitment = kzg.commit(mle)
        for _ in range(3):
            bad = self.forged(kzg, mle, rng)
            secrets = kzg.srs.secrets_for(3)
            factors = [(s - z) % P for s, z in zip(secrets, bad.point)]
            lhs = commitment.point.add(
                msm_naive([bad.value], [G1_GENERATOR]).neg()
            )
            expected = lhs == msm_naive(factors, bad.quotients)
            assert kzg.verify(commitment, bad) == expected
            # 3 ∤ (s₁ - z₁) leaves the torsion component in: rejected
            assert expected == (factors[0] % 3 == 0)

    def test_scale_and_combine_take_the_plain_multiple(self, kzg, mle):
        """A commitment is a prover-supplied point too: on one shifted
        by the cofactor point, k·C must stay what double-and-add says."""
        honest = kzg.commit(mle)
        shifted = Commitment(honest.point.add(self.TORSION), 3)
        split_differs = 0
        for k in (P - 2, 5, (1 << 200) + 1, 0xDEADBEEF << 130):
            expected = msm_naive([k], [shifted.point])
            assert shifted.scale(k).point == expected
            assert Commitment.combine([k], [shifted]).point == expected
            split_differs += shifted.point.scalar_mul(k) != expected
        # the endomorphism split is not this map outside the subgroup
        assert split_differs

    def test_off_curve_quotient_rejected(self, kzg, mle, rng):
        opening = kzg.open(mle, [rng.randrange(P) for _ in range(3)])
        q = opening.quotients[1]
        off = AffinePoint(G1, q.x, (q.y + 1) % G1.field.modulus)
        bad = Opening(opening.point, opening.value,
                      (opening.quotients[0], off, opening.quotients[2]))
        assert not kzg.verify(kzg.commit(mle), bad)

    def test_quotient_count_mismatch_rejected(self, kzg, mle):
        opening = kzg.open(mle, [1, 2, 3])
        short = Opening(opening.point, opening.value, opening.quotients[:2])
        assert not kzg.verify(kzg.commit(mle), short)


class TestCommitmentAlgebra:
    def test_combine_is_the_weighted_sum(self, kzg, rng):
        cs = [kzg.commit(DenseMLE.random(Fr, 3, rng)) for _ in range(3)]
        weights = [rng.randrange(P) for _ in cs]
        expected = cs[0].scale(weights[0])
        for w, c in zip(weights[1:], cs[1:]):
            expected = expected.add(c.scale(w))
        assert Commitment.combine(weights, cs) == expected

    def test_combine_arity_mismatch(self, kzg, rng):
        c1 = kzg.commit(DenseMLE.random(Fr, 3, rng))
        c2 = kzg.commit(DenseMLE.random(Fr, 2, rng))
        with pytest.raises(ValueError, match="arity"):
            Commitment.combine([1, 2], [c1, c2])

    def test_add_arity_mismatch(self, kzg, rng):
        c1 = kzg.commit(DenseMLE.random(Fr, 3, rng))
        c2 = kzg.commit(DenseMLE.random(Fr, 2, rng))
        with pytest.raises(ValueError):
            c1.add(c2)

    def test_size_constant(self):
        assert Commitment.SIZE_BYTES == 48
