"""Tests for the Fp12 tower, the ate pairing, and public KZG verification."""

import random

import pytest

from repro.curves import G1, G1_GENERATOR, AffinePoint
from repro.curves.pairing import (
    G2Point,
    final_exponentiation,
    miller_loop,
    multi_pairing,
    pairing,
    untwist,
)
from repro.curves.tower import Fp2, Fp6, Fp12, XI
from repro.fields import FR_MODULUS, Fr
from repro.hyperplonk.commitment import MultilinearKZG, Opening, TrapdoorSRS
from repro.mle import DenseMLE


class TestFp2:
    def test_ring_axioms(self, rng):
        xs = [Fp2(rng.randrange(1, 2**100), rng.randrange(1, 2**100))
              for _ in range(3)]
        a, b, c = xs
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)

    def test_u_squared_is_minus_one(self):
        u = Fp2(0, 1)
        assert u * u == Fp2(-1, 0)

    def test_inverse(self, rng):
        a = Fp2(rng.randrange(1, 2**100), rng.randrange(1, 2**100))
        assert a * a.inverse() == Fp2.ONE

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            Fp2.ZERO.inverse()

    def test_square_matches_mul(self, rng):
        a = Fp2(rng.randrange(2**90), rng.randrange(2**90))
        assert a.square() == a * a

    def test_frobenius_is_pth_power(self):
        a = Fp2(123456789, 987654321)
        # x^p for p ≡ 3 mod 4 is conjugation
        assert a.frobenius() == a.conjugate()


class TestFp6Fp12:
    def _rand6(self, rng):
        return Fp6(*(Fp2(rng.randrange(2**80), rng.randrange(2**80))
                     for _ in range(3)))

    def test_fp6_v_cubed_is_xi(self):
        v = Fp6(Fp2.ZERO, Fp2.ONE, Fp2.ZERO)
        v3 = v * v * v
        assert v3 == Fp6(XI, Fp2.ZERO, Fp2.ZERO)

    def test_fp6_inverse(self, rng):
        a = self._rand6(rng)
        assert a * a.inverse() == Fp6.ONE

    def test_fp6_mul_by_v(self, rng):
        a = self._rand6(rng)
        v = Fp6(Fp2.ZERO, Fp2.ONE, Fp2.ZERO)
        assert a.mul_by_v() == a * v

    def test_fp12_w_squared_is_v(self):
        w = Fp12(Fp6.ZERO, Fp6.ONE)
        v = Fp12(Fp6(Fp2.ZERO, Fp2.ONE, Fp2.ZERO), Fp6.ZERO)
        assert w * w == v

    def test_fp12_inverse_and_pow(self, rng):
        a = Fp12(self._rand6(rng), self._rand6(rng))
        assert a * a.inverse() == Fp12.ONE
        assert a.pow(5) == a * a * a * a * a
        assert a.pow(0) == Fp12.ONE
        assert a.pow(-1) == a.inverse()

    def test_fp12_frobenius_matches_pth_power(self, rng):
        """x.frobenius() == x^p — validates all Frobenius coefficients."""
        from repro.fields.bls12_381 import FQ_MODULUS

        a = Fp12(self._rand6(rng), self._rand6(rng))
        assert a.frobenius() == a.pow(FQ_MODULUS)


class TestG2:
    def test_generator_on_curve(self):
        assert G2Point.generator().is_on_curve()

    def test_generator_has_order_r(self):
        assert G2Point.generator().scalar_mul(FR_MODULUS).inf

    def test_group_laws(self, rng):
        g = G2Point.generator()
        a = g.scalar_mul(rng.randrange(1, 1 << 40))
        b = g.scalar_mul(rng.randrange(1, 1 << 40))
        assert a.add(b) == b.add(a)
        assert a.add(a.neg()).inf
        assert g.double() == g.add(g)

    def test_untwisted_point_on_e(self):
        """ψ(Q) satisfies y^2 = x^3 + 4 over Fp12."""
        from repro.curves.pairing import fp12_from_fp

        qx, qy = untwist(G2Point.generator())
        assert qy * qy == qx * qx * qx + fp12_from_fp(4)

    def test_untwist_infinity_rejected(self):
        with pytest.raises(ValueError):
            untwist(G2Point.infinity())


class TestPairing:
    @pytest.fixture(scope="class")
    def e_gg(self):
        return pairing(G1_GENERATOR, G2Point.generator())

    def test_nondegenerate(self, e_gg):
        assert not e_gg.is_one()

    def test_gt_has_order_r(self, e_gg):
        assert e_gg.pow(FR_MODULUS).is_one()

    def test_bilinear_left(self, e_gg):
        e2 = pairing(G1_GENERATOR.double(), G2Point.generator())
        assert e2 == e_gg.pow(2)

    def test_bilinear_right(self, e_gg):
        e2 = pairing(G1_GENERATOR, G2Point.generator().double())
        assert e2 == e_gg.pow(2)

    def test_bilinear_random_scalars(self, e_gg, rng):
        a = rng.randrange(2, 1 << 24)
        b = rng.randrange(2, 1 << 24)
        lhs = pairing(G1_GENERATOR.scalar_mul(a),
                      G2Point.generator().scalar_mul(b))
        assert lhs == e_gg.pow(a * b)

    def test_split_final_exponentiation_matches_the_full_power(self, rng):
        """The easy part (p^6 - 1)(p^2 + 1) and the hard part
        (p^4 - p^2 + 1)/r compose to the one power (p^12 - 1)/r."""
        from repro.fields.bls12_381 import FQ_MODULUS

        full = (FQ_MODULUS**12 - 1) // FR_MODULUS
        g2 = G2Point.generator()
        p = G1_GENERATOR.scalar_mul(rng.randrange(2, 1 << 24))
        for f in (miller_loop(G1_GENERATOR, g2), miller_loop(p, g2.double())):
            assert final_exponentiation(f) == f.pow(full)

    def test_infinity_pairs_to_one(self):
        from repro.curves import G1

        assert pairing(G1.infinity(), G2Point.generator()).is_one() if callable(getattr(G1, "infinity", None)) else True
        assert pairing(G1.infinity, G2Point.generator()).is_one()

    def test_multi_pairing_cancellation(self, e_gg):
        """e(P, Q) · e(-P, Q) == 1."""
        g2 = G2Point.generator()
        out = multi_pairing([(G1_GENERATOR, g2), (G1_GENERATOR.neg(), g2)])
        assert out.is_one()

    def test_off_curve_q_rejected(self):
        bad = G2Point(Fp2(1, 2), Fp2(3, 4))
        with pytest.raises(ValueError):
            pairing(G1_GENERATOR, bad)


class TestPublicKZGVerification:
    """The pairing-based PST check agrees with the trapdoor simulation."""

    @pytest.fixture(scope="class")
    def kzg(self):
        return MultilinearKZG(TrapdoorSRS(2, random.Random(5)))

    def test_honest_opening_pairing_verifies(self, kzg, rng):
        f = DenseMLE.random(Fr, 2, rng)
        point = [rng.randrange(Fr.modulus) for _ in range(2)]
        opening = kzg.open(f, point)
        commitment = kzg.commit(f)
        assert kzg.verify(commitment, opening)          # trapdoor path
        assert kzg.verify_pairing(commitment, opening)  # public path

    @pytest.fixture
    def g2_scalars(self, monkeypatch):
        """Every scalar a G2 point is multiplied by, in order."""
        scalars = []
        real = G2Point.scalar_mul

        def scalar_mul(point, k):
            scalars.append(k)
            return real(point, k)

        monkeypatch.setattr(G2Point, "scalar_mul", scalar_mul)
        return scalars

    def test_the_verifying_key_is_built_once_for_every_arity(self, rng,
                                                              g2_scalars):
        """Two arities, one key: max_vars G2 multiplications by a secret
        in all, and arity ν gets the suffix ``secrets_for(ν)`` binds."""
        srs = TrapdoorSRS(2, random.Random(5))
        kzg = MultilinearKZG(srs)
        for arity in (2, 1):
            f = DenseMLE.random(Fr, arity, rng)
            point = [rng.randrange(Fr.modulus) for _ in range(arity)]
            opening, commitment = kzg.open(f, point), kzg.commit(f)
            assert kzg.verify_pairing(commitment, opening)
            bad = Opening(opening.point, (opening.value + 1) % Fr.modulus,
                          opening.quotients)
            assert not kzg.verify_pairing(commitment, bad)
        assert [k for k in g2_scalars if k in srs.secret] == srs.secret
        h = G2Point.generator()
        for arity in range(3):
            assert srs.g2_elements(arity) == (
                h, [h.scalar_mul(s) for s in srs.secrets_for(arity)])
        with pytest.raises(ValueError):
            srs.g2_elements(3)

    def test_forged_value_pairing_rejected(self, kzg, rng):
        f = DenseMLE.random(Fr, 2, rng)
        point = [rng.randrange(Fr.modulus) for _ in range(2)]
        opening = kzg.open(f, point)
        bad = Opening(opening.point, (opening.value + 1) % Fr.modulus,
                      opening.quotients)
        assert not kzg.verify_pairing(kzg.commit(f), bad)

    def test_arity_mismatch(self, kzg, rng):
        f = DenseMLE.random(Fr, 2, rng)
        opening = kzg.open(f, [1, 2])
        from repro.hyperplonk.commitment import Commitment

        wrong = Commitment(kzg.commit(f).point, 1)
        assert not kzg.verify_pairing(wrong, opening)

    def test_malformed_openings_rejected_like_verify(self, kzg):
        """Same shape gate as ``verify``: a dropped quotient is not
        zipped away (here it is the point at infinity, so the pairing
        product alone would still hold), and points must be on the curve."""
        f = DenseMLE(Fr, [3, 8, 3, 8])  # constant in the last variable
        commitment, opening = kzg.commit(f), kzg.open(f, [5, 6])
        assert opening.quotients[1].inf
        assert kzg.verify_pairing(commitment, opening)
        short = Opening(opening.point, opening.value, opening.quotients[:1])
        assert not kzg.verify_pairing(commitment, short)
        q = opening.quotients[0]
        off = AffinePoint(G1, q.x, (q.y + 1) % G1.field.modulus)
        bad = Opening(opening.point, opening.value, (off, opening.quotients[1]))
        assert not kzg.verify_pairing(commitment, bad)
        assert not kzg.verify(commitment, bad)

    def test_blended_commitment_opening_agrees_with_verify(self, kzg):
        """The product tree's p1/p2 claims are openings of
        h = (1 - ρ_1)·φ + ρ_1·π, checked against the same combination of
        the two commitments in the proof.  That homomorphic combine is
        all a public verifier does beyond a plain opening check, and the
        pairing agrees with the trapdoor on it — both ways."""
        from repro.hyperplonk import VANILLA, HyperPlonkProver, preprocess
        from repro.hyperplonk.commitment import Commitment
        from repro.service.traffic import synthesize_circuit

        circuit = synthesize_circuit(VANILLA, 2, witness_seed=19)
        pidx, _ = preprocess(circuit, kzg)
        proof = HyperPlonkProver(circuit, pidx, kzg).prove()
        rho_first = proof.perm_zerocheck.challenges[0]
        blend = Commitment.combine(
            [1 - rho_first, rho_first],
            [proof.phi_commitment, proof.prod_commitment],
        )
        opening = proof.tree_openings["p1"]
        assert kzg.verify(blend, opening)
        assert kzg.verify_pairing(blend, opening)
        assert not kzg.verify(proof.prod_commitment, opening)
        assert not kzg.verify_pairing(proof.prod_commitment, opening)
