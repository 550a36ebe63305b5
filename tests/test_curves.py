"""Unit and property tests for repro.curves."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves import (
    G1,
    G1_GENERATOR,
    msm_naive,
    msm_pippenger,
)
from repro.curves.msm import optimal_window_bits
from repro.fields import FR_MODULUS


def rand_point(rng):
    return G1_GENERATOR.scalar_mul(rng.randrange(1, FR_MODULUS))


class TestGroupLaw:
    def test_generator_on_curve(self):
        assert G1.is_on_curve(G1_GENERATOR.x, G1_GENERATOR.y)

    def test_generator_has_order_r(self):
        assert G1_GENERATOR.scalar_mul(FR_MODULUS).inf

    def test_off_curve_rejected(self):
        with pytest.raises(ValueError):
            G1.affine(1, 1)

    def test_identity_laws(self):
        inf = G1.infinity
        g = G1_GENERATOR
        assert g.add(inf) == g
        assert inf.add(g) == g
        assert inf.add(inf) == inf

    def test_inverse_law(self):
        g = G1_GENERATOR
        assert g.add(g.neg()).inf

    def test_double_matches_add(self):
        g = G1_GENERATOR
        assert g.double() == g.add(g)

    def test_commutativity(self, rng):
        a, b = rand_point(rng), rand_point(rng)
        assert a.add(b) == b.add(a)

    def test_associativity(self, rng):
        a, b, c = (rand_point(rng) for _ in range(3))
        assert a.add(b).add(c) == a.add(b.add(c))

    def test_scalar_mul_distributes(self, rng):
        k1 = rng.randrange(1, 1 << 64)
        k2 = rng.randrange(1, 1 << 64)
        g = G1_GENERATOR
        assert g.scalar_mul(k1).add(g.scalar_mul(k2)) == g.scalar_mul(k1 + k2)

    def test_scalar_mul_small_cases(self):
        g = G1_GENERATOR
        assert g.scalar_mul(0).inf
        assert g.scalar_mul(1) == g
        assert g.scalar_mul(2) == g.double()
        assert g.scalar_mul(3) == g.double().add(g)

    def test_scalar_mul_mod_order(self):
        g = G1_GENERATOR
        k = 123456789
        assert g.scalar_mul(k + FR_MODULUS) == g.scalar_mul(k)

    def test_mixed_addition_matches_full(self, rng):
        a, b = rand_point(rng), rand_point(rng)
        full = a.to_jacobian().add(b.to_jacobian())
        mixed = a.to_jacobian().add_affine(b)
        assert full == mixed

    def test_mixed_addition_doubling_case(self):
        g = G1_GENERATOR
        assert g.to_jacobian().add_affine(g) == g.double().to_jacobian()

    def test_mixed_addition_inverse_case(self):
        g = G1_GENERATOR
        assert g.to_jacobian().add_affine(g.neg()).z == 0

    def test_jacobian_equality_cross_mul(self):
        g = G1_GENERATOR.to_jacobian()
        doubled = g.double()
        # same point, different Z
        affine_again = doubled.to_affine().to_jacobian()
        assert doubled == affine_again

    def test_jacobian_roundtrip(self, rng):
        a = rand_point(rng)
        assert a.to_jacobian().to_affine() == a


class TestMSM:
    def test_window_heuristic_monotone(self):
        sizes = [optimal_window_bits(1 << i) for i in range(2, 21, 3)]
        assert all(b >= 2 for b in sizes)
        assert sizes == sorted(sizes)

    def test_pippenger_matches_naive(self, rng):
        points = [rand_point(rng) for _ in range(8)]
        scalars = [rng.randrange(FR_MODULUS) for _ in range(8)]
        assert msm_pippenger(scalars, points) == msm_naive(scalars, points)

    def test_pippenger_various_windows(self, rng):
        points = [rand_point(rng) for _ in range(5)]
        scalars = [rng.randrange(FR_MODULUS) for _ in range(5)]
        expected = msm_naive(scalars, points)
        for c in (2, 4, 8, 13):
            assert msm_pippenger(scalars, points, window_bits=c) == expected

    def test_sparse_scalars(self, rng):
        """90% of scalars zero/one — the witness-MSM regime (§IV-B1)."""
        points = [rand_point(rng) for _ in range(10)]
        scalars = [0, 1, 0, 0, 1, 0, 0, rng.randrange(FR_MODULUS), 0, 1]
        assert msm_pippenger(scalars, points) == msm_naive(scalars, points)

    def test_all_zero_scalars(self, rng):
        points = [rand_point(rng) for _ in range(3)]
        assert msm_pippenger([0, 0, 0], points).inf

    def test_single_term(self, rng):
        pt = rand_point(rng)
        k = rng.randrange(FR_MODULUS)
        assert msm_pippenger([k], [pt]) == pt.scalar_mul(k)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            msm_pippenger([1, 2], [G1_GENERATOR])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            msm_pippenger([], [])

    def test_infinity_points_skipped(self, rng):
        pts = [G1.infinity, rand_point(rng)]
        ks = [5, 7]
        assert msm_pippenger(ks, pts) == pts[1].scalar_mul(7)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=10, deadline=None)
    def test_msm_is_linear_in_scalar(self, k):
        # k*G via MSM == scalar_mul
        assert msm_pippenger([k], [G1_GENERATOR]) == G1_GENERATOR.scalar_mul(k)
