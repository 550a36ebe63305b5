"""The G1 MSM kernel (GLV + wNAF-Straus / signed buckets) against the
independent double-and-add oracle ``msm_naive``.

Sizes straddle the Straus/bucket crossover; scalars sit on every
boundary the kernel has (group order, the GLV λ, the 128-bit half
length, wNAF carries); inputs include repeated bases, P with -P, points
at infinity and all-zero scalars, each of which reaches the equal-point
or inverse-point branch of the inlined group law somewhere.
"""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.curves.msm as msm_module
from repro.curves import (
    G1,
    G1_GENERATOR,
    FixedBaseTable,
    msm_fixed_base,
    msm_naive,
    msm_pippenger,
)
from repro.curves.bls12_381_g1 import G1_BETA, G1_LAMBDA, generator_table
from repro.curves.curve import ShortWeierstrassCurve, affine_add_all
from repro.curves.msm import STRAUS_MAX_TERMS, WNAF_WIDTH, _wnaf, msm_jacobian
from repro.fields import FR_MODULUS as R
from repro.fields.bls12_381 import FQ_MODULUS as Q

EDGE_SCALARS = [
    0, 1, 2, R - 1, R, R + 1,
    G1_LAMBDA - 1, G1_LAMBDA, G1_LAMBDA + 1,
    (1 << 128) - 1, 1 << 128,
    0xDEADBEEF, (1 << 64) - 1,
]
SIZES = [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 33, 64, 130]


@pytest.fixture(scope="module")
def points():
    rng = random.Random(0x6C7)
    table = generator_table()
    return [table.scalar_mul(rng.randrange(1, R)) for _ in range(max(SIZES))]


class TestEndomorphism:
    def test_lambda_is_a_cube_root_of_unity_mod_r(self):
        assert (G1_LAMBDA * G1_LAMBDA + G1_LAMBDA + 1) % R == 0
        # the split relies on the exact identity, not just the congruence
        assert G1_LAMBDA * G1_LAMBDA + G1_LAMBDA + 1 == R

    def test_beta_is_a_cube_root_of_unity_mod_q(self):
        assert pow(G1_BETA, 3, Q) == 1 and G1_BETA != 1

    def test_phi_of_generator_is_lambda_times_generator(self):
        g = G1_GENERATOR
        assert G1.endomorphism == (G1_BETA, G1_LAMBDA)
        assert G1.affine(G1_BETA * g.x % Q, g.y) == msm_naive([G1_LAMBDA], [g])


class TestDifferential:
    @pytest.mark.parametrize("n", SIZES)
    def test_sizes_across_the_crossover(self, points, n):
        rng = random.Random(n)
        scalars = [rng.randrange(R) for _ in range(n)]
        assert msm_pippenger(scalars, points[:n]) == msm_naive(scalars, points[:n])

    def test_crossover_is_inside_the_tested_sizes(self):
        terms = [2 * n for n in SIZES]
        assert min(terms) < STRAUS_MAX_TERMS < max(terms)

    @pytest.mark.parametrize("k", EDGE_SCALARS)
    def test_edge_scalar_single_term(self, points, k):
        expected = msm_naive([k], points[:1])
        assert msm_pippenger([k], points[:1]) == expected
        assert points[0].scalar_mul(k) == expected
        assert msm_pippenger([k], points[:1], window_bits=4) == expected

    def test_edge_scalars_in_one_msm(self, points):
        pts = points[:len(EDGE_SCALARS)]
        expected = msm_naive(EDGE_SCALARS, pts)
        assert msm_pippenger(EDGE_SCALARS, pts) == expected
        assert msm_pippenger(EDGE_SCALARS, pts, window_bits=5) == expected

    @pytest.mark.parametrize("window_bits", [None, 3])
    def test_duplicated_bases(self, points, window_bits):
        """Equal points meet in a bucket / the accumulator: doubling branch."""
        pts = [points[0]] * 4 + [points[1]] * 3
        scalars = [5, 5, 7, R - 3, 1, 1, 1]
        assert msm_pippenger(scalars, pts, window_bits) == msm_naive(scalars, pts)

    @pytest.mark.parametrize("window_bits", [None, 2, 4])
    def test_point_with_its_negative(self, points, window_bits):
        """P and -P under one scalar cancel: the inverse-point branch."""
        p, q = points[0], points[1]
        k = 0x1234567890ABCDEF1234567890ABCDEF
        assert msm_pippenger([k, k], [p, p.neg()], window_bits).inf
        scalars, pts = [k, k, 9], [p, p.neg(), q]
        assert msm_pippenger(scalars, pts, window_bits) == q.scalar_mul(9)
        assert msm_pippenger([3, 1], [p, p.neg()], window_bits) == p.double()

    @pytest.mark.parametrize("window_bits", [None, 4])
    def test_points_at_infinity(self, points, window_bits):
        pts = [G1.infinity, points[0], G1.infinity, points[1]]
        scalars = [7, 11, R - 1, 13]
        assert msm_pippenger(scalars, pts, window_bits) == msm_naive(scalars, pts)
        assert msm_pippenger([5, 6], [G1.infinity] * 2, window_bits).inf

    @pytest.mark.parametrize("window_bits", [None, 4])
    def test_all_zero_input(self, points, window_bits):
        assert msm_pippenger([0, R, 2 * R], points[:3], window_bits).inf

    @pytest.mark.parametrize("window_bits", [2, 4, 8, 13])
    @pytest.mark.parametrize("n", [1, 6, 33])
    def test_pinned_windows(self, points, n, window_bits):
        rng = random.Random(n * 100 + window_bits)
        scalars = [rng.randrange(R) for _ in range(n)]
        expected = msm_naive(scalars, points[:n])
        assert msm_pippenger(scalars, points[:n], window_bits=window_bits) == expected

    def test_both_paths_agree_on_either_side_of_the_constant(self, points, monkeypatch):
        rng = random.Random(99)
        scalars = [rng.randrange(R) for _ in range(12)]
        expected = msm_naive(scalars, points[:12])
        monkeypatch.setattr(msm_module, "STRAUS_MAX_TERMS", 0)  # auto-window buckets
        assert msm_pippenger(scalars, points[:12]) == expected
        monkeypatch.setattr(msm_module, "STRAUS_MAX_TERMS", 1 << 30)
        assert msm_pippenger(scalars, points[:12]) == expected

    def test_curve_without_endomorphism_runs_full_length_scalars(self, points):
        plain = ShortWeierstrassCurve(G1.field, G1.a, G1.b, G1.order, "G1, no GLV")
        pts = [plain.affine(pt.x, pt.y) for pt in points[:5]]
        scalars = [R - 1, 1 << 200, 3, G1_LAMBDA, 0]
        expected = msm_naive(scalars, points[:5])
        for window_bits in (None, 5):
            got = msm_pippenger(scalars, pts, window_bits)
            assert (got.x, got.y) == (expected.x, expected.y)

    def test_scalar_mul_of_unnormalised_jacobian_point(self, points):
        jac = points[0].to_jacobian().double().add_affine(points[1])
        assert jac.z != 1
        k = R - 12345
        assert jac.scalar_mul(k).to_affine() == jac.to_affine().scalar_mul(k)
        assert jac.scalar_mul(0).is_infinity


class TestWnaf:
    @pytest.mark.parametrize("k", [k for k in EDGE_SCALARS if k] + [0x5555 << 100])
    def test_digits_recompose_and_are_sparse(self, k):
        digits = _wnaf(k)
        assert sum(d << pos for pos, d in digits) == k
        assert all(d % 2 == 1 and abs(d) < 1 << (WNAF_WIDTH - 1) for _, d in digits)
        positions = [pos for pos, _ in digits]
        assert all(b - a >= WNAF_WIDTH for a, b in zip(positions, positions[1:]))


#: on the curve, of order 3: in the cofactor torsion, outside G1
TORSION = G1.affine(0, 2)


class TestUncheckedPoints:
    """φ is multiplication by λ only inside the order-r subgroup."""

    def test_torsion_point_is_outside_the_subgroup(self):
        assert TORSION.add(TORSION) == TORSION.neg()
        assert msm_naive([R], [TORSION]) == G1.infinity  # k is taken mod r
        assert msm_naive([R - 1], [TORSION]) != TORSION.neg()

    @pytest.mark.parametrize("window_bits", [None, 4])
    def test_kernel_without_the_split_matches_the_oracle(self, points, window_bits):
        pts = [TORSION, points[0].add(TORSION), points[1], TORSION.neg()]
        scalars = [R - 2, G1_LAMBDA + 5, 1 << 200, 7]
        expected = msm_naive(scalars, pts)
        got = msm_jacobian(G1, scalars, pts, window_bits, in_subgroup=False)
        assert got.to_affine() == expected
        # the precondition is real: the split changes the element here
        assert msm_pippenger(scalars, pts, window_bits) != expected


class TestCombTable:
    @pytest.mark.parametrize("window_bits", [1, 3, 8, 9])
    def test_every_width_matches_the_oracle(self, points, window_bits):
        table = FixedBaseTable(points[2], window_bits=window_bits)
        assert len(table.rows[0]) == (1 << window_bits) - 1
        for k in EDGE_SCALARS + [R - 0xABCDEF]:
            assert table.scalar_mul(k) == msm_naive([k], [points[2]])

    def test_short_scalar_table_skips_the_split(self, points):
        table = FixedBaseTable(points[3], window_bits=5, num_bits=70)
        assert table.columns == 14
        for k in (1, (1 << 70) - 1, 0x1234567890ABCDEF01):
            assert table.scalar_mul(k) == msm_naive([k], [points[3]])
        with pytest.raises(ValueError, match="only covers 70"):
            table.mul(1 << 70)

    def test_mixed_widths_share_one_doubling_chain(self, points):
        rng = random.Random(5)
        tables = [
            FixedBaseTable(pt, window_bits=w)
            for pt, w in zip(points[:4], (2, 8, 5, 8))
        ]
        tables.append(FixedBaseTable(G1.infinity))
        scalars = [rng.randrange(R) for _ in tables]
        expected = msm_naive(scalars[:4], points[:4])
        assert msm_fixed_base(scalars, tables) == expected

    def test_small_order_base_reaches_tangent_and_inverse_entries(self):
        """An explicit ``num_bits`` uses no endomorphism, so any curve
        point is a legal base; on one of order 3 the comb is made of
        P + P, P - P and infinity teeth."""
        table = FixedBaseTable(TORSION, window_bits=4, num_bits=12)
        assert None in table.rows[0]
        for k in range(40):
            assert table.scalar_mul(k) == msm_naive([k], [TORSION])

    def test_affine_add_all(self, points):
        a, b = points[0], points[1]
        entries = [None, (a.x, a.y), (b.x, b.y), (b.x, Q - b.y)]
        got = affine_add_all(G1.field, G1.a, entries, (b.x, b.y))
        want = [b, a.add(b), b.double(), G1.infinity]
        assert [G1.infinity if e is None else G1.affine(*e) for e in got] == want
        assert affine_add_all(G1.field, G1.a, entries, None) == entries


_POOL = st.integers(min_value=0, max_value=7)
_SCALAR = st.one_of(
    st.sampled_from(EDGE_SCALARS),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.integers(min_value=0, max_value=R - 1),
)


@settings(max_examples=40, deadline=None)
@given(
    terms=st.lists(st.tuples(_SCALAR, _POOL, st.booleans()), min_size=1, max_size=10),
    window_bits=st.sampled_from([None, None, 2, 3, 5, 7]),
)
def test_random_mixes_match_the_oracle(terms, window_bits):
    """Small pool, so repeated bases, P/-P pairs and infinity all occur."""
    table = generator_table()
    pool = [G1.infinity] + [table.scalar_mul(i + 2) for i in range(7)]
    scalars = [k for k, _, _ in terms]
    pts = [pool[i].neg() if negate else pool[i] for _, i, negate in terms]
    assert msm_pippenger(scalars, pts, window_bits) == msm_naive(scalars, pts)


def test_importing_curves_builds_no_table():
    """No group arithmetic at import: the generator table is lazy."""
    script = (
        "import repro, repro.curves, repro.hyperplonk\n"
        "from repro.curves.bls12_381_g1 import generator_table\n"
        "assert generator_table.cache_info().currsize == 0\n"
        "generator_table()\n"
        "assert generator_table.cache_info().currsize == 1\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    subprocess.run(
        [sys.executable, "-c", script], check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
