"""The G1 MSM kernel (GLV + wNAF-Straus / signed buckets) against the
independent double-and-add oracle ``msm_naive``.

Sizes straddle the Straus/bucket crossover; scalars sit on every
boundary the kernel has (group order, the GLV λ, the 128-bit half
length, wNAF carries); inputs include repeated bases, P with -P, points
at infinity and all-zero scalars, each of which reaches the equal-point
or inverse-point branch of the inlined group law somewhere.  The
batch-affine primitive ``affine_sum_rows`` is tested on its own (tangent,
cancelling and empty rows), through equal-scalar classes, on a toy curve
with a ≠ 0 and under a three-point pool that collides in every round.
``ResidentBases`` (the SRS's odd-multiple tables) is tested through the
same oracle: mixed with merged classes, at the term bounds, on small-order
bases, from two threads and through pickle.
"""

import functools
import os
import pickle
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
from repro.curves.curve import ShortWeierstrassCurve, affine_sum_rows
from repro.curves.msm import (
    RESIDENT_STRAUS_MAX_TERMS,
    RESIDENT_WIDTH,
    STRAUS_MAX_TERMS,
    WNAF_WIDTH,
    ResidentBases,
    _place_wnaf,
    msm_jacobian,
)
from repro.fields import FR_MODULUS as R
from repro.fields import Fr, PrimeField
from repro.fields.bls12_381 import FQ_MODULUS as Q
from repro.hyperplonk import (
    JELLYFISH,
    HyperPlonkProver,
    HyperPlonkVerifier,
    MultilinearKZG,
    TrapdoorSRS,
    preprocess,
)
from repro.service.traffic import synthesize_circuit

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
        """... for plain points; ``TestResidentBases`` brackets the
        bound of resident-table terms."""
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
        assert jac.scalar_mul(0).z == 0


def _wnaf(k: int, width: int) -> list[tuple[int, int]]:
    """The digits ``_place_wnaf`` recodes ``k`` into, as (position,
    digit), read back off a schedule it fills from a table whose entry
    for |d| is (|d|, 1, -|d|): x names the digit, y = 1 or -1 its sign."""
    modulus = 1 << 20
    table = [(2 * j + 1, 1, -(2 * j + 1)) for j in range(1 << (width - 2))]
    schedule = [[] for _ in range(k.bit_length() + 1)]
    _place_wnaf(schedule, k, table, width, 0, modulus)
    return [(pos, x if y == 1 else -x)
            for pos, row in enumerate(schedule) for x, y in row]


class TestWnaf:
    """The recoding folded into ``_place_wnaf``."""

    @pytest.mark.parametrize("width", [3, WNAF_WIDTH, RESIDENT_WIDTH])
    @pytest.mark.parametrize("k", [k for k in EDGE_SCALARS if k] + [0x5555 << 100])
    def test_digits_recompose_and_are_sparse(self, k, width):
        digits = _wnaf(k, width)
        assert sum(d << pos for pos, d in digits) == k
        assert all(d % 2 == 1 and abs(d) < 1 << (width - 1) for _, d in digits)
        positions = [pos for pos, _ in digits]
        assert all(b - a >= width for a, b in zip(positions, positions[1:]))

    @pytest.mark.parametrize("width", [WNAF_WIDTH, RESIDENT_WIDTH])
    def test_a_run_of_ones_carries_one_position_past_the_top(self, width):
        """The schedule's last row: position = bit length."""
        k = (1 << 127) - 1
        assert _wnaf(k, width) == [(0, -1), (127, 1)]

    def test_coord_picks_the_x_a_digit_places(self):
        table = [(2 * j + 1, 1, -(2 * j + 1)) for j in range(4)]
        schedule = [[] for _ in range(12)]
        _place_wnaf(schedule, 0b101_0000_0011, table, 4, 2, 1 << 20)
        assert [row for row in schedule if row] == [[(-3, 1)], [(-5, 1)]]
        assert [pos for pos, row in enumerate(schedule) if row] == [0, 8]

    def test_infinity_entries_place_nothing(self):
        """35 = 3 + 1·2^5: the digit 3 places, the digit 1 reads ∞."""
        schedule = [[] for _ in range(7)]
        _place_wnaf(schedule, 35, [None, (3, 1, 3)], 3, 0, 1 << 20)
        assert schedule == [[(3, 1)], [], [], [], [], [], []]


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
        """A curve without an endomorphism gets no split, so any curve
        point is a legal base; on one of order 3 the comb is made of
        P + P and P - P entries."""
        plain = ShortWeierstrassCurve(G1.field, G1.a, G1.b, G1.order, "G1, no GLV")
        torsion = plain.affine(TORSION.x, TORSION.y)
        table = FixedBaseTable(torsion, window_bits=4)
        assert None in table.rows[0]
        for k in range(40):
            assert table.scalar_mul(k) == msm_naive([k], [torsion])


def _row_sum(curve, row):
    """The oracle for one row of affine pairs: unit scalars through
    ``msm_naive`` (infinity for the empty row)."""
    if not row:
        return curve.infinity
    return msm_naive([1] * len(row), [curve.affine(*e) for e in row])


def _as_point(curve, row):
    assert len(row) <= 1
    return curve.affine(*row[0]) if row else curve.infinity


class TestAffineSumRows:
    def test_special_pairs_and_row_lengths(self, points):
        a, b, c = [(pt.x, pt.y) for pt in points[:3]]
        neg_b = (b[0], Q - b[1])
        rows = [
            [],                      # infinity
            [a],                     # length 1: untouched
            [a, b],                  # chord
            [b, b],                  # the same point twice: tangent
            [b, neg_b],              # P and -P cancel
            [a, b, c],               # odd length: the last entry is carried
            [b, b, b, neg_b, a],     # tangent and chord in one row
            [a, neg_b, b, (a[0], Q - a[1])],  # cancels only in round two
            [c] * 7,
        ]
        expected = [_row_sum(G1, row) for row in rows]
        assert expected[4].inf and expected[7].inf
        affine_sum_rows(G1.field, G1.a, rows, min_pairs=1)
        assert [_as_point(G1, row) for row in rows] == expected

    def test_short_rounds_are_left_to_the_caller(self, points):
        """Below ``min_pairs`` additions a round is not worth its
        inversion: rows keep several entries, sums unchanged."""
        pairs = [(pt.x, pt.y) for pt in points[:24]]
        rows = [pairs[:16], pairs[16:19], pairs[19:24]]
        expected = [_row_sum(G1, row) for row in rows]
        affine_sum_rows(G1.field, G1.a, rows, min_pairs=7)
        # 8 + 1 + 2 pairs, then 4 + 1 + 1: the second round is skipped
        assert [len(row) for row in rows] == [8, 2, 3]
        assert [_row_sum(G1, row) for row in rows] == expected
        untouched = [pairs[:4], pairs[4:6]]
        affine_sum_rows(G1.field, G1.a, untouched)  # 3 pairs < the default
        assert untouched == [pairs[:4], pairs[4:6]]

    def test_comb_entries_are_the_subset_sums(self, points):
        """What ``FixedBaseTable._comb`` asks of it: entry + tooth for
        entries that are infinity, the tooth itself, or its inverse."""
        a, b = points[0], points[1]
        rows = [[(b.x, b.y)], [(a.x, a.y), (b.x, b.y)],
                [(b.x, b.y), (b.x, b.y)], [(b.x, Q - b.y), (b.x, b.y)]]
        affine_sum_rows(G1.field, G1.a, rows, min_pairs=1)
        want = [b, a.add(b), b.double(), G1.infinity]
        assert [_as_point(G1, row) for row in rows] == want


@pytest.fixture(scope="module")
def toy():
    """y² = x³ + 2x + 3 over F_1009: a ≠ 0, composite order, a point of
    order 2 (y = 0), and so few points that every special case of the
    group law turns up."""
    field = PrimeField(1009, "F1009")
    roots: dict[int, list[int]] = {}
    for y in range(1009):
        roots.setdefault(y * y % 1009, []).append(y)
    on_curve = [
        (x, y) for x in range(1009)
        for y in roots.get((x * x * x + 2 * x + 3) % 1009, ())
    ]
    curve = ShortWeierstrassCurve(field, 2, 3, len(on_curve) + 1, "toy")
    return curve, [curve.affine(x, y) for x, y in on_curve]


class TestToyCurve:
    def test_has_two_torsion_and_a_is_nonzero(self, toy):
        curve, pts = toy
        assert curve.a == 2 and any(pt.y == 0 for pt in pts)
        assert all(msm_naive([curve.order], [pt]).inf for pt in pts[:20])

    @pytest.mark.parametrize("window_bits", [None, 2, 3])
    def test_kernel_matches_the_oracle(self, toy, window_bits):
        curve, pts = toy
        rng = random.Random(window_bits or 0)
        two_torsion = next(pt for pt in pts if pt.y == 0)
        for n in (1, 2, 5, 40):
            chosen = [rng.choice(pts) for _ in range(n - 1)] + [two_torsion]
            scalars = [rng.randrange(3 * curve.order) for _ in chosen]
            got = msm_jacobian(curve, scalars, chosen, window_bits)
            assert got.to_affine() == msm_naive(scalars, chosen)

    def test_rows_with_tangents_on_a_curve_with_a(self, toy):
        curve, pts = toy
        rng = random.Random(7)
        rows = [[(pt.x, pt.y) for pt in rng.choices(pts[:6], k=k)]
                for k in (0, 1, 2, 3, 8, 13)]
        rows.append([(pt.x, pt.y) for pt in pts if pt.y == 0] * 2)
        expected = [_row_sum(curve, row) for row in rows]
        affine_sum_rows(curve.field, curve.a, rows, min_pairs=1)
        assert [_as_point(curve, row) for row in rows] == expected

    def test_comb_table(self, toy):
        curve, pts = toy
        for base in pts[:3]:
            table = FixedBaseTable(base, window_bits=3)
            for k in (0, 1, 2, curve.order - 1, curve.order + 5, 777):
                assert table.scalar_mul(k) == msm_naive([k], [base])


class TestEqualScalarClasses:
    """Points under one scalar are summed before anything else runs."""

    @pytest.mark.parametrize("window_bits", [None, 3])
    def test_sparse_column(self, points, window_bits):
        """Two distinct values over 43 live points, like a selector."""
        rng = random.Random(43)
        scalars = [rng.choice([0, 1, 1, R - 5]) for _ in range(64)]
        assert len(set(scalars)) == 3
        got = msm_pippenger(scalars, points[:64], window_bits)
        assert got == msm_naive(scalars, points[:64])

    @pytest.mark.parametrize("window_bits", [None, 4])
    @pytest.mark.parametrize("k", [1, 2, G1_LAMBDA, R - 1])
    def test_one_distinct_scalar(self, points, k, window_bits):
        pts = points[:9]
        assert msm_pippenger([k] * 9, pts, window_bits) == msm_naive([k] * 9, pts)
        assert msm_pippenger([k + R] * 2 + [k], pts[:3], window_bits) == (
            msm_naive([k] * 3, pts[:3]))

    @pytest.mark.parametrize("window_bits", [None, 4])
    def test_class_sums_of_infinity_and_single_points(self, points, window_bits):
        p0, p1, p2 = points[:3]
        k, j = 0xABCDEF << 100, 12345
        # class k sums to infinity, class j to one point (2·p2), class 1 to p1
        pts = [p0, p0.neg(), p2, p2, p1, p0, p0.neg()]
        scalars = [k, k, j, j, 1, 1, 1]
        expected = msm_naive([2 * j, 1], [p2, p1])
        assert msm_pippenger(scalars, pts, window_bits) == expected
        assert msm_pippenger(scalars[:2], pts[:2], window_bits).inf
        # ... and every class at once
        assert msm_pippenger([k, k, 1, 1], [p0, p0.neg(), p1, p1.neg()],
                             window_bits).inf

    @pytest.mark.parametrize("window_bits", [None, 4])
    def test_unchecked_points_share_a_scalar(self, points, window_bits):
        """The order-3 point's odd multiples include infinity (3P), and a
        class may sum into or out of the cofactor torsion."""
        pts = [TORSION, points[0], TORSION, TORSION.neg(), points[0].add(TORSION)]
        for scalars in ([7, 7, 7, 5, 5], [3, 3, 5, 7, R - 1], [R - 2] * 5):
            got = msm_jacobian(G1, scalars, pts, window_bits, in_subgroup=False)
            assert got.to_affine() == msm_naive(scalars, pts)


@pytest.fixture
def paths(monkeypatch):
    """Which path each MSM took, and the width of every table build."""
    seen = {"straus": 0, "buckets": 0, "builds": []}
    real = {name: getattr(msm_module, name)
            for name in ("_straus", "_signed_buckets", "_odd_multiples")}

    def straus(*args):
        seen["straus"] += 1
        return real["_straus"](*args)

    def buckets(*args):
        seen["buckets"] += 1
        return real["_signed_buckets"](*args)

    def odd_multiples(field, a, pts, width):
        if pts:
            seen["builds"].append(width)
        return real["_odd_multiples"](field, a, pts, width)

    monkeypatch.setattr(msm_module, "_straus", straus)
    monkeypatch.setattr(msm_module, "_signed_buckets", buckets)
    monkeypatch.setattr(msm_module, "_odd_multiples", odd_multiples)
    return seen


def _order(pt):
    return next(n for n in range(1, pt.curve.order + 1)
                if msm_naive([n], [pt]).inf)


#: scalars whose GLV k₂ half is nonzero (its top wNAF digit on the
#: schedule's last row for the last), and their neighbours
PHI_SCALARS = [
    G1_LAMBDA - 1, G1_LAMBDA, G1_LAMBDA + 1, (1 << 128) - 1, R - 1,
    ((1 << 127) - 1) * G1_LAMBDA, ((1 << 127) - 1) * (G1_LAMBDA + 1),
]


@pytest.fixture
def coords(monkeypatch):
    """The ``coord`` of every ``_place_wnaf`` call: 2 reads β·x."""
    seen = []
    real = msm_module._place_wnaf

    def place(schedule, k, table, width, coord, p):
        if k:
            seen.append(coord)
        return real(schedule, k, table, width, coord, p)

    monkeypatch.setattr(msm_module, "_place_wnaf", place)
    return seen


class TestPhiEntries:
    """Resident and comb entries carry φ's x-coordinate β·x, which the
    k₂ half of a GLV split reads instead of multiplying per digit."""

    def test_resident_k2_halves_read_phi_x(self, points, coords):
        bases = ResidentBases(points[:3])
        for k in PHI_SCALARS:
            scalars = [k, R - k, k ^ 0xF0F0]
            assert msm_pippenger(scalars, bases) == msm_naive(scalars, bases)
        assert 2 in coords and 0 in coords

    def test_unchecked_points_over_srs_bases_never_read_phi_x(self, coords):
        srs = TrapdoorSRS(2, random.Random(0xB7))
        bases = srs.bases(2)
        for k in PHI_SCALARS:
            scalars = [k, k + 3, R - k, 5]
            got = msm_jacobian(G1, scalars, bases, in_subgroup=False)
            assert got.to_affine() == msm_naive(scalars, bases)
        assert bases._tables is not None and set(coords) == {0}

    def test_curve_without_endomorphism_carries_x_itself(self, points, coords):
        plain = ShortWeierstrassCurve(G1.field, G1.a, G1.b, G1.order, "G1, no GLV")
        bases = ResidentBases(plain.affine(pt.x, pt.y) for pt in points[:2])
        scalars = PHI_SCALARS[-2:]
        got = msm_pippenger(scalars, bases)
        expected = msm_naive(scalars, points[:2])
        assert (got.x, got.y) == (expected.x, expected.y)
        assert all(e[2] == e[0] for row in bases.odd_multiples() for e in row)
        assert set(coords) == {0}

    @pytest.mark.parametrize("window_bits", [1, 3, 8, 9])
    def test_comb_entries_and_k2_halves(self, points, window_bits):
        table = FixedBaseTable(points[3], window_bits=window_bits)
        for x, y, bx in table.rows[0][:2] + table.rows[0][-1:]:
            entry = G1.affine(x, y)
            assert G1.affine(bx, y) == msm_naive([G1_LAMBDA], [entry])
        for k in PHI_SCALARS:
            assert table.scalar_mul(k) == msm_naive([k], [points[3]])

    def test_generator_comb_k2_halves(self):
        comb = generator_table()
        for k in PHI_SCALARS:
            assert comb.scalar_mul(k) == msm_naive([k], [G1_GENERATOR])

    def test_comb_needs_fewer_window_bits_than_columns(self, points):
        with pytest.raises(ValueError, match="below the 11 columns"):
            FixedBaseTable(points[0], window_bits=12)


class TestResidentBases:
    """The odd-multiple tables an SRS arity keeps between MSMs."""

    def test_resident_merged_and_repeated_terms_in_one_msm(self, points, paths):
        """points[0] sits at two indices under two scalars (two resident
        terms off equal tables), four bases share a scalar (one merged
        class, width-4 table built in the call), two are dropped."""
        bases = ResidentBases(points[:6] + [points[0], G1.infinity])
        rng = random.Random(18)
        j = rng.randrange(R)
        scalars = [rng.randrange(R), j, j, 0, j, j, rng.randrange(R), 5]
        expected = msm_naive(scalars, bases)
        assert msm_pippenger(scalars, bases) == expected
        assert paths["builds"] == [RESIDENT_WIDTH, WNAF_WIDTH]
        table = bases.odd_multiples()
        assert len(table) == 8 and table[0] == table[6]
        assert len(table[0]) == 1 << (RESIDENT_WIDTH - 2)
        assert table[7] == [None] * len(table[0])
        # warm: the resident build is not repeated, the merged class's is
        assert msm_pippenger(scalars, bases) == expected
        assert paths["builds"] == [RESIDENT_WIDTH, WNAF_WIDTH, WNAF_WIDTH]
        # a pinned window reads no table and gives the same element
        assert msm_pippenger(scalars, bases, window_bits=4) == expected
        assert paths["straus"] == 2 and paths["buckets"] == 1

    @pytest.mark.parametrize("k", [
        1, 2, R - 1, R - 2, G1_LAMBDA - 1, G1_LAMBDA, G1_LAMBDA + 1,
        (1 << 127) - 1,                     # top digit on the schedule's last row
        ((1 << 127) - 1) * (G1_LAMBDA + 1),  # ... in both GLV halves
        63, 65, 1 << 126,
    ])
    def test_edge_scalars_read_the_tables(self, points, k):
        bases = ResidentBases(points[:3])
        for scalars in ([k, 0, 0], [k, k + 1, R - k]):
            assert msm_pippenger(scalars, bases) == msm_naive(scalars, bases)
        assert bases._tables is not None

    def test_table_entries_are_the_odd_multiples(self, points):
        """(x, y) is (2i+1)·B and (β·x, y) is φ of it, λ·(2i+1)·B."""
        bases = ResidentBases(points[:2])
        for pt, row in zip(bases, bases.odd_multiples()):
            assert [G1.affine(x, y) for x, y, _ in row] == [
                msm_naive([2 * i + 1], [pt]) for i in range(len(row))]
            assert [G1.affine(bx, y) for _, y, bx in row] == [
                msm_naive([G1_LAMBDA * (2 * i + 1)], [pt])
                for i in range(len(row))]

    def test_small_order_bases_on_the_toy_curve(self, toy):
        """No endomorphism, a ≠ 0, and bases whose odd multiples are
        infinity (order 3), all equal (order 2: 2P is infinity) or a
        2-torsion point with y = 0 (order 6)."""
        curve, pts = toy
        by_order: dict[int, object] = {}
        for pt in pts:
            by_order.setdefault(_order(pt), pt)
        small = [by_order[n] for n in (2, 3, 6) if n in by_order]
        assert any(pt.y == 0 for pt in small) and len(small) >= 2
        bases = ResidentBases(small + pts[:5] + [curve.infinity])
        tables = bases.odd_multiples()
        assert any(None in row for row in tables[:len(small)])
        rng = random.Random(6)
        for _ in range(12):
            scalars = [rng.randrange(3 * curve.order) for _ in bases]
            got = msm_jacobian(curve, scalars, bases)
            assert got.to_affine() == msm_naive(scalars, bases)

    def test_curve_without_endomorphism(self, points):
        plain = ShortWeierstrassCurve(G1.field, G1.a, G1.b, G1.order, "G1, no GLV")
        bases = ResidentBases(plain.affine(pt.x, pt.y) for pt in points[:4])
        scalars = [R - 1, (1 << 255) % R, 3, G1_LAMBDA]
        expected = msm_naive(scalars, points[:4])
        got = msm_pippenger(scalars, bases)
        assert (got.x, got.y) == (expected.x, expected.y)
        assert bases._tables is not None

    def test_unchecked_points_over_srs_bases(self):
        """``in_subgroup=False`` skips the split, not the tables."""
        srs = TrapdoorSRS(3, random.Random(0x5B))
        bases = srs.bases(3)
        assert isinstance(bases, ResidentBases) and srs.bases(3) is bases
        rng = random.Random(4)
        scalars = [rng.randrange(R) for _ in bases]
        expected = msm_naive(scalars, bases)
        got = msm_jacobian(G1, scalars, bases, in_subgroup=False)
        assert got.to_affine() == expected
        assert bases._tables is not None
        assert msm_pippenger(scalars, bases) == expected

    def test_unchecked_torsion_points_with_tables(self, points):
        """3·TORSION is infinity: its table is P, ∞, -P, P, ∞, …"""
        bases = ResidentBases([TORSION, points[0].add(TORSION), TORSION.neg()])
        assert None in bases.odd_multiples()[0]
        for scalars in ([R - 2, G1_LAMBDA + 5, 7], [3, 1 << 200, 9]):
            got = msm_jacobian(G1, scalars, bases, in_subgroup=False)
            assert got.to_affine() == msm_naive(scalars, bases)

    def test_term_bounds_bracketed_on_both_sides(self, points, paths, monkeypatch):
        """Straus while fresh/STRAUS_MAX_TERMS + resident/RESIDENT_… ≤ 1:
        each kind of term against its own bound, and a mix against both."""
        monkeypatch.setattr(msm_module, "STRAUS_MAX_TERMS", 8)
        monkeypatch.setattr(msm_module, "RESIDENT_STRAUS_MAX_TERMS", 24)
        rng = random.Random(24)
        dense = [rng.randrange(1 << 200, R) for _ in range(13)]
        shared = rng.randrange(1 << 200, R)

        def run(scalars, pts):
            before = paths["straus"], paths["buckets"]
            assert msm_pippenger(scalars, pts) == msm_naive(scalars, pts)
            return (paths["straus"] - before[0], paths["buckets"] - before[1])

        # resident terms only: 24 stay, 26 go
        assert run(dense[:12], ResidentBases(points[:12])) == (1, 0)
        assert run(dense[:13], ResidentBases(points[:13])) == (0, 1)
        # plain points: 8 stay, 10 go
        assert run(dense[:4], points[:4]) == (1, 0)
        assert run(dense[:5], points[:5]) == (0, 1)
        # 4 fresh (two merged classes) + 12 resident: 4/8 + 12/24 = 1
        mixed = [shared, shared, shared + 1, shared + 1] + dense[:6]
        assert run(mixed, ResidentBases(points[:10])) == (1, 0)
        assert run(mixed + dense[6:7], ResidentBases(points[:11])) == (0, 1)

    def test_a_list_too_long_for_straus_never_gets_tables(self, paths):
        """What bounds the tables' memory: past RESIDENT_STRAUS_MAX_TERMS
        / 2 bases a dense MSM runs buckets, so even a sparse one (Straus
        by its term count) builds its few tables in the call."""
        table = generator_table()
        few = [table.scalar_mul(i + 2) for i in range(3)]
        limit = RESIDENT_STRAUS_MAX_TERMS // 2
        scalars = [0] * (limit - 3) + [R - 1, 12345, 1 << 127]
        longest = ResidentBases([G1_GENERATOR] * (limit - 3) + few)
        assert msm_pippenger(scalars, longest) == msm_naive(scalars, longest)
        assert paths["builds"] == [RESIDENT_WIDTH]
        too_long = ResidentBases([G1_GENERATOR] * (limit - 2) + few)
        assert msm_pippenger([0] + scalars, too_long) == msm_naive(scalars, longest)
        assert paths["builds"] == [RESIDENT_WIDTH, WNAF_WIDTH]
        assert too_long._tables is None and paths["buckets"] == 0

    def test_shipped_bounds_order(self):
        assert RESIDENT_WIDTH > WNAF_WIDTH >= 3
        assert RESIDENT_STRAUS_MAX_TERMS > STRAUS_MAX_TERMS

    def test_pickle_carries_the_points_only(self):
        srs = TrapdoorSRS(3, random.Random(9))
        for arity in range(4):
            srs.bases(arity)
        cold = pickle.dumps(srs)
        scalars = list(range(1, 9))
        expected = msm_pippenger(scalars, srs.bases(3))
        assert srs.bases(3)._tables is not None
        assert len(pickle.dumps(srs)) == len(cold)
        copy = pickle.loads(pickle.dumps(srs))
        assert isinstance(copy.bases(3), ResidentBases)
        assert copy.bases(3) == srs.bases(3) and copy.bases(3)._tables is None
        assert msm_pippenger(scalars, copy.bases(3)) == expected
        # a slice or a copy is a plain list: no tables to go stale
        assert type(srs.bases(3)[:4]) is list and type(list(srs.bases(3))) is list


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


@functools.cache
def _collision_pool():
    """A, 3A, 5A: few points, and each an odd multiple in A's table."""
    a = generator_table().scalar_mul(0xA11CE)
    pool = [a, a.scalar_mul(3), a.scalar_mul(5)]
    return pool, {pt: FixedBaseTable(pt) for pt in pool + [p.neg() for p in pool]}


@settings(max_examples=30, deadline=None)
@given(
    terms=st.lists(
        st.tuples(_SCALAR, st.integers(min_value=0, max_value=2), st.booleans()),
        min_size=1, max_size=48,
    ),
    window_bits=st.sampled_from([None, 2, 4]),
)
def test_three_point_pool_collides_in_every_round(terms, window_bits):
    """Equal points and inverse pairs meet in the classes, in the Straus
    rows, in the buckets and in the comb columns alike."""
    pool, tables = _collision_pool()
    scalars = [k for k, _, _ in terms]
    pts = [pool[i].neg() if negate else pool[i] for _, i, negate in terms]
    expected = msm_naive(scalars, pts)
    assert msm_pippenger(scalars, pts, window_bits) == expected
    assert msm_fixed_base(scalars, [tables[pt] for pt in pts]) == expected
    unchecked = msm_jacobian(G1, scalars, pts, window_bits, in_subgroup=False)
    assert unchecked.to_affine() == expected


#: two coordinates of the proof below.  Re-pinned when the product tree became
#: virtual (PR 19): the proof format changed (π is committed instead of
#: the (μ+1)-variable tree, and the root is opened on π), the SRS draws
#: its secrets last variable first, and the circuit grew from μ=4 to μ=5
#: so that a proof still mixes comb and resident-table commits now that
#: its largest arity is μ.  Re-pinned again when the transcript began to
#: absorb the index commitments (every challenge moved) and the tree took
#: its first-variable-first layout; the quotient is now π's last at ρ_p
#: (the root opening's last is 1 - root = 0, the point at infinity).
#: Across kernels they must not move.
PINNED_PHI_X = (
    "0xd44a0b27bedf72be3f4e4c8cd6ff1b24496bbade85298ce8"
    "d3e2c40a2fac2567047576dbf318717ae6d66c3d7f00980"
)
PINNED_QUOTIENT_X = (
    "0xbbfdb2d6b7874881a08bbaa38b9f63c470f9f334bea55e19"
    "1d5dcd18052d4a9db6d11bef868b6d2df673bc5fe09fc5b"
)


def test_jellyfish_proof_is_the_same_with_and_without_tables():
    """End to end: every MSM of a proof returns the same group element
    whichever path computed it, so the proofs are equal field for field
    (and equal to what the kernel produced when the pins were taken)."""
    circuit = synthesize_circuit(JELLYFISH, 5, witness_seed=13)
    proofs = []
    for fixed_base in (False, True):
        srs = TrapdoorSRS(5, random.Random(0xE2E))
        kzg = MultilinearKZG(srs, fixed_base=fixed_base)
        pidx, vidx = preprocess(circuit, kzg)
        proofs.append(HyperPlonkProver(circuit, pidx, kzg).prove())
        HyperPlonkVerifier(Fr, vidx, kzg).verify(proofs[-1])
        # the commits went through the resident tables, except where the
        # comb (arity ≤ 4 with ``fixed_base``) took them; the SRS stops at
        # μ, so nothing was committed above it
        built = {nu for nu in range(6) if srs.bases(nu)._tables is not None}
        assert built == ({5} if fixed_base else {1, 2, 3, 4, 5})
    assert proofs[0] == proofs[1]
    assert hex(proofs[0].phi_commitment.point.x) == PINNED_PHI_X
    last_quotient = proofs[0].tree_openings["pi"].quotients[-1]
    assert hex(last_quotient.x) == PINNED_QUOTIENT_X
