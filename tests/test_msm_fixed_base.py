"""Fixed-base MSM path: bit-equality with Pippenger and scalar_mul.

The serving layer enables precomputed fixed-base tables on its shared
KZG (repro.curves.msm.FixedBaseTable); every result must be the exact
group element — hence identical affine coordinates — that the existing
Pippenger/double-and-add paths produce.
"""

import random

import pytest

from repro.curves import (
    G1,
    G1_GENERATOR,
    FixedBaseTable,
    ShortWeierstrassCurve,
    batch_normalize,
    msm_fixed_base,
    msm_naive,
    msm_pippenger,
)
from repro.fields import Fr
from repro.hyperplonk import MultilinearKZG, TrapdoorSRS
from repro.hyperplonk.commitment import FIXED_BASE_MAX_VARS
from repro.mle import DenseMLE

R = Fr.modulus


@pytest.fixture(scope="module")
def points():
    rng = random.Random(0xF1BA5E)
    return [G1_GENERATOR.scalar_mul(rng.randrange(1, R)) for _ in range(4)]


@pytest.fixture(scope="module")
def tables(points):
    return [FixedBaseTable(pt) for pt in points]


class TestFixedBaseTable:
    def test_matches_scalar_mul(self, points, tables):
        rng = random.Random(7)
        for _ in range(5):
            k = rng.randrange(R)
            assert tables[0].scalar_mul(k) == points[0].scalar_mul(k)

    @pytest.mark.parametrize("k", [0, 1, 2, 15, 16, 17, 1 << 64, R - 1, R,
                                   R + 5])
    def test_edge_scalars(self, points, tables, k):
        """Zero digits, single digits, and order wraparound."""
        assert tables[1].scalar_mul(k) == points[1].scalar_mul(k)

    def test_infinity_base(self):
        table = FixedBaseTable(G1.infinity)
        assert table.scalar_mul(12345) == G1.infinity

    def test_columns_cover_one_glv_half(self):
        """With the endomorphism a comb covers a 128-bit half; a curve
        without one gets no split and twice the columns."""
        assert FixedBaseTable(G1_GENERATOR).columns == 16
        plain = ShortWeierstrassCurve(G1.field, G1.a, G1.b, G1.order, "no GLV")
        base = plain.affine(G1_GENERATOR.x, G1_GENERATOR.y)
        table = FixedBaseTable(base)
        assert table.columns == 32
        for k in (1, R - 1, 0xDEADBEEF << 200):
            assert table.scalar_mul(k) == base.scalar_mul(k)

    def test_generator_table(self):
        table = FixedBaseTable(G1_GENERATOR)
        for k in (3, 0xDEADBEEF, R - 2):
            assert table.scalar_mul(k) == G1_GENERATOR.scalar_mul(k)


class TestFixedBaseMSM:
    def test_matches_pippenger_and_naive(self, points, tables):
        rng = random.Random(42)
        for _ in range(3):
            scalars = [rng.randrange(R) for _ in points]
            expected = msm_pippenger(scalars, points)
            assert msm_fixed_base(scalars, tables) == expected
            assert msm_naive(scalars, points) == expected

    def test_zero_scalars(self, points, tables):
        assert msm_fixed_base([0] * len(points), tables) == G1.infinity

    def test_length_mismatch(self, tables):
        with pytest.raises(ValueError):
            msm_fixed_base([1], tables)

    def test_empty(self):
        with pytest.raises(ValueError):
            msm_fixed_base([], [])


class TestBatchNormalize:
    def test_matches_to_affine(self, points):
        rng = random.Random(3)
        jacs = [pt.to_jacobian().scalar_mul(rng.randrange(1, R))
                for pt in points]
        jacs.insert(1, G1.jacobian_infinity)  # infinity passes through
        normalized = batch_normalize(jacs)
        assert normalized == [j.to_affine() for j in jacs]

    def test_empty(self):
        assert batch_normalize([]) == []


class TestFixedBaseKZG:
    """A fixed-base KZG must emit byte-identical commitments/openings."""

    def test_commit_open_verify_identical(self):
        rng = random.Random(0xC0DE)
        srs_plain = TrapdoorSRS(3, random.Random(11))
        srs_fb = TrapdoorSRS(3, random.Random(11))
        plain = MultilinearKZG(srs_plain)
        fb = MultilinearKZG(srs_fb, fixed_base=True)
        for _ in range(2):
            mle = DenseMLE.random(Fr, 3, rng)
            point = [rng.randrange(R) for _ in range(3)]
            c_plain, c_fb = plain.commit(mle), fb.commit(mle)
            assert c_plain == c_fb
            o_plain, o_fb = plain.open(mle, point), fb.open(mle, point)
            assert o_plain == o_fb  # covers quotient + generator paths
            assert fb.verify(c_fb, o_fb)
            assert plain.verify(c_plain, o_fb)

    def test_combs_built_once_per_arity_up_to_the_constant(self):
        rng = random.Random(0xC0B)
        kzg = MultilinearKZG(TrapdoorSRS(FIXED_BASE_MAX_VARS + 1,
                                         random.Random(12)), fixed_base=True)
        for num_vars in (2, 2, FIXED_BASE_MAX_VARS, FIXED_BASE_MAX_VARS + 1):
            kzg.commit(DenseMLE.random(Fr, num_vars, rng))
        assert sorted(kzg._fb_tables) == [2, FIXED_BASE_MAX_VARS]
        tables = kzg._fb_tables[2]
        assert len(tables) == 4 and kzg._tables(2) is tables

    def test_oversized_mle_rejected_even_when_zero(self):
        """commit() must reject an over-arity MLE at the call site,
        including the all-zero shortcut path."""
        kzg = MultilinearKZG(TrapdoorSRS(3, random.Random(5)))
        with pytest.raises(ValueError, match="SRS supports up to 3"):
            kzg.commit(DenseMLE(Fr, [0] * 32))
        with pytest.raises(ValueError, match="SRS supports up to 3"):
            kzg.commit(DenseMLE.random(Fr, 5, random.Random(6)))
