"""Unit and property tests for repro.fields."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fields import (
    FQ_MODULUS,
    FR_MODULUS,
    Fq,
    Fr,
    MontgomeryContext,
    OpCounter,
    PrimeField,
    batch_inverse,
)

fr_ints = st.integers(min_value=0, max_value=FR_MODULUS - 1)


class TestPrimeFieldBasics:
    def test_moduli_are_the_published_bls12_381_primes(self):
        assert FR_MODULUS.bit_length() == 255
        assert FQ_MODULUS.bit_length() == 381
        # r divides q^12 - 1 (pairing embedding degree 12)
        assert pow(17, FR_MODULUS, FR_MODULUS) == 17  # Fermat sanity
        assert (FQ_MODULUS**12 - 1) % FR_MODULUS == 0

    def test_element_construction_reduces(self):
        assert Fr(FR_MODULUS + 5).value == 5
        assert Fr(-1).value == FR_MODULUS - 1

    def test_zero_one_identities(self):
        x = Fr(1234)
        assert x + Fr.zero == x
        assert x * Fr.one == x
        assert x * Fr.zero == Fr.zero

    def test_mixed_int_arithmetic(self):
        assert Fr(10) + 5 == Fr(15)
        assert 5 + Fr(10) == Fr(15)
        assert Fr(10) - 15 == Fr(-5)
        assert 15 - Fr(10) == Fr(5)
        assert 3 * Fr(7) == Fr(21)

    def test_cross_field_mixing_rejected(self):
        with pytest.raises(ValueError):
            Fr(1) + Fq(1)

    def test_division_and_inverse(self):
        x = Fr(98765)
        assert x / x == Fr.one
        assert (Fr.one / x) * x == Fr.one
        assert x.inverse() * x == Fr.one

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            Fr.zero.inverse()
        with pytest.raises(ZeroDivisionError):
            Fr.inv(0)

    def test_pow(self):
        x = Fr(3)
        assert x**0 == Fr.one
        assert x**5 == Fr(243)
        # Fermat's little theorem
        assert x ** (FR_MODULUS - 1) == Fr.one

    def test_neg(self):
        assert -Fr(5) + Fr(5) == Fr.zero

    def test_immutability(self):
        x = Fr(5)
        with pytest.raises(AttributeError):
            x.value = 6

    def test_repr_and_bool(self):
        assert "Fr" in repr(Fr(3))
        assert bool(Fr(3)) and not bool(Fr.zero)

    def test_field_equality_by_modulus(self):
        other = PrimeField(FR_MODULUS, "Fr-clone")
        assert other == Fr
        assert hash(other) == hash(Fr)

    def test_even_modulus_rejected(self):
        with pytest.raises(ValueError):
            PrimeField(10, "bad")

    def test_elements_factory(self):
        xs = Fr.elements([1, 2, 3])
        assert xs == [Fr(1), Fr(2), Fr(3)]


class TestRawOps:
    @given(a=fr_ints, b=fr_ints)
    @settings(max_examples=50)
    def test_raw_add_sub_roundtrip(self, a, b):
        assert Fr.sub(Fr.add(a, b), b) == a

    @given(a=fr_ints, b=fr_ints)
    @settings(max_examples=50)
    def test_raw_mul_matches_bigint(self, a, b):
        assert Fr.mul(a, b) == a * b % FR_MODULUS

    @given(a=st.integers(min_value=1, max_value=FR_MODULUS - 1))
    @settings(max_examples=30)
    def test_raw_inv(self, a):
        assert Fr.mul(a, Fr.inv(a)) == 1

    def test_neg_raw(self):
        assert Fr.neg(0) == 0
        assert Fr.add(Fr.neg(17), 17) == 0


class TestBatchInverse:
    def test_matches_scalar_inverse(self, rng):
        values = [rng.randrange(1, FR_MODULUS) for _ in range(50)]
        expected = [Fr.inv(v) for v in values]
        assert batch_inverse(Fr, values) == expected

    def test_empty(self):
        assert batch_inverse(Fr, []) == []

    def test_single(self):
        assert batch_inverse(Fr, [2]) == [Fr.inv(2)]

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            batch_inverse(Fr, [1, 0, 2])

    @given(st.lists(st.integers(min_value=1, max_value=FR_MODULUS - 1),
                    min_size=1, max_size=20))
    @settings(max_examples=20)
    def test_property(self, values):
        invs = batch_inverse(Fr, values)
        assert all(v * i % FR_MODULUS == 1 for v, i in zip(values, invs))


class TestMontgomery:
    def test_limb_counts_match_paper_datapaths(self):
        assert MontgomeryContext(Fr).limbs == 4  # 255-bit datapath
        assert MontgomeryContext(Fq).limbs == 6  # 381-bit datapath

    def test_domain_roundtrip(self):
        ctx = MontgomeryContext(Fr)
        for v in [0, 1, 2, FR_MODULUS - 1, 123456789]:
            assert ctx.from_mont(ctx.to_mont(v)) == v

    @given(a=fr_ints, b=fr_ints)
    @settings(max_examples=30)
    def test_mont_mul_matches_plain(self, a, b):
        ctx = MontgomeryContext(Fr)
        assert ctx.mul(a, b) == a * b % FR_MODULUS

    @given(a=fr_ints, b=fr_ints)
    @settings(max_examples=30)
    def test_mont_domain_product(self, a, b):
        ctx = MontgomeryContext(Fr)
        am, bm = ctx.to_mont(a), ctx.to_mont(b)
        assert ctx.from_mont(ctx.mont_mul(am, bm)) == a * b % FR_MODULUS

    def test_redc_range_check(self):
        ctx = MontgomeryContext(Fr)
        with pytest.raises(ValueError):
            ctx.redc(FR_MODULUS * ctx.r + 1)

    def test_even_modulus_rejected(self):
        with pytest.raises(ValueError):
            MontgomeryContext.__new__(MontgomeryContext).__init__(
                PrimeField(2, "F2")
            )

    def test_fq_mont_mul(self):
        ctx = MontgomeryContext(Fq)
        a, b = 2**380 - 3, 2**379 + 7
        assert ctx.mul(a, b) == a * b % FQ_MODULUS


class TestOpCounter:
    def test_counts_by_kind(self):
        c = OpCounter()
        c.count_mul(3, kind="ee")
        c.count_mul(2, kind="pl")
        c.count_mul(1)
        c.count_add(4)
        c.count_inv()
        assert (c.mul, c.ee_mul, c.pl_mul, c.add, c.inv) == (6, 3, 2, 4, 1)

    def test_merge_and_labels(self):
        a, b = OpCounter(), OpCounter()
        a.bump("zerocheck", 2)
        b.bump("zerocheck")
        b.bump("permcheck", 5)
        a.count_mul(1)
        b.count_mul(2)
        a += b
        assert a.mul == 3
        assert a.labels == {"zerocheck": 3, "permcheck": 5}
