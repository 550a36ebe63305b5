"""Seeded property tests for the batched field-vector layer.

Checks the field axioms on :class:`~repro.fields.vector.FieldVec`
operations and the structural identities of the SumCheck primitives
(fold selects convex combinations of the even/odd halves; extension
columns 0/1 reproduce the table pairs) on every registered backend,
over the scalar field, the base field and a 61-bit prime.
Plain ``random`` with fixed seeds — no extra dependencies.
"""

import random

import pytest

from repro.fields import (
    FieldVec,
    Fq,
    Fr,
    OpCounter,
    PrimeField,
    get_backend,
    list_backends,
)
from repro.mle import DenseMLE, extend_pair, extend_table

P = Fr.modulus
SEED = 0x5EED
N = 64

# every registered backend
BACKENDS = list_backends()
# the scalar field, the base field and a one-word prime
FIELDS = [Fr, Fq, PrimeField((1 << 61) - 1, "F61")]


def rand_vec(rng, backend, field, n=N):
    return FieldVec.random(field, n, rng, backend)


@pytest.fixture
def rng():
    return random.Random(SEED)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("backend", BACKENDS)
class TestFieldAxioms:
    def test_add_associative_commutative(self, backend, field, rng):
        a, b, c = (rand_vec(rng, backend, field) for _ in range(3))
        assert ((a + b) + c).values == (a + (b + c)).values
        assert (a + b).values == (b + a).values

    def test_mul_associative_commutative(self, backend, field, rng):
        a, b, c = (rand_vec(rng, backend, field) for _ in range(3))
        assert ((a * b) * c).values == (a * (b * c)).values
        assert (a * b).values == (b * a).values

    def test_mul_distributes_over_add(self, backend, field, rng):
        a, b, c = (rand_vec(rng, backend, field) for _ in range(3))
        assert (a * (b + c)).values == (a * b + a * c).values

    def test_sub_is_add_inverse(self, backend, field, rng):
        a, b = (rand_vec(rng, backend, field) for _ in range(2))
        assert ((a - b) + b).values == a.values
        assert (a - a).values == [0] * N

    def test_identities(self, backend, field, rng):
        a = rand_vec(rng, backend, field)
        zeros = FieldVec.zeros(field, N, backend)
        ones = FieldVec(field, [1] * N, backend)
        assert (a + zeros).values == a.values
        assert (a * ones).values == a.values
        assert (a * zeros).values == [0] * N

    def test_scale_matches_elementwise(self, backend, field, rng):
        a = rand_vec(rng, backend, field)
        c = rng.randrange(field.modulus)
        assert (c * a).values == [c * v % field.modulus for v in a.values]
        assert a.scale(c).values == (a * c).values

    def test_axpy_matches_scale_add(self, backend, field, rng):
        a, x = (rand_vec(rng, backend, field) for _ in range(2))
        c = rng.randrange(field.modulus)
        assert a.axpy(c, x).values == (a + x.scale(c)).values

    def test_scalars_agree_with_scalar_field_ops(self, backend, field, rng):
        a, b = (rand_vec(rng, backend, field) for _ in range(2))
        assert (a + b).values == [field.add(x, y) for x, y in zip(a, b)]
        assert (a - b).values == [field.sub(x, y) for x, y in zip(a, b)]
        assert (a * b).values == [field.mul(x, y) for x, y in zip(a, b)]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("backend", BACKENDS)
class TestFoldProperties:
    def test_fold_at_zero_selects_even_half(self, backend, field, rng):
        a = rand_vec(rng, backend, field)
        assert a.fold(0).values == a.values[::2]

    def test_fold_at_one_selects_odd_half(self, backend, field, rng):
        a = rand_vec(rng, backend, field)
        assert a.fold(1).values == a.values[1::2]

    def test_fold_is_affine_in_r(self, backend, field, rng):
        a = rand_vec(rng, backend, field)
        r = rng.randrange(field.modulus)
        lo, hi = a.values[::2], a.values[1::2]
        expected = [(l + r * (h - l)) % field.modulus for l, h in zip(lo, hi)]
        assert a.fold(r).values == expected

    def test_fold_matches_dense_mle_update(self, backend, field, rng):
        table = [rng.randrange(field.modulus) for _ in range(N)]
        r = rng.randrange(field.modulus)
        vec = FieldVec(field, table, backend)
        mle = DenseMLE(field, table)
        assert vec.fold(r).values == mle.fix_first_variable(r).table
        assert (
            mle.fix_first_variable(r, backend=backend).table
            == mle.fix_first_variable(r).table
        )


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("backend", BACKENDS)
class TestExtendProperties:
    def test_extend_columns_0_and_1_are_the_table_pairs(self, backend, field, rng):
        a = rand_vec(rng, backend, field)
        cols = a.extend(3)
        assert cols[0].values == a.values[::2]
        assert cols[1].values == a.values[1::2]

    def test_extend_matches_extend_pair(self, backend, field, rng):
        table = [rng.randrange(field.modulus) for _ in range(N)]
        degree = 5
        cols = extend_table(field, table, degree, backend=backend)
        for j in range(N // 2):
            expected = extend_pair(field, table[2 * j], table[2 * j + 1], degree)
            assert [cols[x][j] for x in range(degree + 1)] == expected

    def test_extend_degree_zero(self, backend, field, rng):
        a = rand_vec(rng, backend, field)
        cols = a.extend(0)
        assert len(cols) == 1
        assert cols[0].values == a.values[::2]

    def test_extension_is_affine(self, backend, field, rng):
        """Column x must equal lo + x * (hi - lo) elementwise."""
        a = rand_vec(rng, backend, field)
        cols = a.extend(4)
        lo, hi = a.values[::2], a.values[1::2]
        for x, col in enumerate(cols):
            assert col.values == [
                (l + x * (h - l)) % field.modulus for l, h in zip(lo, hi)
            ]


class TestBackendParity:
    """Identical values *and* identical OpCounter tallies across backends."""

    OPS = ("add", "sub", "mul")

    def test_elementwise_parity(self):
        rng = random.Random(SEED)
        a = [rng.randrange(P) for _ in range(N)]
        b = [rng.randrange(P) for _ in range(N)]
        for op in self.OPS:
            results, counts = [], []
            for name in BACKENDS:
                c = OpCounter()
                be = get_backend(name)
                results.append(getattr(be, op)(Fr, a, b, c))
                counts.append((c.mul, c.add, c.inv, c.ee_mul, c.pl_mul))
            assert all(r == results[0] for r in results), op
            assert all(k == counts[0] for k in counts), op

    def test_fold_and_extend_parity(self):
        rng = random.Random(SEED + 1)
        table = [rng.randrange(P) for _ in range(N)]
        r = rng.randrange(P)
        folds, exts, counts = [], [], []
        for name in BACKENDS:
            c = OpCounter()
            be = get_backend(name)
            folds.append(be.fold(Fr, table, r, c))
            exts.append(be.extend_columns(Fr, table, 4, c))
            counts.append((c.mul, c.add, c.ee_mul))
        assert all(f == folds[0] for f in folds)
        assert all(e == exts[0] for e in exts)
        assert all(k == counts[0] for k in counts)

    def test_non_canonical_input_parity(self):
        """Public fold/extend entry points must agree across backends even
        when handed out-of-range integers."""
        rng = random.Random(SEED + 3)
        table = [rng.randrange(-P, 2 * P) for _ in range(N)]
        r = rng.randrange(P)
        folds = [get_backend(n).fold(Fr, table, r) for n in BACKENDS]
        exts = [get_backend(n).extend_columns(Fr, table, 3) for n in BACKENDS]
        assert all(f == folds[0] for f in folds)
        assert all(e == exts[0] for e in exts)
        assert all(0 <= v < P for col in exts[0] for v in col)

    def test_small_field_support(self):
        """Backends are field-generic, not BLS12-381-specific."""
        small = PrimeField((1 << 61) - 1, "F61")
        rng = random.Random(SEED + 2)
        a = [rng.randrange(small.modulus) for _ in range(32)]
        b = [rng.randrange(small.modulus) for _ in range(32)]
        outs = [get_backend(n).mul(small, a, b) for n in BACKENDS]
        assert all(o == outs[0] for o in outs)


class TestFieldVecApi:
    def test_length_mismatch_rejected(self):
        a = FieldVec(Fr, [1, 2, 3])
        b = FieldVec(Fr, [1, 2])
        with pytest.raises(ValueError, match="length"):
            a.add(b)

    def test_field_mismatch_rejected(self):
        small = PrimeField((1 << 61) - 1, "F61")
        a = FieldVec(Fr, [1, 2])
        b = FieldVec(small, [1, 2])
        with pytest.raises(ValueError, match="field"):
            a.add(b)

    def test_values_normalized_on_construction(self):
        a = FieldVec(Fr, [-1, P, P + 5])
        assert a.values == [P - 1, 0, 5]

    def test_fold_requires_a_pair(self):
        with pytest.raises(ValueError, match="pair"):
            FieldVec(Fr, [7]).fold(3)

    def test_eq_against_list(self):
        assert FieldVec(Fr, [1, 2, 3]) == [1, 2, 3]
