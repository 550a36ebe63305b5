"""Seeded property tests for the batched field-vector kernel.

Checks the field axioms on the kernel's elementwise operations and the
structural identities of the SumCheck primitives (fold selects convex
combinations of the even/odd halves; extension columns 0/1 reproduce the
table pairs) on :data:`~repro.fields.vector.KERNEL` and its oracle
:class:`~repro.fields.vector.ReferenceBackend`, over the scalar field,
the base field and a 61-bit prime.  Plain ``random`` with fixed seeds —
no extra dependencies.
"""

import random

import pytest

from repro.fields import KERNEL, Fq, Fr, PrimeField, ReferenceBackend
from repro.fields.counters import recording
from repro.mle import DenseMLE, extend_pair, extend_table

P = Fr.modulus
SEED = 0x5EED
N = 64

#: the oracle and the kernel, under the ids they had as named backends
KERNELS = [ReferenceBackend(), KERNEL]
ORACLE_AND_KERNEL = pytest.mark.parametrize(
    "kernel", KERNELS, ids=["reference", "fused"]
)
# the scalar field, the base field and a one-word prime
FIELDS = [Fr, Fq, PrimeField((1 << 61) - 1, "F61")]


def rand_vec(rng, field, n=N):
    return [rng.randrange(field.modulus) for _ in range(n)]


@pytest.fixture
def rng():
    return random.Random(SEED)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@ORACLE_AND_KERNEL
class TestFieldAxioms:
    def test_add_associative_commutative(self, kernel, field, rng):
        add = kernel.add
        a, b, c = (rand_vec(rng, field) for _ in range(3))
        assert add(field, add(field, a, b), c) == add(field, a, add(field, b, c))
        assert add(field, a, b) == add(field, b, a)

    def test_mul_associative_commutative(self, kernel, field, rng):
        mul = kernel.mul
        a, b, c = (rand_vec(rng, field) for _ in range(3))
        assert mul(field, mul(field, a, b), c) == mul(field, a, mul(field, b, c))
        assert mul(field, a, b) == mul(field, b, a)

    def test_mul_distributes_over_add(self, kernel, field, rng):
        add, mul = kernel.add, kernel.mul
        a, b, c = (rand_vec(rng, field) for _ in range(3))
        assert mul(field, a, add(field, b, c)) == add(
            field, mul(field, a, b), mul(field, a, c)
        )

    def test_sub_is_add_inverse(self, kernel, field, rng):
        a, b = (rand_vec(rng, field) for _ in range(2))
        assert kernel.add(field, kernel.sub(field, a, b), b) == a
        assert kernel.sub(field, a, a) == [0] * N

    def test_identities(self, kernel, field, rng):
        a = rand_vec(rng, field)
        zeros, ones = [0] * N, [1] * N
        assert kernel.add(field, a, zeros) == a
        assert kernel.mul(field, a, ones) == a
        assert kernel.mul(field, a, zeros) == [0] * N

    def test_scale_matches_elementwise(self, kernel, field, rng):
        a = rand_vec(rng, field)
        c = rng.randrange(field.modulus)
        assert kernel.scale(field, a, c) == [c * v % field.modulus for v in a]
        assert kernel.scale(field, a, c) == kernel.mul(field, a, [c] * N)

    def test_axpy_matches_scale_add(self, kernel, field, rng):
        a, x = (rand_vec(rng, field) for _ in range(2))
        c = rng.randrange(field.modulus)
        assert kernel.axpy(field, a, c, x) == kernel.add(
            field, a, kernel.scale(field, x, c)
        )

    def test_scalars_agree_with_scalar_field_ops(self, kernel, field, rng):
        a, b = (rand_vec(rng, field) for _ in range(2))
        assert kernel.add(field, a, b) == [field.add(x, y) for x, y in zip(a, b)]
        assert kernel.sub(field, a, b) == [field.sub(x, y) for x, y in zip(a, b)]
        assert kernel.mul(field, a, b) == [field.mul(x, y) for x, y in zip(a, b)]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@ORACLE_AND_KERNEL
class TestFoldProperties:
    def test_fold_at_zero_selects_even_half(self, kernel, field, rng):
        a = rand_vec(rng, field)
        assert kernel.fold(field, a, 0) == a[::2]

    def test_fold_at_one_selects_odd_half(self, kernel, field, rng):
        a = rand_vec(rng, field)
        assert kernel.fold(field, a, 1) == a[1::2]

    def test_fold_is_affine_in_r(self, kernel, field, rng):
        a = rand_vec(rng, field)
        r = rng.randrange(field.modulus)
        lo, hi = a[::2], a[1::2]
        expected = [(l + r * (h - l)) % field.modulus for l, h in zip(lo, hi)]
        assert kernel.fold(field, a, r) == expected

    def test_fold_matches_dense_mle_update(self, kernel, field, rng):
        table = rand_vec(rng, field)
        r = rng.randrange(field.modulus)
        mle = DenseMLE(field, table)
        assert kernel.fold(field, table, r) == mle.fix_first_variable(r).table


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@ORACLE_AND_KERNEL
class TestOutOfRangeInputs:
    """Integers outside ``[0, p)`` act as their residues and come out
    canonical, for the kernel methods that reduce their inputs."""

    def test_fold_reduces_table_and_challenge(self, kernel, field, rng):
        p = field.modulus
        table = [rng.randrange(-p, 2 * p) for _ in range(N)]
        r = rng.randrange(p)
        out = kernel.fold(field, table, r + p)
        assert out == kernel.fold(field, [v % p for v in table], r)
        assert all(0 <= v < p for v in out)

    def test_scale_and_axpy_reduce_the_scalar(self, kernel, field, rng):
        p = field.modulus
        a, x = rand_vec(rng, field), rand_vec(rng, field)
        c = rng.randrange(p)
        for c_raw in (c + p, c - p):
            assert kernel.scale(field, a, c_raw) == kernel.scale(field, a, c)
            assert kernel.axpy(field, a, c_raw, x) == kernel.axpy(field, a, c, x)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@ORACLE_AND_KERNEL
class TestExtendProperties:
    def test_extend_columns_0_and_1_are_the_table_pairs(self, kernel, field, rng):
        a = rand_vec(rng, field)
        cols = kernel.extend_columns(field, a, 3)
        assert cols[0] == a[::2]
        assert cols[1] == a[1::2]

    def test_extend_matches_extend_pair(self, kernel, field, rng):
        table = rand_vec(rng, field)
        degree = 5
        cols = kernel.extend_columns(field, table, degree)
        assert extend_table(field, table, degree) == cols
        for j in range(N // 2):
            expected = extend_pair(field, table[2 * j], table[2 * j + 1], degree)
            assert [cols[x][j] for x in range(degree + 1)] == expected

    def test_extend_degree_zero(self, kernel, field, rng):
        a = rand_vec(rng, field)
        cols = kernel.extend_columns(field, a, 0)
        assert len(cols) == 1
        assert cols[0] == a[::2]

    def test_extension_is_affine(self, kernel, field, rng):
        """Column x must equal lo + x * (hi - lo) elementwise."""
        a = rand_vec(rng, field)
        cols = kernel.extend_columns(field, a, 4)
        lo, hi = a[::2], a[1::2]
        for x, col in enumerate(cols):
            assert col == [
                (l + x * (h - l)) % field.modulus for l, h in zip(lo, hi)
            ]


class TestBackendParity:
    """Identical values *and* identical recorded counts, kernel and oracle."""

    OPS = ("add", "sub", "mul")

    def test_elementwise_parity(self):
        rng = random.Random(SEED)
        a = [rng.randrange(P) for _ in range(N)]
        b = [rng.randrange(P) for _ in range(N)]
        for op in self.OPS:
            results, counts = [], []
            for kernel in KERNELS:
                with recording() as c:
                    results.append(getattr(kernel, op)(Fr, a, b))
                counts.append((c.mul, c.add, c.inv, c.ee_mul, c.pl_mul))
            assert all(r == results[0] for r in results), op
            assert all(k == counts[0] for k in counts), op

    def test_fold_and_extend_parity(self):
        rng = random.Random(SEED + 1)
        table = [rng.randrange(P) for _ in range(N)]
        r = rng.randrange(P)
        folds, exts, counts = [], [], []
        for kernel in KERNELS:
            with recording() as c:
                folds.append(kernel.fold(Fr, table, r))
                exts.append(kernel.extend_columns(Fr, table, 4))
            counts.append((c.mul, c.add, c.ee_mul))
        assert all(f == folds[0] for f in folds)
        assert all(e == exts[0] for e in exts)
        assert all(k == counts[0] for k in counts)

    def test_non_canonical_input_parity(self):
        """Public fold/extend entry points must agree with the oracle even
        when handed out-of-range integers."""
        rng = random.Random(SEED + 3)
        table = [rng.randrange(-P, 2 * P) for _ in range(N)]
        r = rng.randrange(P)
        folds = [kernel.fold(Fr, table, r) for kernel in KERNELS]
        exts = [kernel.extend_columns(Fr, table, 3) for kernel in KERNELS]
        assert all(f == folds[0] for f in folds)
        assert all(e == exts[0] for e in exts)
        assert all(0 <= v < P for col in exts[0] for v in col)

    def test_small_field_support(self):
        """The kernel is field-generic, not BLS12-381-specific."""
        small = PrimeField((1 << 61) - 1, "F61")
        rng = random.Random(SEED + 2)
        a = [rng.randrange(small.modulus) for _ in range(32)]
        b = [rng.randrange(small.modulus) for _ in range(32)]
        outs = [kernel.mul(small, a, b) for kernel in KERNELS]
        assert all(o == outs[0] for o in outs)
