"""Seeded fuzz: the field-vector kernel vs the reference oracle.

Random tables are mixed with adversarial boundary values — 0, 1, p-1,
the Montgomery radix R and R² mod p (values whose limb patterns stress
REDC's carry chain), and all-ones 64-bit words (worst-case limb patterns)
— across empty, length-1, odd-length, and power-of-two tables, and
extension degrees 0/1/max.  Per the :class:`FusedBackend` contract,
elementwise kernels receive canonical ``[0, p)`` inputs (boundary
values are reduced mod p first) while ``fold``/``extend_columns`` are
also fuzzed with raw out-of-range integers, which they must normalize
bit-identically to :class:`ReferenceBackend`.  The field counts each
call records must match everywhere too.
"""

import random

import pytest

from repro.fields import KERNEL, Fq, Fr, PrimeField, ReferenceBackend
from repro.fields.counters import recording

SEED = 0xF055
MAX_DEGREE = 9

F61 = PrimeField((1 << 61) - 1, "F61")
FIELDS = [Fr, Fq, F61]
REFERENCE = ReferenceBackend()
#: the kernel under test, under the id it had in the by-name registry
KERNEL_ONLY = pytest.mark.parametrize("kernel", [KERNEL], ids=["fused"])
TABLE_SIZES = [0, 1, 2, 3, 7, 16, 33, 64]


def limb_radix(p: int) -> int:
    """A Montgomery radix R = 2^(30L) for modulus p: the smallest run of
    30-bit limbs (at least two) with 4p < R, a limb layout a hardware
    REDC datapath would use.  Its residues R and R² mod p are kept in
    the corpus as boundary values whose bit patterns stress carry chains.
    """
    limbs = max(2, -(-(p.bit_length() + 2) // 30))
    while 4 * p >= 1 << (30 * limbs):
        limbs += 1
    return 1 << (30 * limbs)


def boundary_values(p: int) -> list[int]:
    """Adversarial field elements (canonical) for modulus ``p``."""
    r = limb_radix(p)
    return [
        0,
        1,
        p - 1,
        r % p,
        r * r % p,
        ((1 << 64) - 1) % p,
        int.from_bytes(b"\xff" * 32, "little") % p,
    ]


def fuzz_table(rng: random.Random, p: int, n: int) -> list[int]:
    """``n`` canonical elements: boundaries sprinkled into random data."""
    bounds = boundary_values(p)
    return [
        rng.choice(bounds) if rng.random() < 0.3 else rng.randrange(p)
        for _ in range(n)
    ]


def raw_fuzz_table(rng: random.Random, p: int, n: int) -> list[int]:
    """``n`` possibly out-of-range integers (for fold/extend only)."""
    bounds = boundary_values(p)
    out = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.2:
            out.append(rng.choice(bounds) + rng.choice([0, p, -p]))
        elif roll < 0.3:
            out.append(rng.randrange(-p, 2 * p))
        else:
            out.append(rng.randrange(p))
    return out


def counted(call, *args) -> tuple:
    """``call(*args)`` and the field counts it recorded."""
    with recording() as c:
        out = call(*args)
    return out, (c.mul, c.add, c.inv, c.ee_mul, c.pl_mul)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@KERNEL_ONLY
class TestElementwiseFuzz:
    def test_binary_ops_agree_with_reference(self, kernel, field):
        rng = random.Random(SEED ^ field.modulus)
        ref, fast = REFERENCE, kernel
        p = field.modulus
        for n in TABLE_SIZES:
            a = fuzz_table(rng, p, n)
            b = fuzz_table(rng, p, n)
            for op in ("add", "sub", "mul"):
                want, c1 = counted(getattr(ref, op), field, a, b)
                got, c2 = counted(getattr(fast, op), field, a, b)
                assert list(got) == want, (field.name, op, n)
                assert c1 == c2, (op, n)

    def test_scalar_ops_agree_with_reference(self, kernel, field):
        rng = random.Random(SEED * 3 ^ field.modulus)
        ref, fast = REFERENCE, kernel
        p = field.modulus
        scalars = boundary_values(p) + [rng.randrange(p)]
        for n in (0, 1, 5, 32):
            a = fuzz_table(rng, p, n)
            x = fuzz_table(rng, p, n)
            for c in scalars:
                got, c2 = counted(fast.scale, field, a, c)
                want, c1 = counted(ref.scale, field, a, c)
                assert list(got) == want, (field.name, "scale", n, c)
                assert c1 == c2
                got, c2 = counted(fast.axpy, field, a, c, x)
                want, c1 = counted(ref.axpy, field, a, c, x)
                assert list(got) == want, (field.name, "axpy", n, c)
                assert c1 == c2


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@KERNEL_ONLY
class TestFoldExtendFuzz:
    def test_fold_agrees_on_raw_tables(self, kernel, field):
        rng = random.Random(SEED * 5 ^ field.modulus)
        ref, fast = REFERENCE, kernel
        p = field.modulus
        challenges = boundary_values(p)
        for n in (2, 3, 7, 16, 33, 64):
            t = raw_fuzz_table(rng, p, n)
            for r in challenges + [rng.randrange(p)]:
                want, c1 = counted(ref.fold, field, t, r)
                got, c2 = counted(fast.fold, field, t, r)
                assert list(got) == want, (field.name, n, r)
                assert c1 == c2
                assert all(0 <= v < p for v in got)

    @pytest.mark.parametrize("degree", [0, 1, MAX_DEGREE])
    def test_extend_agrees_on_raw_tables(self, kernel, field, degree):
        rng = random.Random(SEED * 7 ^ field.modulus ^ degree)
        ref, fast = REFERENCE, kernel
        p = field.modulus
        for n in (2, 3, 7, 16, 64):
            t = raw_fuzz_table(rng, p, n)
            want, c1 = counted(ref.extend_columns, field, t, degree)
            got, c2 = counted(fast.extend_columns, field, t, degree)
            assert [list(col) for col in got] == want, (field.name, n)
            assert c1 == c2
            assert all(0 <= v < p for col in got for v in col)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@KERNEL_ONLY
class TestRoundEvaluationsFuzz:
    """The fused round kernel on boundary-heavy tables."""

    def test_round_evaluations_agree(self, kernel, field):
        from repro.mle import Term

        rng = random.Random(SEED * 11 ^ field.modulus)
        ref, fast = REFERENCE, kernel
        p = field.modulus
        # then tables with fewer pairs than a round tile, one tile, two
        # and eight, and an odd one whose trailing element is dropped
        for n in (2, 8, 32, 128, 256, 512, 2048, 513):
            tables = {
                name: fuzz_table(rng, p, n) for name in ("a", "b", "c")
            }
            terms = [
                Term(rng.randrange(1, p), (("a", 1), ("b", 1))),
                Term(rng.randrange(1, p), (("c", MAX_DEGREE),)),
                Term(rng.randrange(p), ()),
            ]
            degree = MAX_DEGREE
            want, c1 = counted(ref.round_evaluations, field, terms, tables, degree)
            got, c2 = counted(fast.round_evaluations, field, terms, tables, degree)
            assert list(got) == want, (field.name, n)
            assert c1 == c2

    @pytest.mark.parametrize("constant_term", [False, True])
    def test_drawn_term_lists_with_a_shared_factor(
        self, kernel, field, constant_term
    ):
        """Random term lists in which every MLE term carries ``s**k``:
        alone they take the kernel's common-factor schedule; with a bare
        constant drawn in, nothing is common and the same terms take the
        summed-groups schedule.  Boundary coefficients (1, p-1) included."""
        from repro.mle import Term

        rng = random.Random((SEED * 13 + constant_term) ^ field.modulus)
        ref, fast = REFERENCE, kernel
        p = field.modulus
        pool = ("a", "b", "c", "d")
        for _ in range(12):
            shared = ("s", rng.randrange(1, 3))
            terms = []
            for _ in range(rng.randrange(1, 6)):
                names = rng.sample(pool, k=rng.randrange(0, 4))
                factors = [(name, rng.randrange(1, 4)) for name in names]
                factors.insert(rng.randrange(len(factors) + 1), shared)
                coeff = rng.choice([1, p - 1, rng.randrange(p)])
                terms.append(Term(coeff, tuple(factors)))
            if constant_term:
                terms.append(Term(rng.choice([1, p - 1, rng.randrange(p)]), ()))
            degree = max(t.degree for t in terms)
            n = rng.choice((2, 4, 16))
            tables = {
                name: fuzz_table(rng, p, n) for name in pool + ("s",)
            }
            want, c1 = counted(ref.round_evaluations, field, terms, tables, degree)
            got, c2 = counted(fast.round_evaluations, field, terms, tables, degree)
            assert list(got) == want, (field.name, terms)
            assert c1 == c2
