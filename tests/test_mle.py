"""Unit and property tests for repro.mle."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fields import Fr, PrimeField
from repro.fields.counters import recording
from repro.mle import (
    DenseMLE,
    Term,
    VirtualPolynomial,
    build_eq_mle,
    eq_eval,
    extend_pair,
)

P = Fr.modulus
small = st.integers(min_value=0, max_value=P - 1)


class TestDenseMLE:
    def test_length_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            DenseMLE(Fr, [1, 2, 3])
        with pytest.raises(ValueError):
            DenseMLE(Fr, [])

    def test_num_vars(self):
        assert DenseMLE(Fr, [1]).num_vars == 0
        assert DenseMLE(Fr, [1, 2]).num_vars == 1
        assert DenseMLE(Fr, list(range(8))).num_vars == 3

    def test_hypercube_evaluation_convention(self):
        """Index bit 0 is X_1: f(x1,x2) lives at index x1 + 2*x2."""
        f = DenseMLE(Fr, [10, 11, 12, 13])
        assert f.evaluate([0, 0]) == 10
        assert f.evaluate([1, 0]) == 11
        assert f.evaluate([0, 1]) == 12
        assert f.evaluate([1, 1]) == 13

    def test_fix_first_variable_at_bool_points(self):
        f = DenseMLE(Fr, [10, 11, 12, 13])
        f0 = f.fix_first_variable(0)
        f1 = f.fix_first_variable(1)
        assert f0.table == [10, 12]
        assert f1.table == [11, 13]

    def test_fix_first_is_linear_interpolation(self):
        f = DenseMLE(Fr, [3, 7])
        r = 5
        assert f.fix_first_variable(r).table[0] == (3 + r * (7 - 3)) % P

    def test_fix_zero_var_mle_rejected(self):
        with pytest.raises(ValueError):
            DenseMLE(Fr, [5]).fix_first_variable(1)

    def test_evaluate_multilinear_identity(self, rng):
        """MLE is the unique multilinear interpolant of its table."""
        f = DenseMLE.random(Fr, 3, rng)
        # at hypercube points, evaluate == table
        for idx in range(8):
            point = [(idx >> i) & 1 for i in range(3)]
            assert f.evaluate(point) == f.table[idx]

    def test_evaluate_wrong_arity(self):
        with pytest.raises(ValueError):
            DenseMLE(Fr, [1, 2]).evaluate([1, 2])

    def test_evaluate_is_multilinear_in_each_var(self, rng):
        f = DenseMLE.random(Fr, 2, rng)
        r2 = rng.randrange(P)
        # linear in X1: f(t, r2) = f(0,r2) + t*(f(1,r2)-f(0,r2))
        f0 = f.evaluate([0, r2])
        f1 = f.evaluate([1, r2])
        t = rng.randrange(P)
        assert f.evaluate([t, r2]) == (f0 + t * (f1 - f0)) % P

    def test_random_sparsity(self, rng):
        f = DenseMLE.random(Fr, 10, rng, sparsity=0.9)
        assert sum(1 for v in f.table if v) / len(f.table) < 0.2

    def test_pointwise_ops(self):
        a = DenseMLE(Fr, [1, 2])
        assert a.scaled(10).table == [10, 20]

    def test_update_counts_ee_muls(self):
        with recording() as c:
            DenseMLE(Fr, list(range(8))).fix_first_variable(3)
        assert c.ee_mul == 4  # one mul per output entry

    def test_constructor_reduces_mod_p(self):
        f = DenseMLE(Fr, [P + 1, -1])
        assert f.table == [1, P - 1]

    def test_fold_requires_a_variable(self):
        with pytest.raises(ValueError, match="0-variable"):
            DenseMLE(Fr, [7]).fix_first_variable(3)


class TestExtendPair:
    def test_degree_one_is_identity(self):
        assert extend_pair(Fr, 5, 9, 1) == [5, 9]

    def test_line_extension(self):
        # line through (0,3),(1,7): slope 4
        assert extend_pair(Fr, 3, 7, 4) == [3, 7, 11, 15, 19]

    def test_matches_mle_fix(self, rng):
        """Extension at X=k equals folding the pair with challenge k."""
        lo, hi = rng.randrange(P), rng.randrange(P)
        ext = extend_pair(Fr, lo, hi, 5)
        f = DenseMLE(Fr, [lo, hi])
        for k in range(6):
            assert ext[k] == f.fix_first_variable(k).table[0]

    def test_counts_adds_only(self):
        with recording() as c:
            extend_pair(Fr, 1, 2, 4)
        assert c.mul == 0 and c.add == 3

    @given(lo=small, hi=small, k=st.integers(min_value=0, max_value=30))
    @settings(max_examples=30)
    def test_extension_formula(self, lo, hi, k):
        ext = extend_pair(Fr, lo, hi, max(k, 1))
        assert ext[k if k <= len(ext) - 1 else -1] == (
            (lo + (hi - lo) * min(k, len(ext) - 1)) % P
        )


class TestEq:
    def test_eq_table_is_indicator_on_hypercube(self, rng):
        r = [rng.randrange(2) for _ in range(3)]  # boolean r
        eq = build_eq_mle(Fr, r)
        idx_r = sum(b << i for i, b in enumerate(r))
        for idx in range(8):
            assert eq.table[idx] == (1 if idx == idx_r else 0)

    def test_eq_table_matches_closed_form(self, rng):
        r = [rng.randrange(P) for _ in range(4)]
        eq = build_eq_mle(Fr, r)
        for idx in range(16):
            x = [(idx >> i) & 1 for i in range(4)]
            assert eq.table[idx] == eq_eval(Fr, x, r)

    def test_eq_table_sums_to_one(self, rng):
        """sum_x eq(x, r) = 1 for any r."""
        r = [rng.randrange(P) for _ in range(5)]
        eq = build_eq_mle(Fr, r)
        assert sum(eq.table) % P == 1

    def test_eq_eval_symmetric(self, rng):
        x = [rng.randrange(P) for _ in range(4)]
        r = [rng.randrange(P) for _ in range(4)]
        assert eq_eval(Fr, x, r) == eq_eval(Fr, r, x)

    def test_eq_eval_length_mismatch(self):
        with pytest.raises(ValueError):
            eq_eval(Fr, [1], [1, 2])

    def test_build_counts_muls(self):
        with recording() as c:
            build_eq_mle(Fr, [3, 5, 7])
        assert c.mul == 2 + 4 + 8  # doubling construction


class TestVirtualPolynomial:
    def _plonk_like(self, rng, num_vars=3):
        mles = {
            name: DenseMLE.random(Fr, num_vars, rng)
            for name in ("qL", "w1", "w2", "qM")
        }
        terms = [
            Term(1, (("qL", 1), ("w1", 1))),
            Term(1, (("qM", 1), ("w1", 1), ("w2", 1))),
        ]
        return VirtualPolynomial(Fr, terms, mles)

    def test_degree_and_names(self, rng):
        vp = self._plonk_like(rng)
        assert vp.degree == 3
        assert vp.unique_mle_names == ["qL", "w1", "qM", "w2"]

    def test_evaluate_at_index(self, rng):
        vp = self._plonk_like(rng)
        idx = 5
        expected = (
            vp.mles["qL"].table[idx] * vp.mles["w1"].table[idx]
            + vp.mles["qM"].table[idx]
            * vp.mles["w1"].table[idx]
            * vp.mles["w2"].table[idx]
        ) % P
        assert vp.evaluate_at_index(idx) == expected

    def test_sum_over_hypercube(self, rng):
        vp = self._plonk_like(rng)
        assert vp.sum_over_hypercube() == (
            sum(vp.evaluate_at_index(i) for i in range(8)) % P
        )

    def test_evaluate_extends_hypercube(self, rng):
        vp = self._plonk_like(rng)
        for idx in range(8):
            point = [(idx >> i) & 1 for i in range(3)]
            assert vp.evaluate(point) == vp.evaluate_at_index(idx)

    def test_powers(self, rng):
        w = DenseMLE.random(Fr, 2, rng)
        vp = VirtualPolynomial(Fr, [Term(1, (("w", 5),))], {"w": w})
        assert vp.degree == 5
        for idx in range(4):
            assert vp.evaluate_at_index(idx) == pow(w.table[idx], 5, P)

    def test_fix_first_variable_commutes_with_eval(self, rng):
        vp = self._plonk_like(rng)
        r = rng.randrange(P)
        fixed = vp.fix_first_variable(r)
        rest = [rng.randrange(P) for _ in range(2)]
        assert fixed.evaluate(rest) == vp.evaluate([r] + rest)

    def test_validation_errors(self, rng):
        w = DenseMLE.random(Fr, 2, rng)
        with pytest.raises(KeyError):
            VirtualPolynomial(Fr, [Term(1, (("missing", 1),))], {"w": w})
        with pytest.raises(ValueError):
            VirtualPolynomial(Fr, [], {"w": w})
        with pytest.raises(ValueError):
            Term(1, (("w", 1), ("w", 2))).validate()
        with pytest.raises(ValueError):
            Term(1, (("w", 0),)).validate()
        with pytest.raises(ValueError):
            VirtualPolynomial(
                Fr,
                [Term(1, (("w", 1),))],
                {"w": w, "v": DenseMLE.random(Fr, 3, rng)},
            )

    def test_field_mismatch_rejected(self, rng):
        f61 = PrimeField((1 << 61) - 1, "F61")
        with pytest.raises(ValueError, match="'v' is over the wrong field"):
            VirtualPolynomial(
                Fr,
                [Term(1, (("w", 1),))],
                {"w": DenseMLE.random(Fr, 2, rng), "v": DenseMLE(f61, [1] * 4)},
            )

    def test_combine_matches_evaluate(self, rng):
        vp = self._plonk_like(rng)
        point = [rng.randrange(P) for _ in range(3)]
        evals = {n: vp.mles[n].evaluate(point) for n in vp.mles}
        assert vp.combine(evals) == vp.evaluate(point)
