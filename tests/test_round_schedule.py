"""The fused round kernel's schedule and its forward-difference carry.

``round_schedule`` decides, from the factors of the terms alone, what is
multiplied out where: the common factor, the residual degree groups and
how many points each MLE / power column is extended to.  The kernel's
*values* are pinned to the oracle by ``test_fastpath_differential.py``;
this file pins the *plan* — a schedule that quietly multiplied every
term out at all d + 1 points would still be bit-identical, just slow —
the exactness of ``extend_by_differences``, the one piece of
arithmetic the reference loop has no counterpart for, and the size of
the kernel's working set, which the pair tiles bound.
"""

import gc
import random
import tracemalloc

import pytest

from repro.fields import KERNEL, Fr, ReferenceBackend
from repro.fields.vector import (
    ROUND_TILE_PAIRS,
    extend_by_differences,
    round_schedule,
)
from repro.gates import gate_by_id, high_degree_sweep_gate
from repro.mle import DenseMLE, Term, VirtualPolynomial
from repro.sumcheck import FastSumCheckProver, Transcript

P = Fr.modulus


def schedule_of(*factor_lists, degree=None):
    factors = tuple(tuple(f) for f in factor_lists)
    if degree is None:
        degree = max(sum(pw for _, pw in f) for f in factors)
    return round_schedule(factors, degree)


def gate_schedule(spec):
    factors = tuple(m.factors for m in spec.compiled.monomials)
    return factors, round_schedule(factors, spec.degree)


def residuals_by_degree(plan):
    """{residual degree: the group's residual terms, as name->power dicts}."""
    return {
        m: [dict(plan.residuals[i]) for i in members]
        for m, members in plan.groups
    }


class TestJellyfishSchedule:
    def test_common_factor_groups_and_points(self):
        _, plan = gate_schedule(gate_by_id(22))
        assert plan.degree == 7
        assert plan.common == (("fr", 1),)
        assert [m for m, _ in plan.groups] == [1, 2, 3, 6]
        groups = residuals_by_degree(plan)
        assert groups[1] == [{"qC": 1}]
        assert {frozenset(g) for g in groups[2]} == {
            frozenset({f"q{i}", f"w{i}"}) for i in range(1, 5)
        } | {frozenset({"qO", "w5"})}
        assert {frozenset(g) for g in groups[3]} == {
            frozenset({"qM1", "w1", "w2"}), frozenset({"qM2", "w3", "w4"})
        }
        assert len(groups[6]) == 5  # four qH·w^5 and qecc·w1..w5
        want = {"qC": 2, "qO": 3, "qM1": 4, "qM2": 4, "qecc": 7, "fr": 8}
        want.update({f"q{i}": 3 for i in range(1, 5)})
        want.update({f"qH{i}": 7 for i in range(1, 5)})
        want.update({f"w{i}": 7 for i in range(1, 6)})
        assert dict(plan.mle_points) == want
        # the power columns only where their one term needs them
        assert all(plan.points[f"w{i}", 5] == 7 for i in range(1, 5))

    def test_every_term_lands_in_exactly_one_group(self):
        factors, plan = gate_schedule(gate_by_id(22))
        members = sorted(i for _, group in plan.groups for i in group)
        assert members == list(range(len(factors)))


class TestScheduleShapes:
    def test_single_term_has_nothing_to_share(self):
        plan = schedule_of([("q", 1), ("w", 2)])
        assert plan.common == ()
        assert plan.groups == ((3, (0,)),)
        assert dict(plan.mle_points) == {"q": 4, "w": 4}

    def test_bare_constant_term_blocks_the_common_factor(self):
        plan = schedule_of([("fr", 1), ("a", 1)], [])
        assert plan.common == ()
        assert plan.groups == ((0, (1,)), (2, (0,)))
        assert plan.residuals == ((("fr", 1), ("a", 1)), ())

    def test_term_equal_to_the_common_factor_leaves_a_constant(self):
        plan = schedule_of([("fr", 1)], [("fr", 1), ("a", 1), ("b", 1)])
        assert plan.common == (("fr", 1),)
        assert plan.residuals == ((), (("a", 1), ("b", 1)))
        assert plan.groups == ((0, (0,)), (2, (1,)))
        assert dict(plan.mle_points) == {"fr": 4, "a": 3, "b": 3}

    def test_common_factor_of_power_two(self):
        plan = schedule_of(
            [("fr", 2), ("a", 1)], [("b", 1), ("fr", 3)], [("fr", 2)]
        )
        assert plan.common == (("fr", 2),)
        assert plan.residuals == ((("a", 1),), (("b", 1), ("fr", 1)), ())
        assert [m for m, _ in plan.groups] == [0, 1, 2]
        # fr**2 at all d + 1 = 5 points, the leftover fr at its group's 3
        assert plan.points["fr", 2] == 5 and plan.points["fr", 1] == 3
        assert plan.mle_points["fr"] == 5

    def test_no_common_factor_keeps_every_group_at_its_own_degree(self):
        spec = high_degree_sweep_gate(16)
        _, plan = gate_schedule(spec)
        assert plan.common == () and plan.degree == 17
        assert [m for m, _ in plan.groups] == [1, 2, 17]
        assert dict(plan.mle_points) == {
            "qc": 2, "q1": 3, "q2": 3, "q3": 18, "w1": 18, "w2": 18
        }

    def test_points_are_capped_by_the_round_degree(self):
        plan = schedule_of([("a", 3), ("b", 1)], [("c", 1)], degree=2)
        assert dict(plan.mle_points) == {"a": 3, "b": 3, "c": 2}

    def test_schedule_ignores_coefficients(self):
        """One cached schedule serves every α: the key is the factors."""
        spec = gate_by_id(23)
        first = spec.compiled.bind(Fr, {"alpha": 5})
        second = spec.compiled.bind(Fr, {"alpha": 7})
        assert [t.coeff for t in first] != [t.coeff for t in second]
        assert round_schedule(
            tuple(t.factors for t in first), spec.degree
        ) is round_schedule(tuple(t.factors for t in second), spec.degree)

    @pytest.mark.parametrize(
        "terms, degree",
        [
            ([Term(3, (("a", 1),))], 1),
            ([Term(3, (("fr", 1),)), Term(P - 1, (("fr", 1), ("a", 2)))], 3),
            ([Term(5, (("fr", 2), ("a", 1))), Term(7, (("fr", 2),))], 3),
            ([Term(5, (("fr", 1), ("a", 1))), Term(7, ())], 2),
            # a round degree above, and below, the terms' own
            ([Term(2, (("a", 1), ("b", 1))), Term(9, (("a", 1),))], 4),
            ([Term(2, (("a", 3), ("b", 1))), Term(9, (("a", 1),))], 2),
        ],
    )
    def test_kernel_on_these_shapes_matches_the_oracle(self, terms, degree):
        rng = random.Random(degree)
        names = {name for t in terms for name, _ in t.factors}
        tables = {n: [rng.randrange(P) for _ in range(8)] for n in sorted(names)}
        want = ReferenceBackend().round_evaluations(Fr, terms, tables, degree)
        assert KERNEL.round_evaluations(Fr, terms, tables, degree) == want


class TestExtendByDifferences:
    @pytest.mark.parametrize("m", range(18))
    def test_matches_direct_evaluation(self, m):
        """Random degree-m rows — unreduced, negative, two lanes wide —
        carried from m + 1 points up to five further: exact integer
        equality with evaluating the polynomial directly."""
        rng = random.Random(m)
        width, want = 5, m + 1 + rng.randrange(1, 6)
        rows = [
            [rng.randrange(-(P ** 2), P ** 2) for _ in range(m + 1)]
            for _ in range(width)
        ]

        def value(coeffs, x):
            return sum(c * x ** k for k, c in enumerate(coeffs))

        flat = [value(row, x) for x in range(m + 1) for row in rows]
        assert extend_by_differences(flat, width, m + 1, want) == [
            value(row, x) for x in range(want) for row in rows
        ]

    def test_nothing_to_carry_returns_the_input(self):
        flat = [1, 2, 3, 4]
        assert extend_by_differences(flat, 2, 2, 2) is flat


def traced_peak(call) -> int:
    """Bytes ``call()`` allocates at its high-water mark, above what was
    live before it (allocations made before the call are not traced)."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def gate_tables(gate_id: int, num_vars: int) -> tuple[list, dict]:
    """A Table I gate's bound terms and one random table per MLE."""
    rng = random.Random(num_vars)
    compiled = gate_by_id(gate_id).compiled
    terms = compiled.bind(Fr, {s: rng.randrange(1, P) for s in compiled.scalar_names})
    tables = {
        n: [rng.randrange(P) for _ in range(1 << num_vars)]
        for n in compiled.mle_names
    }
    return terms, tables


def round_peak(gate_id: int, num_vars: int) -> int:
    """The traced peak of one kernel round on the gate's tables."""
    terms, tables = gate_tables(gate_id, num_vars)
    degree = gate_by_id(gate_id).degree
    return traced_peak(
        lambda: KERNEL.round_evaluations(Fr, terms, tables, degree)
    )


class TestWorkingSet:
    """The round kernel holds one tile of extension and power columns,
    whatever 2^μ is, and the prover one folded generation of tables.
    Byte counts from tracemalloc, not seconds: nothing here is timed."""

    def test_a_round_is_bounded_by_the_tile_not_by_mu(self):
        assert (1 << 8) > ROUND_TILE_PAIRS  # μ = 9 already spans tiles
        # 8x the pairs; a whole-table round peaks ~8x higher too
        assert round_peak(22, 12) < 1.5 * round_peak(22, 9)

    def test_a_proof_peaks_at_one_folded_generation_and_a_tile(self):
        """Vanilla at μ = 12, whose tile is small beside a generation,
        so folding into a fresh dict (two generations live) shows too."""
        one_tile = round_peak(20, 8)  # 128 pairs: at least one tile
        terms, tables = gate_tables(20, 12)
        vp = VirtualPolynomial(
            Fr, terms, {n: DenseMLE(Fr, t) for n, t in tables.items()}
        )
        del tables
        generation = traced_peak(
            lambda: [KERNEL.fold(Fr, m.table, 5) for m in vp.mles.values()]
        )
        proof_peak = traced_peak(
            lambda: FastSumCheckProver().prove(vp, Transcript(Fr), claim=0)
        )
        assert proof_peak - generation < 1.25 * one_tile, (
            proof_peak, generation, one_tile
        )
