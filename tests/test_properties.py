"""Hypothesis property tests on core invariants across the stack."""

import dataclasses
import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fields import Fr
from repro.gates.compiler import compile_expr
from repro.gates.expr import Const, Var
from repro.hw.accelerator import ProtocolBreakdown
from repro.hw.config import SumCheckUnitConfig
from repro.hw.cpu_baseline import sumcheck_modmuls
from repro.hw.scheduler import (
    PolyProfile,
    TermProfile,
    nodes_for_degree,
    schedule_polynomial,
)
from repro.hw.sumcheck_unit import SumCheckUnitModel
from repro.mle import DenseMLE, Term, VirtualPolynomial, build_eq_mle
from repro.sumcheck import Transcript, prove_sumcheck, verify_sumcheck
from repro.sumcheck.univariate import lagrange_eval_at

P = Fr.modulus


# -- strategies -----------------------------------------------------------------

@st.composite
def term_profiles(draw):
    n_factors = draw(st.integers(min_value=1, max_value=5))
    factors = tuple(
        (f"m{draw(st.integers(min_value=0, max_value=7))}",
         draw(st.integers(min_value=1, max_value=4)))
        for _ in range(n_factors)
    )
    # de-duplicate names within the term
    seen = {}
    for name, power in factors:
        seen[name] = seen.get(name, 0) + power
    return TermProfile(tuple(sorted(seen.items())))


@st.composite
def poly_profiles(draw):
    terms = draw(st.lists(term_profiles(), min_size=1, max_size=6))
    return PolyProfile(name="prop", terms=terms)


# -- scheduler invariants ----------------------------------------------------------

class TestSchedulerProperties:
    @given(poly=poly_profiles(),
           ees=st.integers(min_value=2, max_value=8),
           pls=st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_schedule_covers_all_factor_slots(self, poly, ees, pls):
        sched = schedule_polynomial(poly, ees, pls)
        slots = sum(n.factor_slots for n in sched.nodes)
        assert slots == sum(t.degree for t in poly.terms)

    @given(poly=poly_profiles(),
           ees=st.integers(min_value=2, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_node_counts_match_closed_form(self, poly, ees):
        sched = schedule_polynomial(poly, ees, 4)
        per_term: dict[int, int] = {}
        for node in sched.nodes:
            per_term[node.term_index] = per_term.get(node.term_index, 0) + 1
        for idx, term in enumerate(poly.terms):
            assert per_term[idx] == nodes_for_degree(term.degree, ees)

    @given(poly=poly_profiles(),
           ees=st.integers(min_value=2, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_nodes_never_exceed_capacity(self, poly, ees):
        sched = schedule_polynomial(poly, ees, 4)
        for node in sched.nodes:
            cap = ees if node.node_index == 0 else ees - 1
            assert 1 <= node.factor_slots <= cap

    @given(poly=poly_profiles())
    @settings(max_examples=40, deadline=None)
    def test_more_ees_never_more_steps(self, poly):
        steps = [schedule_polynomial(poly, e, 4).num_steps
                 for e in range(2, 9)]
        assert steps == sorted(steps, reverse=True)

    @given(poly=poly_profiles(),
           ees=st.integers(min_value=2, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_fetch_each_unique_mle_once(self, poly, ees):
        sched = schedule_polynomial(poly, ees, 4)
        fetched = [n for node in sched.nodes for n in node.new_names]
        assert sorted(fetched) == sorted(poly.unique_mles)


# -- hardware model invariants --------------------------------------------------------

class TestModelProperties:
    @given(poly=poly_profiles(),
           mu=st.integers(min_value=2, max_value=20),
           bw=st.sampled_from([64, 512, 4096]))
    @settings(max_examples=30, deadline=None)
    def test_latency_positive_and_bw_monotone(self, poly, mu, bw):
        cfg = SumCheckUnitConfig(pes=4, ees_per_pe=4, pls_per_pe=4,
                                 sram_bank_words=1024)
        slow = SumCheckUnitModel(cfg, bw).run(poly, mu)
        fast = SumCheckUnitModel(cfg, bw * 2).run(poly, mu)
        assert slow.latency_s > 0
        assert fast.latency_s <= slow.latency_s + 1e-12

    @given(poly=poly_profiles(), mu=st.integers(min_value=2, max_value=16))
    @settings(max_examples=30, deadline=None)
    def test_utilization_bounded(self, poly, mu):
        cfg = SumCheckUnitConfig(pes=2, ees_per_pe=3, pls_per_pe=3)
        run = SumCheckUnitModel(cfg, 1024).run(poly, mu)
        assert 0.0 <= run.utilization <= 1.0

    @given(poly=poly_profiles(), mu=st.integers(min_value=2, max_value=18))
    @settings(max_examples=30, deadline=None)
    def test_cpu_modmuls_positive_and_monotone_in_mu(self, poly, mu):
        assert sumcheck_modmuls(poly, mu) < sumcheck_modmuls(poly, mu + 1)


PHASES = [f.name for f in dataclasses.fields(ProtocolBreakdown)
          if f.name != "masked"]


class TestOverlapScheduleMonotone:
    """What the DSE's dominance prune rests on: a slower phase never makes
    the proof faster, with the ZeroCheck masked or not."""

    @given(ticks=st.lists(st.integers(min_value=0, max_value=10**9),
                          min_size=len(PHASES), max_size=len(PHASES)),
           phase=st.sampled_from(PHASES),
           extra=st.integers(min_value=1, max_value=10**9),
           masked=st.booleans())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_total_never_falls_when_a_phase_rises(self, ticks, phase, extra,
                                                  masked):
        # integer-valued latencies: every sum and max below is exact
        latencies = dict(zip(PHASES, map(float, ticks)))
        base = ProtocolBreakdown(**latencies, masked=masked).total
        latencies[phase] += extra
        raised = ProtocolBreakdown(**latencies, masked=masked).total
        assert raised >= base

    @given(seconds=st.lists(st.floats(min_value=1e-6, max_value=10.0),
                            min_size=len(PHASES), max_size=len(PHASES)),
           phase=st.sampled_from(PHASES),
           extra=st.floats(min_value=0.0, max_value=10.0),
           masked=st.booleans())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_in_floating_point_up_to_rounding(self, seconds, phase, extra,
                                              masked):
        """wire + max(0, zerocheck - wire) is rounded twice, so a masked
        total may move by an ulp or two against the exact direction."""
        latencies = dict(zip(PHASES, seconds))
        base = ProtocolBreakdown(**latencies, masked=masked).total
        latencies[phase] += extra
        raised = ProtocolBreakdown(**latencies, masked=masked).total
        assert raised >= base - 4 * math.ulp(base)


# -- protocol-layer properties -------------------------------------------------------

class TestProtocolProperties:
    @given(seed=st.integers(min_value=0, max_value=2**32),
           mu=st.integers(min_value=1, max_value=4))
    @settings(max_examples=15, deadline=None)
    def test_sumcheck_roundtrip_any_compiled_expression(self, seed, mu):
        """Random small expressions compile, prove, and verify."""
        rng = random.Random(seed)
        a, b, c = Var("a"), Var("b"), Var("c")
        pool = [a * b + c, (a + b) * (b + c), a * a * b - c + 1,
                (a - b) * (a + b) + c * c]
        expr = pool[rng.randrange(len(pool))]
        compiled = compile_expr("prop", expr + Const(1))
        terms = compiled.bind(Fr)
        mles = {n: DenseMLE.random(Fr, mu, rng) for n in compiled.mle_names}
        vp = VirtualPolynomial(Fr, terms, mles)
        proof = prove_sumcheck(vp, Transcript(Fr))
        verify_sumcheck(Fr, vp.terms, proof, Transcript(Fr))

    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=15, deadline=None)
    def test_round_polynomial_consistency(self, seed):
        """Each round polynomial's s(0)+s(1) equals evaluating the claim
        chain — the SumCheck soundness invariant, checked directly."""
        rng = random.Random(seed)
        mles = {n: DenseMLE.random(Fr, 3, rng) for n in ("x", "y")}
        vp = VirtualPolynomial(
            Fr, [Term(1, (("x", 1), ("y", 2)))], mles)
        proof = prove_sumcheck(vp, Transcript(Fr))
        claim = proof.claim
        for evals, r in zip(proof.round_evals, proof.challenges):
            assert (evals[0] + evals[1]) % P == claim % P
            claim = lagrange_eval_at(Fr, evals, r)
        assert vp.combine(proof.final_evals) == claim

    @given(seed=st.integers(min_value=0, max_value=2**32),
           mu=st.integers(min_value=1, max_value=5))
    @settings(max_examples=15, deadline=None)
    def test_eq_partition_of_unity(self, seed, mu):
        rng = random.Random(seed)
        r = [rng.randrange(P) for _ in range(mu)]
        eq = build_eq_mle(Fr, r)
        assert sum(eq.table) % P == 1
