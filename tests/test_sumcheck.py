"""Unit, integration, and property tests for the SumCheck protocol."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fields import Fr
from repro.fields.counters import recording
from repro.gates import gate_by_id, high_degree_sweep_gate
from repro.mle import DenseMLE, Term, VirtualPolynomial
from repro.sumcheck import (
    SumCheckError,
    Transcript,
    lagrange_eval_at,
    prove_sumcheck,
    prove_zerocheck,
    verify_sumcheck,
    verify_zerocheck,
)

P = Fr.modulus


def make_vp(rng, num_vars=3, gate_id=20):
    spec = gate_by_id(gate_id)
    scalars = {s: rng.randrange(1, P) for s in spec.compiled.scalar_names}
    terms = spec.compiled.bind(Fr, scalars)
    mles = {
        name: DenseMLE.random(Fr, num_vars, rng) for name in spec.compiled.mle_names
    }
    return VirtualPolynomial(Fr, terms, mles)


class TestTranscript:
    def test_determinism(self):
        t1, t2 = Transcript(Fr), Transcript(Fr)
        for t in (t1, t2):
            t.absorb_scalar(b"x", 42)
        assert t1.challenge(b"c") == t2.challenge(b"c")

    def test_divergence_on_different_data(self):
        t1, t2 = Transcript(Fr), Transcript(Fr)
        t1.absorb_scalar(b"x", 42)
        t2.absorb_scalar(b"x", 43)
        assert t1.challenge(b"c") != t2.challenge(b"c")

    def test_divergence_on_label(self):
        t1, t2 = Transcript(Fr), Transcript(Fr)
        t1.absorb_scalar(b"x", 42)
        t2.absorb_scalar(b"y", 42)
        assert t1.challenge(b"c") != t2.challenge(b"c")

    def test_challenges_advance_state(self):
        t = Transcript(Fr)
        assert t.challenge(b"c") != t.challenge(b"c")

    def test_challenges_list(self):
        t = Transcript(Fr)
        cs = t.challenges(b"r", 5)
        assert len(cs) == len(set(cs)) == 5
        assert all(0 <= c < P for c in cs)

    def test_fork_differs_from_parent(self):
        t = Transcript(Fr)
        child = t.fork(b"sub")
        assert child.challenge(b"c") != t.challenge(b"c")

    def test_point_absorption(self):
        from repro.curves import G1, G1_GENERATOR

        t1, t2 = Transcript(Fr), Transcript(Fr)
        t1.absorb_point(b"pt", G1_GENERATOR)
        t2.absorb_point(b"pt", G1.infinity)
        assert t1.challenge(b"c") != t2.challenge(b"c")


class TestLagrange:
    def test_constant(self):
        assert lagrange_eval_at(Fr, [7], 12345) == 7

    def test_interpolates_nodes(self, rng):
        evals = [rng.randrange(P) for _ in range(6)]
        for i, e in enumerate(evals):
            assert lagrange_eval_at(Fr, evals, i) == e

    def test_line(self):
        # s(x) = 3x + 2 via evals at 0,1
        assert lagrange_eval_at(Fr, [2, 5], 10) == 32

    def test_matches_explicit_polynomial(self, rng):
        # s(x) = 5x^3 - 2x + 9
        def s(x):
            return (5 * x**3 - 2 * x + 9) % P

        evals = [s(i) for i in range(4)]
        r = rng.randrange(P)
        assert lagrange_eval_at(Fr, evals, r) == s(r)

    @given(st.lists(st.integers(min_value=0, max_value=P - 1), min_size=2,
                    max_size=9))
    @settings(max_examples=25)
    def test_degree_bound_consistency(self, evals):
        """Interpolating d+1 samples of the interpolant reproduces it."""
        r = 1_000_003
        v = lagrange_eval_at(Fr, evals, r)
        resampled = [lagrange_eval_at(Fr, evals, i) for i in range(len(evals))]
        assert resampled == [e % P for e in evals]
        assert lagrange_eval_at(Fr, resampled, r) == v


class TestSumCheckHonest:
    @pytest.mark.parametrize("gate_id", [0, 1, 2, 3, 20, 22, 24])
    def test_roundtrip_table1_gates(self, rng, gate_id):
        vp = make_vp(rng, num_vars=3, gate_id=gate_id)
        proof = prove_sumcheck(vp, Transcript(Fr))
        challenges = verify_sumcheck(Fr, vp.terms, proof, Transcript(Fr))
        assert len(challenges) == 3

    def test_final_evals_match_tables(self, rng):
        vp = make_vp(rng, num_vars=4)
        proof = prove_sumcheck(vp, Transcript(Fr))
        for name, val in proof.final_evals.items():
            assert vp.mles[name].evaluate(proof.challenges) == val

    def test_oracle_checked_verification(self, rng):
        vp = make_vp(rng, num_vars=3)

        def oracle(name, point):
            return vp.mles[name].evaluate(point)

        proof = prove_sumcheck(vp, Transcript(Fr))
        verify_sumcheck(Fr, vp.terms, proof, Transcript(Fr), oracle)

    def test_high_degree_gate(self, rng):
        spec = high_degree_sweep_gate(9)
        terms = spec.compiled.bind(Fr)
        mles = {
            n: DenseMLE.random(Fr, 3, rng) for n in spec.compiled.mle_names
        }
        vp = VirtualPolynomial(Fr, terms, mles)
        assert vp.degree == 10
        proof = prove_sumcheck(vp, Transcript(Fr))
        assert len(proof.round_evals[0]) == 11
        verify_sumcheck(Fr, vp.terms, proof, Transcript(Fr))

    def test_single_variable(self, rng):
        vp = make_vp(rng, num_vars=1)
        proof = prove_sumcheck(vp, Transcript(Fr))
        verify_sumcheck(Fr, vp.terms, proof, Transcript(Fr))

    def test_claim_equals_hypercube_sum(self, rng):
        vp = make_vp(rng, num_vars=3)
        proof = prove_sumcheck(vp, Transcript(Fr))
        assert proof.claim == vp.sum_over_hypercube()

    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=10, deadline=None)
    def test_property_roundtrip_random_structures(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randrange(1, 4)
        names = [f"m{i}" for i in range(rng.randrange(1, 5))]
        mles = {n: DenseMLE.random(Fr, num_vars, rng) for n in names}
        terms = []
        for _ in range(rng.randrange(1, 4)):
            chosen = rng.sample(names, rng.randrange(1, len(names) + 1))
            factors = tuple((n, rng.randrange(1, 3)) for n in chosen)
            terms.append(Term(rng.randrange(1, P), factors))
        vp = VirtualPolynomial(Fr, terms, mles)
        proof = prove_sumcheck(vp, Transcript(Fr))
        verify_sumcheck(Fr, vp.terms, proof, Transcript(Fr))


class TestSumCheckSoundness:
    def _proof(self, rng, num_vars=3):
        vp = make_vp(rng, num_vars=num_vars)
        return vp, prove_sumcheck(vp, Transcript(Fr))

    def test_wrong_claim_rejected(self, rng):
        vp, proof = self._proof(rng)
        proof.claim = (proof.claim + 1) % P
        with pytest.raises(SumCheckError):
            verify_sumcheck(Fr, vp.terms, proof, Transcript(Fr))

    def test_tampered_round_eval_rejected(self, rng):
        vp, proof = self._proof(rng)
        proof.round_evals[1][0] = (proof.round_evals[1][0] + 1) % P
        with pytest.raises(SumCheckError):
            verify_sumcheck(Fr, vp.terms, proof, Transcript(Fr))

    def test_tampered_final_eval_rejected(self, rng):
        vp, proof = self._proof(rng)
        name = next(iter(proof.final_evals))
        proof.final_evals[name] = (proof.final_evals[name] + 1) % P
        with pytest.raises(SumCheckError):
            verify_sumcheck(Fr, vp.terms, proof, Transcript(Fr))

    def test_missing_round_rejected(self, rng):
        vp, proof = self._proof(rng)
        proof.round_evals.pop()
        with pytest.raises(SumCheckError):
            verify_sumcheck(Fr, vp.terms, proof, Transcript(Fr))

    def test_short_round_rejected(self, rng):
        vp, proof = self._proof(rng)
        proof.round_evals[0] = proof.round_evals[0][:-1]
        with pytest.raises(SumCheckError):
            verify_sumcheck(Fr, vp.terms, proof, Transcript(Fr))

    def test_missing_final_eval_rejected(self, rng):
        vp, proof = self._proof(rng)
        proof.final_evals.pop(next(iter(proof.final_evals)))
        with pytest.raises(SumCheckError):
            verify_sumcheck(Fr, vp.terms, proof, Transcript(Fr))

    def test_oracle_mismatch_rejected(self, rng):
        vp, proof = self._proof(rng)

        def bad_oracle(name, point):
            return vp.mles[name].evaluate(point) + 1

        with pytest.raises(SumCheckError):
            verify_sumcheck(Fr, vp.terms, proof, Transcript(Fr), bad_oracle)

    def test_consistent_forgery_still_fails_final_check(self, rng):
        """A forged trailing round that satisfies s(0)+s(1) still trips
        the composition check — the soundness heart of the protocol."""
        vp, proof = self._proof(rng)
        last = proof.round_evals[-1]
        # craft evals summing to the same s(0)+s(1) but otherwise wrong
        forged = list(last)
        forged[0] = (forged[0] + 5) % P
        forged[1] = (forged[1] - 5) % P
        proof.round_evals[-1] = forged
        with pytest.raises(SumCheckError):
            verify_sumcheck(Fr, vp.terms, proof, Transcript(Fr))


class TestZeroCheck:
    def _zero_witness(self, rng, num_vars=3):
        """Build MLEs where q*(a - b) vanishes on the cube (a == b)."""
        a = DenseMLE.random(Fr, num_vars, rng)
        b = DenseMLE(Fr, list(a.table))
        q = DenseMLE.random(Fr, num_vars, rng)
        terms = [Term(1, (("q", 1), ("a", 1))), Term(-1, (("q", 1), ("b", 1)))]
        return terms, {"q": q, "a": a, "b": b}

    def test_honest_zerocheck_verifies(self, rng):
        terms, mles = self._zero_witness(rng)
        proof = prove_zerocheck(Fr, terms, mles, Transcript(Fr))
        challenges = verify_zerocheck(Fr, terms, proof, Transcript(Fr))
        assert len(challenges) == 3

    def test_zerocheck_with_oracle(self, rng):
        terms, mles = self._zero_witness(rng)
        proof = prove_zerocheck(Fr, terms, mles, Transcript(Fr))
        verify_zerocheck(
            Fr, terms, proof, Transcript(Fr),
            final_eval_oracle=lambda n, pt: mles[n].evaluate(pt),
        )

    def test_nonzero_witness_rejected(self, rng):
        """One bad gate: sum may still be 0, but ZeroCheck catches it."""
        terms, mles = self._zero_witness(rng)
        # corrupt two entries so the plain sum of q*(a-b) stays 0
        t = list(mles["a"].table)
        t[0] = (t[0] + 1) % P
        mles_bad = dict(mles)
        mles_bad["a"] = DenseMLE(Fr, t)
        # make q[0] nonzero to ensure the gate actually fires
        qt = list(mles["q"].table)
        qt[0] = 7
        mles_bad["q"] = DenseMLE(Fr, qt)
        proof = prove_zerocheck(Fr, terms, mles_bad, Transcript(Fr))
        with pytest.raises(SumCheckError):
            verify_zerocheck(Fr, terms, proof, Transcript(Fr))

    def test_reserved_fr_name_rejected(self, rng):
        terms, mles = self._zero_witness(rng)
        mles["fr"] = DenseMLE.random(Fr, 3, rng)
        with pytest.raises(ValueError):
            prove_zerocheck(Fr, terms, mles, Transcript(Fr))

    def test_nonzero_claim_rejected(self, rng):
        terms, mles = self._zero_witness(rng)
        proof = prove_zerocheck(Fr, terms, mles, Transcript(Fr))
        proof.claim = 1
        with pytest.raises(SumCheckError):
            verify_zerocheck(Fr, terms, proof, Transcript(Fr))

    def test_fr_final_eval_checked(self, rng):
        terms, mles = self._zero_witness(rng)
        proof = prove_zerocheck(Fr, terms, mles, Transcript(Fr))
        # Tamper fr's final evaluation AND fix up the composition check:
        # the public eq-evaluation check must still catch it.
        proof.final_evals["fr"] = (proof.final_evals["fr"] + 1) % P
        with pytest.raises(SumCheckError):
            verify_zerocheck(Fr, terms, proof, Transcript(Fr))

    def test_randomizer_degree_bump(self, rng):
        terms, mles = self._zero_witness(rng)
        proof = prove_zerocheck(Fr, terms, mles, Transcript(Fr))
        # base degree 2 (+1 for fr) -> 4 evaluations per round
        assert all(len(e) == 4 for e in proof.round_evals)


class TestOpCounting:
    def test_update_mul_count(self, rng):
        """Per round after the first fold: one EE mul per output entry per MLE."""
        vp = make_vp(rng, num_vars=3, gate_id=2)  # 2 MLEs
        with recording() as counter:
            prove_sumcheck(vp, Transcript(Fr))
        # folds at sizes 8->4, 4->2, 2->1 for each of 2 MLEs
        assert counter.ee_mul == 2 * (4 + 2 + 1)

    def test_pl_mul_count_simple_product(self, rng):
        """Gate 2 (SumABC * Z): degree 2, 3 evals, 2 muls per eval-pair."""
        vp = make_vp(rng, num_vars=3, gate_id=2)
        with recording() as counter:
            prove_sumcheck(vp, Transcript(Fr))
        # pairs per round: 4+2+1 = 7; per pair: 3 evals × 2 factor-muls
        assert counter.pl_mul == 7 * 3 * 2
