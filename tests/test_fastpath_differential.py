"""Differential tests: fast-path backends vs the reference scalar prover.

The ``fused`` field-vector backend reorders arithmetic aggressively
(deferred modular reduction, column-level power chains, flat extension
layouts), so these tests pin down the only contract that matters: on the
same inputs, every backend must produce **bit-identical** round
evaluations, Fiat–Shamir challenges, final evaluations, and
:class:`~repro.fields.counters.OpCounter` tallies.  A second family
cross-checks the Montgomery REDC model against native field
multiplication.
"""

import random

import pytest

from repro.fields import (
    Fq,
    Fr,
    MontgomeryContext,
    OpCounter,
    available_backends,
    list_backends,
)
from repro.gates import gate_by_id, high_degree_sweep_gate
from repro.mle import DenseMLE, Term, VirtualPolynomial
from repro.sumcheck import (
    FastSumCheckProver,
    Transcript,
    prove_sumcheck,
    verify_sumcheck,
)

P = Fr.modulus

SEED = 0xD1FF

#: every registered backend inherits the full differential matrix —
#: hardcoding reference/fused here would silently exempt new backends
BACKENDS = list_backends()
FAST_BACKENDS = [b for b in BACKENDS if b != "reference"]


def counter_tuple(c: OpCounter) -> tuple:
    return (c.mul, c.add, c.inv, c.ee_mul, c.pl_mul, dict(c.labels))


def random_virtual_polynomial(
    rng: random.Random, num_vars: int, degree: int
) -> VirtualPolynomial:
    """A random multi-term composition of exact total degree ``degree``.

    Terms use random subsets of a shared MLE pool with random powers, so
    the sweep exercises single-factor, multi-factor, and multi-power
    (w^k) product lanes, plus a factorless constant term.
    """
    pool = [f"m{i}" for i in range(min(degree + 2, 6))]
    terms = []
    num_terms = rng.randrange(2, 5)
    for t in range(num_terms):
        target = degree if t == 0 else rng.randrange(1, degree + 1)
        names = rng.sample(pool, k=min(rng.randrange(1, 4), target))
        powers = [1] * len(names)
        for _ in range(target - len(names)):
            powers[rng.randrange(len(names))] += 1
        factors = tuple(zip(names, powers))
        terms.append(Term(rng.randrange(1, P), factors))
    terms.append(Term(rng.randrange(P), ()))  # constant term
    mles = {name: DenseMLE.random(Fr, num_vars, rng) for name in pool}
    return VirtualPolynomial(Fr, terms, mles)


def gate_polynomial(spec, num_vars: int) -> VirtualPolynomial:
    """``spec`` bound to random scalars over random dense MLEs (seeded)."""
    rng = random.Random(f"{SEED}/{spec.name}/{num_vars}")
    compiled = spec.compiled
    scalars = {s: rng.randrange(1, P) for s in compiled.scalar_names}
    mles = {
        n: DenseMLE.random(Fr, num_vars, rng) for n in compiled.mle_names
    }
    return VirtualPolynomial(Fr, compiled.bind(Fr, scalars), mles)


def assert_equivalent(vp: VirtualPolynomial, backend: str):
    """``backend``'s proof and tallies equal the reference's; returns it."""
    ref_counter = OpCounter()
    ref = prove_sumcheck(vp, Transcript(Fr), counter=ref_counter)

    fast_counter = OpCounter()
    fast = FastSumCheckProver(backend).prove(
        vp, Transcript(Fr), counter=fast_counter
    )

    assert fast.claim == ref.claim
    assert fast.round_evals == ref.round_evals
    assert fast.challenges == ref.challenges
    assert fast.final_evals == ref.final_evals
    assert counter_tuple(fast_counter) == counter_tuple(ref_counter)
    return fast


class TestBackendDifferential:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("num_vars", range(2, 9))
    def test_random_compositions_sweep_num_vars(self, backend, num_vars):
        rng = random.Random(SEED + num_vars)
        degree = rng.randrange(1, 6)
        vp = random_virtual_polynomial(rng, num_vars, degree)
        assert_equivalent(vp, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("degree", range(1, 6))
    def test_random_compositions_sweep_degree(self, backend, degree):
        rng = random.Random(SEED * 31 + degree)
        vp = random_virtual_polynomial(rng, 4, degree)
        assert_equivalent(vp, backend)

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("gate_id", [0, 20, 22, 24])
    def test_table1_gates(self, gate_id, backend):
        assert_equivalent(gate_polynomial(gate_by_id(gate_id), 4), backend)

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("degree", [2, 4, 6, 9])
    def test_high_degree_sweep_gates(self, degree, backend):
        vp = gate_polynomial(high_degree_sweep_gate(degree), 3)
        assert_equivalent(vp, backend)

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_sparse_tables(self, backend, rng):
        terms = [
            Term(rng.randrange(1, P), (("a", 2), ("b", 1))),
            Term(rng.randrange(1, P), (("c", 1),)),
        ]
        mles = {
            n: DenseMLE.random(Fr, 5, rng, sparsity=0.9) for n in "abc"
        }
        assert_equivalent(VirtualPolynomial(Fr, terms, mles), backend)

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_unused_mles_still_folded_and_reported(self, backend, rng):
        """Tables not referenced by any term must appear in final_evals
        (and their fold ops in the counter) exactly as in the reference."""
        terms = [Term(3, (("a", 1),))]
        mles = {
            "a": DenseMLE.random(Fr, 3, rng),
            "zz_unused": DenseMLE.random(Fr, 3, rng),
        }
        assert_equivalent(VirtualPolynomial(Fr, terms, mles), backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_constant_terms(self, backend, rng):
        """Degenerate composition with no MLE factors at all (degree 0)."""
        terms = [Term(rng.randrange(1, P), ()), Term(rng.randrange(P), ())]
        mles = {"a": DenseMLE.random(Fr, 3, rng)}
        assert_equivalent(VirtualPolynomial(Fr, terms, mles), backend)

    def test_explicit_claim_and_backend_kwarg(self, rng):
        vp = random_virtual_polynomial(rng, 3, 3)
        claim = vp.sum_over_hypercube()
        ref = prove_sumcheck(vp, Transcript(Fr), claim=claim)
        via_kwarg = prove_sumcheck(
            vp, Transcript(Fr), claim=claim, backend="fused"
        )
        assert via_kwarg.round_evals == ref.round_evals
        assert via_kwarg.final_evals == ref.final_evals

    def test_fused_proof_verifies(self, rng):
        vp = random_virtual_polynomial(rng, 4, 3)
        proof = FastSumCheckProver("fused").prove(vp, Transcript(Fr))
        def oracle(name, point):
            return vp.mles[name].evaluate(point)

        challenges = verify_sumcheck(
            Fr, vp.terms, proof, Transcript(Fr), final_eval_oracle=oracle
        )
        assert challenges == proof.challenges

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown vector backend"):
            FastSumCheckProver("turbo")

    def test_registry_lists_both_backends(self):
        names = available_backends()
        assert "reference" in names and "fused" in names
        assert names == list_backends()  # the alias stays in sync


#: every gate the paper evaluates: Table I's 25 rows and the degree-sweep
#: family with and without the ZeroCheck randomizer (a common factor)
GATE_MATRIX = [pytest.param(gate_by_id(i), id=f"table1-{i}") for i in range(25)] + [
    pytest.param(high_degree_sweep_gate(d, with_fr), id=f"sweep-d{d}-fr{int(with_fr)}")
    for d in (2, 3, 7, 16)
    for with_fr in (False, True)
]


@pytest.mark.parametrize("num_vars", [1, 2, 3, 5])
@pytest.mark.parametrize("spec", GATE_MATRIX)
class TestGateMatrix:
    """The round schedule differs per term structure (common factor or
    not, which degree groups, how far each MLE is extended), so every
    gate shape is pinned to the oracle, not a sample of them."""

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_proof_and_tallies_match_reference(self, spec, num_vars, backend):
        vp = gate_polynomial(spec, num_vars)
        fast = assert_equivalent(vp, backend)
        verify_sumcheck(
            Fr, vp.terms, fast, Transcript(Fr),
            final_eval_oracle=lambda name, point: vp.mles[name].evaluate(point),
        )

    def test_hypercube_sum_matches_index_walk(self, spec, num_vars):
        vp = gate_polynomial(spec, num_vars)
        walk = sum(vp.evaluate_at_index(i) for i in range(1 << num_vars)) % P
        assert vp.sum_over_hypercube() == walk


class TestHyperPlonkBackendDifferential:
    """Every fast backend threaded through the full HyperPlonk prover
    must emit a byte-identical proof (and verify)."""

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_end_to_end_proof_identical_and_verifies(self, backend):
        from repro.hyperplonk import (
            JELLYFISH,
            CircuitBuilder,
            HyperPlonkProver,
            HyperPlonkVerifier,
            MultilinearKZG,
            TrapdoorSRS,
            preprocess,
        )

        b = CircuitBuilder(JELLYFISH, Fr)
        x = b.new_wire(3)
        h = b.pow5(x)
        y = b.add(h, x)
        z = b.mul(y, h)
        b.assert_equal(z, b.constant(246 * 243 % P))
        circuit = b.build(min_gates=8)

        srs = TrapdoorSRS(circuit.num_vars, random.Random(7))
        kzg = MultilinearKZG(srs)
        pidx, vidx = preprocess(circuit, kzg)

        ref_counter, fused_counter = OpCounter(), OpCounter()
        ref = HyperPlonkProver(circuit, pidx, kzg).prove(ref_counter)
        fused = HyperPlonkProver(circuit, pidx, kzg, backend=backend).prove(
            fused_counter
        )

        for sc_name in ("gate_zerocheck", "perm_zerocheck"):
            a, b2 = getattr(ref, sc_name), getattr(fused, sc_name)
            assert a.round_evals == b2.round_evals
            assert a.challenges == b2.challenges
            assert a.final_evals == b2.final_evals
        assert (
            ref.opencheck.sumcheck.round_evals
            == fused.opencheck.sumcheck.round_evals
        )
        assert (
            ref.opencheck.combined_opening.value
            == fused.opencheck.combined_opening.value
        )
        assert ref.perm_witness_evals == fused.perm_witness_evals
        assert counter_tuple(ref_counter) == counter_tuple(fused_counter)

        HyperPlonkVerifier(Fr, vidx, kzg).verify(fused)


class TestArrayLimbDifferential:
    """The numpy limb-plane reduction kernels vs native field arithmetic.

    Exercises the ``array`` backend's two reduction paths directly —
    pre-scaled Montgomery REDC (scalar products) and digit-level Barrett
    (vector products) — against ``field.mul`` on random and edge values,
    independently of any prover plumbing.
    """

    @pytest.mark.parametrize("field", [Fr, Fq], ids=["Fr", "Fq"])
    def test_limb_reductions_agree_with_field_mul(self, field):
        pytest.importorskip("numpy")
        from repro.fields.array_backend import (
            from_planes,
            get_plan,
            mont_mul_scalar,
            mul_mod,
            to_planes,
        )

        plan = get_plan(field)
        p = field.modulus
        rng = random.Random(SEED ^ p)
        edge = [0, 1, p - 1, plan.r % p, plan.r2]
        xs = edge + [rng.randrange(p) for _ in range(64)]
        ys = edge[::-1] + [rng.randrange(p) for _ in range(64)]
        a = to_planes(plan, xs)
        b = to_planes(plan, ys)
        barrett = from_planes(plan, mul_mod(plan, a, b))
        assert barrett == [field.mul(x, y) for x, y in zip(xs, ys)]
        for c in edge:
            redc = from_planes(
                plan, mont_mul_scalar(plan, a, plan.mont_scalar(c))
            )
            assert redc == [field.mul(x, c) for x in xs]

    def test_plan_rejects_even_and_oversized_moduli(self):
        pytest.importorskip("numpy")
        from types import SimpleNamespace

        from repro.fields.array_backend import LimbPlan

        # LimbPlan only reads .modulus, so a stand-in reaches the guards
        # that PrimeField's own constructor checks would otherwise shadow
        with pytest.raises(ValueError, match="odd modulus"):
            LimbPlan(SimpleNamespace(modulus=(1 << 61) - 2))
        with pytest.raises(ValueError, match="too wide"):
            LimbPlan(SimpleNamespace(modulus=(1 << 500) | 1))

    def test_roundtrip_planes(self):
        pytest.importorskip("numpy")
        from repro.fields.array_backend import (
            from_planes,
            get_plan,
            to_planes,
        )

        plan = get_plan(Fr)
        rng = random.Random(SEED)
        vals = [0, 1, P - 1] + [rng.randrange(P) for _ in range(33)]
        assert from_planes(plan, to_planes(plan, vals)) == vals


class TestMontgomeryDifferential:
    """REDC (to_mont → mont_mul → from_mont) vs native PrimeField.mul."""

    EDGE = (0, 1)

    @pytest.mark.parametrize(
        "field,limbs", [(Fr, 4), (Fq, 6)], ids=["Fr-4limb", "Fq-6limb"]
    )
    def test_redc_agrees_on_random_vectors(self, field, limbs):
        ctx = MontgomeryContext(field)
        assert ctx.limbs == limbs
        rng = random.Random(SEED ^ field.modulus)
        edge = [0, 1, field.modulus - 1]
        xs = edge + [rng.randrange(field.modulus) for _ in range(64)]
        ys = edge[::-1] + [rng.randrange(field.modulus) for _ in range(64)]
        for a, b in zip(xs, ys):
            assert ctx.mul(a, b) == field.mul(a, b)

    @pytest.mark.parametrize("field", [Fr, Fq], ids=["Fr", "Fq"])
    def test_edge_value_products(self, field):
        ctx = MontgomeryContext(field)
        edge = [0, 1, field.modulus - 1]
        for a in edge:
            for b in edge:
                assert ctx.mul(a, b) == field.mul(a, b)

    @pytest.mark.parametrize("field", [Fr, Fq], ids=["Fr", "Fq"])
    def test_mont_domain_roundtrip(self, field):
        ctx = MontgomeryContext(field)
        rng = random.Random(SEED)
        for a in [0, 1, field.modulus - 1] + [
            rng.randrange(field.modulus) for _ in range(32)
        ]:
            assert ctx.from_mont(ctx.to_mont(a)) == a
