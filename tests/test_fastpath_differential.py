"""Differential tests: the field-vector kernel vs the reference oracle.

The kernel (:data:`repro.fields.vector.KERNEL`) reorders arithmetic
aggressively (deferred modular reduction, column-level power chains,
flat extension layouts), so these tests pin down the only contract that
matters: on the same inputs, the one round loop run on the kernel and on
:class:`~repro.fields.vector.ReferenceBackend` must produce
**bit-identical** round evaluations, Fiat–Shamir challenges, final
evaluations, and :mod:`~repro.fields.counters` records.  A
second family cross-checks the Montgomery REDC model against native
field multiplication.
"""

import random

import pytest

from repro.fields import (
    KERNEL,
    Fq,
    Fr,
    MontgomeryContext,
    OpCounter,
    ReferenceBackend,
    get_backend,
)
from repro.fields.counters import recording
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

REFERENCE = ReferenceBackend()

#: μ = 4 and tables whose first round has fewer pairs than a tile, one
#: tile, two and eight (``ROUND_TILE_PAIRS`` = 128)
TILE_EDGE_NUM_VARS = [4, 7, 8, 9, 11]

#: the oracle (a self-check of the harness) and the kernel; the ids are
#: the names the two once had in a by-name registry
ORACLE_AND_KERNEL = pytest.mark.parametrize(
    "kernel", [REFERENCE, KERNEL], ids=["reference", "fused"]
)
KERNEL_ONLY = pytest.mark.parametrize("kernel", [KERNEL], ids=["fused"])


def counter_tuple(c: OpCounter) -> tuple:
    """A record's field counts, in total and per phase."""
    return (c.mul, c.add, c.inv, c.ee_mul, c.pl_mul, dict(c.labels),
            [(name, counter_tuple(row)) for name, row in c.phases.items()])


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


#: table entries that sit on the edges of the field and of 64-bit words:
#: runs of 0/1 and p-1 drive round sums to 0 and ±1, which a schedule
#: that skips or reorders additions would get wrong
BOUNDARY = (0, 1, 2, P - 2, P - 1, (1 << 64) - 1, (1 << 255) % P)


def gate_polynomial(
    spec, num_vars: int, tables: str = "random"
) -> VirtualPolynomial:
    """``spec`` bound to random scalars over seeded dense MLEs whose
    entries are uniform (``tables="random"``) or drawn from
    :data:`BOUNDARY` (``tables="boundary"``)."""
    rng = random.Random(f"{SEED}/{spec.name}/{num_vars}")
    compiled = spec.compiled
    scalars = {s: rng.randrange(1, P) for s in compiled.scalar_names}
    if tables == "boundary":
        mles = {
            n: DenseMLE(Fr, [rng.choice(BOUNDARY) for _ in range(1 << num_vars)])
            for n in compiled.mle_names
        }
    else:
        mles = {
            n: DenseMLE.random(Fr, num_vars, rng) for n in compiled.mle_names
        }
    return VirtualPolynomial(Fr, compiled.bind(Fr, scalars), mles)


def assert_equivalent(vp: VirtualPolynomial, kernel):
    """``kernel``'s proof and tallies equal the oracle's; returns it."""
    with recording() as ref_counter:
        ref = FastSumCheckProver(kernel=REFERENCE).prove(vp, Transcript(Fr))

    with recording() as fast_counter:
        fast = FastSumCheckProver(kernel=kernel).prove(vp, Transcript(Fr))

    assert fast.claim == ref.claim
    assert fast.round_evals == ref.round_evals
    assert fast.challenges == ref.challenges
    assert fast.final_evals == ref.final_evals
    assert counter_tuple(fast_counter) == counter_tuple(ref_counter)
    return fast


class TestBackendDifferential:
    @ORACLE_AND_KERNEL
    @pytest.mark.parametrize("num_vars", [*range(2, 10), 11])
    def test_random_compositions_sweep_num_vars(self, kernel, num_vars):
        rng = random.Random(SEED + num_vars)
        degree = rng.randrange(1, 6)
        vp = random_virtual_polynomial(rng, num_vars, degree)
        assert_equivalent(vp, kernel)

    @ORACLE_AND_KERNEL
    @pytest.mark.parametrize("degree", range(1, 6))
    def test_random_compositions_sweep_degree(self, kernel, degree):
        rng = random.Random(SEED * 31 + degree)
        vp = random_virtual_polynomial(rng, 4, degree)
        assert_equivalent(vp, kernel)

    @KERNEL_ONLY
    @pytest.mark.parametrize("num_vars", TILE_EDGE_NUM_VARS)
    @pytest.mark.parametrize("gate_id", [0, 20, 21, 22, 23, 24])
    def test_table1_gates(self, gate_id, num_vars, kernel):
        assert_equivalent(gate_polynomial(gate_by_id(gate_id), num_vars), kernel)

    @KERNEL_ONLY
    @pytest.mark.parametrize("num_vars", [3, 11])
    @pytest.mark.parametrize("degree", [2, 4, 6, 9])
    def test_high_degree_sweep_gates(self, degree, num_vars, kernel):
        vp = gate_polynomial(high_degree_sweep_gate(degree), num_vars)
        assert_equivalent(vp, kernel)

    @KERNEL_ONLY
    def test_sparse_tables(self, kernel, rng):
        terms = [
            Term(rng.randrange(1, P), (("a", 2), ("b", 1))),
            Term(rng.randrange(1, P), (("c", 1),)),
        ]
        mles = {
            n: DenseMLE.random(Fr, 5, rng, sparsity=0.9) for n in "abc"
        }
        assert_equivalent(VirtualPolynomial(Fr, terms, mles), kernel)

    @KERNEL_ONLY
    def test_unused_mles_still_folded_and_reported(self, kernel, rng):
        """Tables not referenced by any term must appear in final_evals
        (and their fold ops in the tally) exactly as in the reference."""
        terms = [Term(3, (("a", 1),))]
        mles = {
            "a": DenseMLE.random(Fr, 3, rng),
            "zz_unused": DenseMLE.random(Fr, 3, rng),
        }
        assert_equivalent(VirtualPolynomial(Fr, terms, mles), kernel)

    @ORACLE_AND_KERNEL
    @pytest.mark.parametrize("num_vars", [3, *TILE_EDGE_NUM_VARS[1:]])
    def test_all_constant_terms(self, kernel, num_vars, rng):
        """Degenerate composition with no MLE factors at all (degree 0)."""
        terms = [Term(rng.randrange(1, P), ()), Term(rng.randrange(P), ())]
        mles = {"a": DenseMLE.random(Fr, num_vars, rng)}
        assert_equivalent(VirtualPolynomial(Fr, terms, mles), kernel)

    def test_explicit_claim_and_backend_kwarg(self, rng):
        vp = random_virtual_polynomial(rng, 3, 3)
        claim = vp.sum_over_hypercube()
        ref = FastSumCheckProver(kernel=REFERENCE).prove(
            vp, Transcript(Fr), claim=claim
        )
        via_kwarg = FastSumCheckProver(backend="fused").prove(
            vp, Transcript(Fr), claim=claim
        )
        assert via_kwarg.round_evals == ref.round_evals
        assert via_kwarg.final_evals == ref.final_evals
        assert prove_sumcheck(vp, Transcript(Fr), claim=claim) == via_kwarg

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
        for name in ("turbo", "reference"):
            with pytest.raises(ValueError, match="unknown vector backend.*'fused'"):
                FastSumCheckProver(name)


class TestBackendRegistry:
    """What is left of the retired by-name registry: the spellings a
    caller outside ``src`` may still pass accept only ``None`` and
    ``"fused"`` and store nothing, and no CLI takes ``--backend``."""

    PARSERS = ["repro.service", "repro.cluster", "repro.fleet"]

    def test_unknown_backend_is_a_value_error(self):
        assert get_backend() is get_backend("fused") is KERNEL
        for name in ("turbo", "reference"):
            with pytest.raises(ValueError, match="unknown vector backend.*'fused'"):
                get_backend(name)

    def test_retired_spellings_store_nothing(self):
        import pickle

        from repro.hyperplonk import HyperPlonkProver
        from repro.service import ServiceConfig
        from repro.service.traffic import GATE_TYPES, synthesize_circuit
        from repro.service.workers import ProveTask

        circuit = synthesize_circuit(GATE_TYPES["vanilla"], 2)
        task = ProveTask(job_id=0, circuit=circuit, backend="fused",
                         circuit_key="k")
        assert "backend" not in vars(task)
        assert "backend" not in vars(pickle.loads(pickle.dumps(task)))
        assert "default_backend" not in vars(
            ServiceConfig(default_backend="fused")
        )
        with pytest.raises(ValueError, match="'fused'"):
            ProveTask(job_id=0, circuit=circuit, backend="reference",
                      circuit_key="k")
        with pytest.raises(ValueError, match="'fused'"):
            ServiceConfig(default_backend="reference")
        with pytest.raises(ValueError, match="'fused'"):
            HyperPlonkProver(circuit, None, None, backend="reference")

    @pytest.mark.parametrize("module", PARSERS)
    def test_bad_backend_exits_2(self, module, capsys):
        import importlib

        cli = importlib.import_module(f"{module}.__main__")
        for value in ("nope", "fused"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["--backend", value])
            assert exc.value.code == 2
            assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_experiments_bad_backend_exits_2(self, capsys):
        from repro.experiments.__main__ import main

        for argv in (["--backend", "nope"], ["--backend", "fused"],
                     ["--backend=fused"]):
            assert main(argv) == 2
            assert "unknown flag(s): --backend" in capsys.readouterr().err


#: every gate the paper evaluates: Table I's 25 rows and the degree-sweep
#: family with and without the ZeroCheck randomizer (a common factor)
GATE_MATRIX = [pytest.param(gate_by_id(i), id=f"table1-{i}") for i in range(25)] + [
    pytest.param(high_degree_sweep_gate(d, with_fr), id=f"sweep-d{d}-fr{int(with_fr)}")
    for d in (2, 3, 7, 16)
    for with_fr in (False, True)
]


@pytest.mark.parametrize("num_vars", [1, 2, 3, 5, 9])
@pytest.mark.parametrize("spec", GATE_MATRIX)
@pytest.mark.parametrize("tables", ["random", "boundary"])
class TestGateMatrix:
    """The round schedule differs per term structure (common factor or
    not, which degree groups, how far each MLE is extended), so every
    gate shape is pinned to the oracle, not a sample of them — on
    uniform tables and on tables built from field-edge values."""

    @KERNEL_ONLY
    def test_proof_and_tallies_match_reference(
        self, spec, num_vars, tables, kernel
    ):
        vp = gate_polynomial(spec, num_vars, tables)
        fast = assert_equivalent(vp, kernel)
        verify_sumcheck(
            Fr, vp.terms, fast, Transcript(Fr),
            final_eval_oracle=lambda name, point: vp.mles[name].evaluate(point),
        )

    def test_hypercube_sum_matches_index_walk(self, spec, num_vars, tables):
        vp = gate_polynomial(spec, num_vars, tables)
        walk = sum(vp.evaluate_at_index(i) for i in range(1 << num_vars)) % P
        assert vp.sum_over_hypercube() == walk


class TestHyperPlonkBackendDifferential:
    """The full HyperPlonk prover on the kernel must emit a byte-identical
    proof to the same prover with every kernel method swapped for the
    oracle's (and verify)."""

    @KERNEL_ONLY
    def test_end_to_end_proof_identical_and_verifies(self, kernel, on_kernel):
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

        with recording() as fused_counter:
            fused = HyperPlonkProver(circuit, pidx, kzg).prove()
        on_kernel(REFERENCE)
        with recording() as ref_counter:
            ref = HyperPlonkProver(circuit, pidx, kzg).prove()

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
