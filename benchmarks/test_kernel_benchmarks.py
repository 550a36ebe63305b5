"""Micro-benchmarks of the functional kernels (pytest-benchmark).

These time the pure-Python substrate itself (field ops, MSM, SumCheck,
full proofs at small scale) — useful for tracking the functional layer's
performance, and a live demonstration of *why* the paper needs an
accelerator: the asymmetry between these numbers and the model's
hardware latencies is the paper's motivation.
"""

import random

import pytest

from repro.curves import G1_GENERATOR, msm_pippenger
from repro.fields import FR_MODULUS, Fr
from repro.gates import gate_by_id
from repro.hyperplonk import (
    CircuitBuilder,
    HyperPlonkProver,
    MultilinearKZG,
    TrapdoorSRS,
    VANILLA,
    preprocess,
)
from repro.mle import DenseMLE, VirtualPolynomial
from repro.sumcheck import Transcript, prove_sumcheck

RNG = random.Random(0xBEEF)


class TestFieldKernels:
    def test_bench_modmul(self, benchmark):
        a = RNG.randrange(FR_MODULUS)
        b = RNG.randrange(FR_MODULUS)
        benchmark(Fr.mul, a, b)

    def test_bench_modinv(self, benchmark):
        a = RNG.randrange(1, FR_MODULUS)
        benchmark(Fr.inv, a)


class TestCurveKernels:
    def test_bench_point_add(self, benchmark):
        p = G1_GENERATOR.to_jacobian()
        q = G1_GENERATOR.double()  # affine
        benchmark(p.add_affine, q)

    def test_bench_msm_64(self, benchmark):
        points = [G1_GENERATOR.scalar_mul(i + 1) for i in range(64)]
        scalars = [RNG.randrange(FR_MODULUS) for _ in range(64)]
        benchmark.pedantic(msm_pippenger, args=(scalars, points),
                           rounds=1, iterations=1)


class TestSumCheckKernels:
    @pytest.mark.parametrize("gate_id", [20, 22])
    def test_bench_sumcheck(self, benchmark, gate_id):
        spec = gate_by_id(gate_id)
        scalars = {s: 7 for s in spec.compiled.scalar_names}
        terms = spec.compiled.bind(Fr, scalars)
        mles = {
            n: DenseMLE.random(Fr, 8, RNG) for n in spec.compiled.mle_names
        }
        vp = VirtualPolynomial(Fr, terms, mles)
        benchmark.pedantic(
            lambda: prove_sumcheck(vp, Transcript(Fr)),
            rounds=1, iterations=1,
        )


class TestEndToEnd:
    def test_bench_hyperplonk_prove(self, benchmark):
        b = CircuitBuilder(VANILLA, Fr)
        x = b.new_wire(3)
        y = b.new_wire(5)
        m = b.mul(b.add(x, y), x)
        b.assert_equal(m, b.constant(24))
        circuit = b.build(min_gates=8)
        kzg = MultilinearKZG(TrapdoorSRS(circuit.num_vars, RNG))
        pidx, _ = preprocess(circuit, kzg)
        prover = HyperPlonkProver(circuit, pidx, kzg)
        benchmark.pedantic(prover.prove, rounds=1, iterations=1)
