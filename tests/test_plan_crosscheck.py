"""The plan layer's semantic anchor (ISSUE 3 satellite): ProofPlan's
predicted modmul/MSM counts equal the **actual** ``OpCounter`` tallies of
a real ``HyperPlonkProver.prove()`` run, for Vanilla and Jellyfish at two
sizes each.

If a protocol change alters what a proof computes, this fails before any
scheduler or pricing decision silently drifts.
"""

import random

import pytest

from repro.fields import KERNEL, OpCounter, ReferenceBackend
from repro.hyperplonk import (
    HyperPlonkProver,
    MultilinearKZG,
    TrapdoorSRS,
    preprocess,
)
from repro.plan import hyperplonk_plan
from repro.service.traffic import GATE_TYPES, synthesize_circuit

SHAPES = [
    ("vanilla", 2),
    ("vanilla", 3),
    ("jellyfish", 2),
    ("jellyfish", 3),
]


@pytest.fixture(scope="module")
def kzg():
    return MultilinearKZG(TrapdoorSRS(4, random.Random(0xC0)))


def prove_with_counter(gate: str, mu: int, kzg) -> OpCounter:
    circuit = synthesize_circuit(GATE_TYPES[gate], mu, witness_seed=11)
    pidx, _ = preprocess(circuit, kzg)
    counter = OpCounter()
    HyperPlonkProver(circuit, pidx, kzg).prove(counter)
    return counter


class TestPlanVsProver:
    @pytest.mark.parametrize("gate,mu", SHAPES)
    def test_predicted_ops_match_actual(self, gate, mu, kzg):
        actual = prove_with_counter(gate, mu, kzg)
        predicted = hyperplonk_plan(gate, mu).predicted_prover_ops()
        assert actual.ee_mul == predicted.ee_mul
        assert actual.pl_mul == predicted.pl_mul
        assert actual.mul == predicted.total_mul
        assert actual.inv == predicted.inv
        assert actual.labels == predicted.msm_counts

    @pytest.mark.parametrize(
        "kernel", [ReferenceBackend(), KERNEL], ids=["reference", "fused"]
    )
    def test_fast_backends_count_identically(self, kernel, kzg, on_kernel):
        """The kernel keeps tally parity with its oracle, so one plan
        predicts both — prediction is kernel-invariant by construction."""
        on_kernel(kernel)
        actual = prove_with_counter("vanilla", 3, kzg)
        predicted = hyperplonk_plan("vanilla", 3).predicted_prover_ops()
        assert actual.mul == predicted.total_mul
        assert actual.ee_mul == predicted.ee_mul
        assert actual.pl_mul == predicted.pl_mul
        assert actual.labels == predicted.msm_counts

    def test_predictions_scale_with_size(self):
        """Tallies roughly double per extra variable (sanity on the
        closed forms, not the prover)."""
        small = hyperplonk_plan("vanilla", 3).predicted_prover_ops()
        big = hyperplonk_plan("vanilla", 4).predicted_prover_ops()
        assert 1.9 < big.total_mul / small.total_mul < 2.4
        assert big.msm_counts == small.msm_counts  # counts, not sizes
