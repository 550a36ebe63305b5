"""The one field-vector kernel: pinned proofs, tallies and service output.

The digests below were recorded while provers still chose between a
per-pair ``reference`` path and the ``fused`` kernel by name.  Every
prover now runs :data:`repro.fields.vector.KERNEL`; a proof, an
``OpCounter`` tally or a service batch that moves by one bit fails here.

``TestNothingSelectsTheOracle`` makes every :class:`ReferenceBackend`
method raise and then proves, verifies and serves: the oracle is for the
differential suite only, and no path in ``src`` may reach it.
"""

import hashlib
import random
from dataclasses import fields, is_dataclass

import pytest

from repro.curves.curve import AffinePoint
from repro.fields import Fr, OpCounter
from repro.fields.vector import ReferenceBackend
from repro.hyperplonk import (
    HyperPlonkProver,
    HyperPlonkVerifier,
    MultilinearKZG,
    TrapdoorSRS,
    preprocess,
)
from repro.service import ProvingService, ServiceConfig, TrafficGenerator
from repro.service.traffic import GATE_TYPES, synthesize_circuit

MU = 4
SRS_SEED = 7

PROOF_DIGESTS = {
    "vanilla": "ead2f9c7159a4b50e56c4e9310f3e59a32999f7d58b19574a8a758ff4af3f9e6",
    "jellyfish": "c5564b76d23919f235bee568a7e9d352bc3eaade4cb46897247b79ff215acfe2",
}
TALLY_DIGESTS = {
    "vanilla": "1585aea1537c8d38e7862c373ca50e9017cd41b294c93e62052d06a19b8c285e",
    "jellyfish": "a86293b0e94763381a15ff1be6192419e527f4f51cfcd5543184157b84c02c50",
}
SERVICE_DIGEST = (
    "bb274c53d6462ed937de3a6fe07089e64060c475d500b2e62a3a7c283f69e221"
)


def canonical(value):
    """A proof object as nested tuples of ints and strings: dataclass
    fields in declaration order, dicts in insertion order, and a G1
    point as its ``(x, y)`` integers."""
    if isinstance(value, AffinePoint):
        return ("inf",) if value.inf else (value.x, value.y)
    if is_dataclass(value):
        return tuple(
            (f.name, canonical(getattr(value, f.name))) for f in fields(value)
        )
    if isinstance(value, dict):
        return tuple((k, canonical(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(canonical(v) for v in value)
    return value


def digest(value) -> str:
    return hashlib.sha256(repr(canonical(value)).encode()).hexdigest()


@pytest.fixture(scope="module")
def kzg():
    return MultilinearKZG(TrapdoorSRS(MU, random.Random(SRS_SEED)))


def prove(gate: str, kzg, counter=None, **kwargs):
    circuit = synthesize_circuit(GATE_TYPES[gate], MU, witness_seed=11)
    pidx, vidx = preprocess(circuit, kzg)
    proof = HyperPlonkProver(circuit, pidx, kzg, **kwargs).prove(counter)
    return proof, vidx


def service_batch():
    jobs = TrafficGenerator("uniform-small", seed=3).jobs(6)
    svc = ProvingService(ServiceConfig(max_vars=MU, executor="sync"))
    try:
        for job in jobs:
            svc.submit_job(job)
        results = svc.drain()
    finally:
        svc.close()
    return [
        (r.job_id, r.circuit_key, r.batch_size, r.cache_hit, canonical(r.proof))
        for r in results
    ]


class TestPinnedDigests:
    @pytest.mark.parametrize("gate", sorted(PROOF_DIGESTS))
    def test_proof_and_tallies(self, gate, kzg):
        counted = {}
        for label, kwargs in (("default", {}), ("fused", {"backend": "fused"})):
            counter = OpCounter()
            proof, _ = prove(gate, kzg, counter, **kwargs)
            assert digest(proof) == PROOF_DIGESTS[gate], label
            counted[label] = digest(counter)
        assert counted["default"] == counted["fused"] == TALLY_DIGESTS[gate]

    def test_sync_service_batch(self):
        assert digest(service_batch()) == SERVICE_DIGEST


class TestNothingSelectsTheOracle:
    @pytest.fixture(autouse=True)
    def oracle_raises(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a src path ran the ReferenceBackend oracle")

        for name, attr in vars(ReferenceBackend).items():
            if callable(attr) and not name.startswith("__"):
                monkeypatch.setattr(ReferenceBackend, name, forbidden)

    def test_prove_and_verify(self, kzg):
        proof, vidx = prove("jellyfish", kzg)
        HyperPlonkVerifier(Fr, vidx, kzg).verify(proof)

    def test_sync_service_batch(self):
        assert len(service_batch()) == 6
