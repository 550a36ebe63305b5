"""The one field-vector kernel: pinned proofs, tallies and service output.

The digests (``proof/``, ``tally/`` and ``service/`` in
``tests/goldens.json``) were recorded while provers still chose between a
per-pair ``reference`` path and the ``fused`` kernel by name.  Every
prover now runs :data:`repro.fields.vector.KERNEL`; a proof, an
``OpCounter`` tally or a service batch that moves by one bit fails here.

``TestNothingSelectsTheOracle`` makes every :class:`ReferenceBackend`
method raise and then proves, verifies and serves: the oracle is for the
differential suite only, and no path in ``src`` may reach it.
"""

import pytest
from goldens import GATES, canonical_text, make_kzg, pinned, prove
from goldens import proof_texts, service_batch, sha256

from repro.fields import Fr, OpCounter
from repro.fields.vector import ReferenceBackend
from repro.hyperplonk import HyperPlonkVerifier


@pytest.fixture(scope="module")
def kzg():
    return make_kzg()


def digest(value) -> str:
    return sha256(canonical_text(value))


class TestPinnedDigests:
    @pytest.mark.parametrize("gate", sorted(GATES))
    def test_proof_and_tallies(self, gate, kzg):
        counted = {}
        for label, kwargs in (("default", {}), ("fused", {"backend": "fused"})):
            counter = OpCounter()
            proof, _ = prove(gate, kzg, counter, **kwargs)
            assert digest(proof) == pinned(f"proof/{gate}"), label
            counted[label] = digest(counter)
        assert counted["default"] == counted["fused"] == pinned(f"tally/{gate}")

    @pytest.mark.parametrize("gate", sorted(GATES))
    def test_phase_g1_table(self, gate):
        """The phase × G1-count table of the pinned proof, on a fresh SRS."""
        assert sha256(proof_texts(gate)[2]) == pinned(f"tally/g1-{gate}")

    def test_sync_service_batch(self):
        assert digest(service_batch()) == pinned("service/uniform-small")


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
