"""Circuit preprocessing (the universal-setup "indexer").

HyperPlonk has a universal setup: the SRS is circuit-independent, and a
one-time preprocessing pass commits to the circuit's selector and
permutation polynomials.  The verifier needs only those commitments (plus
the closed-form identity polynomials), not the tables.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

from repro.fields.counters import phase
from repro.fields.prime_field import PrimeField
from repro.hyperplonk.circuit import Circuit, GateType
from repro.hyperplonk.commitment import Commitment, MultilinearKZG
from repro.mle.table import DenseMLE


@dataclass
class ProverIndex:
    """Preprocessed data the prover keeps: tables + commitments."""

    gate_type: GateType
    num_vars: int
    selectors: dict[str, DenseMLE]
    sigmas: dict[str, DenseMLE]
    identities: dict[str, DenseMLE]
    commitments: dict[str, Commitment]


@dataclass
class VerifierIndex:
    """Preprocessed data the verifier keeps: commitments only."""

    gate_type: GateType
    num_vars: int
    commitments: dict[str, Commitment]

    def identity_eval(self, column: int, point: Sequence[int],
                      field: PrimeField) -> int:
        """Closed-form evaluation of id_col at an arbitrary point:
        id_col(x) = (col-1)·2^μ + Σ_j 2^j x_j (multilinear in x)."""
        p = field.modulus
        acc = (column - 1) * (1 << self.num_vars) % p
        for j, x in enumerate(point):
            acc = (acc + (1 << j) * (x % p)) % p
        return acc


def circuit_fingerprint(circuit: Circuit) -> str:
    """Content hash of everything preprocessing depends on.

    Covers the gate type, field, and every row's selectors and wiring —
    but **not** the witness values, so two instances of the same circuit
    structure proving different witnesses share one fingerprint (and hence
    one cached :class:`ProverIndex`/:class:`VerifierIndex` in
    :class:`repro.service.IndexCache`).
    """
    h = hashlib.sha256()
    h.update(b"repro/circuit-index/v1\x00")
    h.update(circuit.gate_type.name.encode())
    h.update(circuit.field.modulus.to_bytes(48, "big"))
    h.update(circuit.num_gates.to_bytes(8, "big"))
    for row in circuit.rows:
        for name in circuit.gate_type.selector_names:
            h.update(row.selectors.get(name, 0).to_bytes(48, "big"))
        for wire in row.wires:
            h.update(wire.index.to_bytes(8, "big"))
    return h.hexdigest()


@phase("preprocess")
def preprocess(circuit: Circuit, kzg: MultilinearKZG) -> tuple[ProverIndex, VerifierIndex]:
    """Commit to selectors and permutation tables; build both indices."""
    selectors = circuit.selector_tables()
    sigmas = circuit.permutation_tables()
    identities = circuit.identity_tables()
    commitments = {name: kzg.commit(mle) for name, mle in selectors.items()}
    commitments.update({name: kzg.commit(mle) for name, mle in sigmas.items()})
    prover_index = ProverIndex(
        gate_type=circuit.gate_type,
        num_vars=circuit.num_vars,
        selectors=selectors,
        sigmas=sigmas,
        identities=identities,
        commitments=commitments,
    )
    verifier_index = VerifierIndex(
        gate_type=circuit.gate_type,
        num_vars=circuit.num_vars,
        commitments=dict(commitments),
    )
    return prover_index, verifier_index
