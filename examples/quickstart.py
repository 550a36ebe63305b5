"""Quickstart: build a circuit, generate a HyperPlonk proof, verify it.

Proves knowledge of x, y such that (x + y) * x == 24 without revealing
x or y.  Run:  python examples/quickstart.py
"""

import random

from repro.fields import Fr
from repro.hyperplonk import (
    CircuitBuilder,
    HyperPlonkProver,
    HyperPlonkVerifier,
    MultilinearKZG,
    TrapdoorSRS,
    VANILLA,
    preprocess,
)


def main() -> None:
    # 1. Build the circuit (Vanilla/Plonk gates) with a witness.
    builder = CircuitBuilder(VANILLA, Fr)
    x = builder.new_wire(3)          # private witness
    y = builder.new_wire(5)          # private witness
    s = builder.add(x, y)            # s = x + y
    m = builder.mul(s, x)            # m = s * x
    builder.assert_equal(m, builder.constant(24))
    circuit = builder.build()
    print(f"circuit: {circuit}; unsatisfied gates: {circuit.check_gates()}")

    # 2. Universal setup + one-time preprocessing (commits selectors/σ).
    srs = TrapdoorSRS(circuit.num_vars, random.Random(2024))
    kzg = MultilinearKZG(srs)
    prover_index, verifier_index = preprocess(circuit, kzg)

    # 3. Prove.
    proof = HyperPlonkProver(circuit, prover_index, kzg).prove()
    print(f"proof generated: {proof.size_bytes()} bytes")

    # 4. Verify (raises on any failure).
    HyperPlonkVerifier(Fr, verifier_index, kzg).verify(proof)
    print("proof verified ✔")

    # 5. Tampered proofs are rejected.
    proof.perm_witness_evals["w1"] = (proof.perm_witness_evals["w1"] + 1) % Fr.modulus
    try:
        HyperPlonkVerifier(Fr, verifier_index, kzg).verify(proof)
    except AssertionError as exc:
        print(f"tampered proof rejected ✔ ({exc})")


if __name__ == "__main__":
    main()
