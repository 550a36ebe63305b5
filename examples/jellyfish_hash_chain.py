"""High-degree custom gates in action: a Rescue-style x^5 hash chain.

The same computation is arithmetized twice — with Vanilla gates (every
x^5 costs three multiplication gates) and with Jellyfish gates (one
qH-selector gate per S-box).  Both are proven and verified end-to-end,
demonstrating the gate-count reduction that motivates zkPHIRE (§II-C2).

Run:  python examples/jellyfish_hash_chain.py
"""

import random

from repro.fields import Fr
from repro.hyperplonk import (
    JELLYFISH,
    VANILLA,
    CircuitBuilder,
    HyperPlonkProver,
    HyperPlonkVerifier,
    MultilinearKZG,
    TrapdoorSRS,
    preprocess,
)

ROUNDS = 4
SEED_VALUE = 7
ROUND_CONSTANTS = [11, 22, 33, 44]


def hash_chain(builder: CircuitBuilder):
    """state <- state^5 + round_constant, ROUNDS times."""
    state = builder.new_wire(SEED_VALUE)
    for rc in ROUND_CONSTANTS[:ROUNDS]:
        sbox = builder.pow5(state)           # 1 Jellyfish gate / 3 Vanilla
        state = builder.add(sbox, builder.constant(rc))
    return state


def expected_digest() -> int:
    v = SEED_VALUE
    for rc in ROUND_CONSTANTS[:ROUNDS]:
        v = (pow(v, 5, Fr.modulus) + rc) % Fr.modulus
    return v


def prove_and_verify(gate_type, label: str) -> int:
    builder = CircuitBuilder(gate_type, Fr)
    out = hash_chain(builder)
    builder.assert_equal(out, builder.constant(expected_digest()))
    circuit = builder.build()
    assert circuit.check_gates() == []

    kzg = MultilinearKZG(TrapdoorSRS(circuit.num_vars, random.Random(9)))
    pidx, vidx = preprocess(circuit, kzg)
    proof = HyperPlonkProver(circuit, pidx, kzg).prove()
    HyperPlonkVerifier(Fr, vidx, kzg).verify(proof)
    print(f"{label:10s}: {circuit.num_gates:3d} gates (μ={circuit.num_vars}), "
          f"proof {proof.size_bytes()} bytes — verified ✔")
    return circuit.num_gates


def main() -> None:
    print(f"proving a {ROUNDS}-round x^5 hash chain, digest = "
          f"{expected_digest() % 10**8}... (mod 1e8)")
    vanilla_gates = prove_and_verify(VANILLA, "Vanilla")
    jellyfish_gates = prove_and_verify(JELLYFISH, "Jellyfish")
    print(f"gate-count reduction from expressive gates: "
          f"{vanilla_gates / jellyfish_gates:.1f}x "
          f"(the effect Fig 13 scales to 32x on real workloads)")


if __name__ == "__main__":
    main()
