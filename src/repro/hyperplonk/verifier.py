"""The HyperPlonk verifier.

Mirrors the prover's transcript step by step; every quantity the prover
claimed is either (a) recomputed from public data, (b) certified by a KZG
opening, or (c) pinned by a SumCheck round identity.  Any tampering
diverges the Fiat–Shamir challenges or fails an algebraic check.
"""

from __future__ import annotations

from typing import Sequence

from repro.fields.counters import phase
from repro.fields.prime_field import PrimeField
from repro.hyperplonk.commitment import Commitment, MultilinearKZG
from repro.hyperplonk.opencheck import EvalClaim, verify_opencheck
from repro.hyperplonk.permutation import permcheck_terms
from repro.hyperplonk.preprocess import VerifierIndex
from repro.hyperplonk.prover import (
    HyperPlonkProof,
    absorb_index,
    gate_identity_terms,
)
from repro.sumcheck.transcript import Transcript
from repro.sumcheck.verifier import SumCheckError
from repro.sumcheck.zerocheck import verify_zerocheck


class HyperPlonkError(AssertionError):
    """Raised when a HyperPlonk proof fails verification."""


class HyperPlonkVerifier:
    def __init__(self, field: PrimeField, index: VerifierIndex,
                 kzg: MultilinearKZG):
        self.field = field
        self.index = index
        self.kzg = kzg

    @phase("verify")
    def verify(self, proof: HyperPlonkProof) -> None:
        """Raises :class:`HyperPlonkError` unless the proof is valid."""
        try:
            self._verify(proof)
        except SumCheckError as exc:
            raise HyperPlonkError(str(exc)) from exc

    # -- internal ------------------------------------------------------------
    def _verify(self, proof: HyperPlonkProof) -> None:
        field = self.field
        gate_type = self.index.gate_type
        if proof.num_vars != self.index.num_vars:
            raise HyperPlonkError("proof size does not match the index")
        if proof.gate_type_name != gate_type.name:
            raise HyperPlonkError("proof gate type does not match the index")

        transcript = Transcript(field, domain=b"hyperplonk")
        transcript.absorb_scalar(b"hp/num-vars", proof.num_vars)
        transcript.absorb_bytes(b"hp/gate-type", gate_type.name.encode())
        absorb_index(transcript, self.index.commitments)

        # the proof's commitments are combined homomorphically below,
        # which needs them all to be of one arity
        for name, commitment in (*proof.witness_commitments.items(),
                                 ("phi", proof.phi_commitment),
                                 ("pi", proof.prod_commitment)):
            if commitment.num_vars != proof.num_vars:
                raise HyperPlonkError(f"commitment {name!r} has the wrong arity")

        # -- 1. witness commitments ----------------------------------------
        for name in gate_type.witness_names:
            if name not in proof.witness_commitments:
                raise HyperPlonkError(f"missing witness commitment {name!r}")
            transcript.absorb_point(
                b"hp/witness-commit", proof.witness_commitments[name].point
            )

        # -- 2. gate identity -------------------------------------------------
        gate_terms = gate_identity_terms(gate_type.zerocheck_gate_id)
        rho_g = verify_zerocheck(field, gate_terms, proof.gate_zerocheck,
                                 transcript)

        # -- 3. wire identity ---------------------------------------------------
        beta = transcript.challenge(b"hp/beta")
        gamma = transcript.challenge(b"hp/gamma")
        transcript.absorb_point(b"hp/phi-commit", proof.phi_commitment.point)
        transcript.absorb_point(b"hp/tree-commit", proof.prod_commitment.point)
        alpha = transcript.challenge(b"hp/alpha")
        perm_terms = permcheck_terms(field, gate_type.num_witnesses, alpha)
        rho_p = verify_zerocheck(field, perm_terms, proof.perm_zerocheck,
                                 transcript)
        self._require_perm_evals(proof)
        transcript.absorb_scalars(b"hp/perm-w-evals",
                                  proof.perm_witness_evals.values())
        transcript.absorb_scalars(b"hp/perm-s-evals",
                                  proof.perm_sigma_evals.values())

        self._check_permcheck_consistency(proof, rho_p, beta, gamma)

        # -- 4 & 5. batched openings -----------------------------------------
        claims = self._build_claims(proof, rho_g, rho_p)
        commitments = dict(self.index.commitments)
        commitments.update(proof.witness_commitments)
        commitments["phi"] = proof.phi_commitment
        verify_opencheck(field, claims, commitments, proof.opencheck,
                         self.kzg, transcript)
        self._check_tree_openings(proof, rho_p)

    def _require_perm_evals(self, proof: HyperPlonkProof) -> None:
        """The proof is outside input: every column's witness and sigma
        evaluation must be there, and be an integer, before anything
        absorbs or computes with it."""
        columns = range(1, self.index.gate_type.num_witnesses + 1)
        for label, evals, prefix in (
            ("perm_witness_evals", proof.perm_witness_evals, "w"),
            ("perm_sigma_evals", proof.perm_sigma_evals, "sigma"),
        ):
            bad = [f"{prefix}{col}" for col in columns
                   if not isinstance(evals.get(f"{prefix}{col}"), int)]
            if bad:
                raise HyperPlonkError(
                    f"{label} missing or not an integer for {bad}")

    def _check_permcheck_consistency(
        self, proof: HyperPlonkProof, rho_p: Sequence[int],
        beta: int, gamma: int,
    ) -> None:
        """The PermCheck ZeroCheck ran over derived MLEs (N_i, D_i, π
        slices).  Tie each of its final evaluations back to committed or
        public polynomials."""
        p = self.field.modulus
        finals = proof.perm_zerocheck.final_evals
        for col in range(1, self.index.gate_type.num_witnesses + 1):
            w_eval = proof.perm_witness_evals[f"w{col}"] % p
            sigma_eval = proof.perm_sigma_evals[f"sigma{col}"] % p
            id_eval = self.index.identity_eval(col, rho_p, self.field)
            expected_n = (w_eval + beta * id_eval + gamma) % p
            expected_d = (w_eval + beta * sigma_eval + gamma) % p
            if finals.get(f"N{col}", None) != expected_n:
                raise HyperPlonkError(f"numerator N{col} evaluation mismatch")
            if finals.get(f"D{col}", None) != expected_d:
                raise HyperPlonkError(f"denominator D{col} evaluation mismatch")

    def _check_tree_openings(self, proof: HyperPlonkProof,
                             rho_p: Sequence[int]) -> None:
        """Certify the π/p1/p2 final evals as evaluations of the virtual
        product tree T(b, x) = (1 - b)·φ(x) + b·π(x), and check that the
        grand-product root equals 1.

        π(ρ_p) and the root π(1, …, 1, 0) are openings of the committed
        π.  p1(ρ_p) = T(ρ_p, 0) and p2(ρ_p) = T(ρ_p, 1) are openings at
        (ρ′, 0) and (ρ′, 1), ρ′ = ρ_2..ρ_μ, of h = (1 - ρ_1)·φ + ρ_1·π,
        whose commitment is formed here from the two the transcript
        absorbed before ρ_1 was drawn — the tree's leaves are the
        committed φ because no other leaves can be named.
        """
        p = self.field.modulus
        finals = proof.perm_zerocheck.final_evals
        rho = tuple(v % p for v in rho_p)
        blend_commitment = Commitment.combine(
            [1 - rho[0], rho[0]],
            [proof.phi_commitment, proof.prod_commitment],
        )
        # name -> (commitment, point, value)
        expected = {
            "pi": (proof.prod_commitment, rho, finals.get("pi")),
            "root": (proof.prod_commitment, (1,) * (proof.num_vars - 1) + (0,),
                     1),
            "p1": (blend_commitment, (*rho[1:], 0), finals.get("p1")),
            "p2": (blend_commitment, (*rho[1:], 1), finals.get("p2")),
        }
        for name, (commitment, point, value) in expected.items():
            opening = proof.tree_openings.get(name)
            if opening is None:
                raise HyperPlonkError(f"missing product-tree opening {name!r}")
            if tuple(opening.point) != point:
                raise HyperPlonkError(f"tree opening {name!r} at wrong point")
            if opening.value % p != (value or 0) % p:
                raise HyperPlonkError(f"tree opening {name!r} value mismatch")
            if not self.kzg.verify(commitment, opening):
                raise HyperPlonkError(f"tree opening {name!r} failed KZG check")

    def _build_claims(self, proof: HyperPlonkProof, rho_g: Sequence[int],
                      rho_p: Sequence[int]) -> list[EvalClaim]:
        """Same canonical ordering as the prover (values taken from the
        proof, then certified by the OpenCheck)."""
        gate_type = self.index.gate_type
        selector_names = set(gate_type.selector_names)
        gate_names = sorted(selector_names | set(gate_type.witness_names))
        finals = proof.gate_zerocheck.final_evals
        missing = [n for n in gate_names if n not in finals]
        if missing:
            raise HyperPlonkError(f"gate zerocheck final evals missing {missing}")
        claims = [
            EvalClaim(name, tuple(rho_g), finals[name]) for name in gate_names
        ]
        claims += [
            EvalClaim(name, tuple(rho_p), proof.perm_witness_evals[name])
            for name in sorted(proof.perm_witness_evals)
        ]
        claims += [
            EvalClaim(name, tuple(rho_p), proof.perm_sigma_evals[name])
            for name in sorted(proof.perm_sigma_evals)
        ]
        phi_eval = proof.perm_zerocheck.final_evals.get("phi")
        if phi_eval is None:
            raise HyperPlonkError("perm zerocheck lacks phi evaluation")
        claims.append(EvalClaim("phi", tuple(rho_p), phi_eval))
        return claims
