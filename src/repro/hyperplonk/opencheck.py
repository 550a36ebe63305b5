"""Batch Evaluations + Polynomial Opening (the OpenCheck).

After the Gate-Identity and Wire-Identity SumChecks, the prover holds a
pile of evaluation claims "polynomial P_i equals v_i at point z_i" for
committed polynomials at (generally) different points.  Opening each
claim separately would cost one multilinear-KZG opening per claim;
HyperPlonk (and zkSpeed, which names the step *OpenCheck*) batches them:

1. draw a batching challenge α; run one SumCheck over
       g(x) = Σ_i α^i · P_i(x) · eq(x, z_i)
   whose hypercube sum is Σ_i α^i · v_i — this reduces all claims to
   evaluations of every P_i at the *single* SumCheck challenge point ρ;
2. draw a second challenge and open the random linear combination
   Σ_j β^j · P_j at ρ with one KZG opening.

The SumCheck in step 1 is exactly Table I row 24 (y_i · fr_i terms), run
on zkPHIRE's programmable SumCheck unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.fields.counters import phase, uncounted
from repro.fields.prime_field import PrimeField
from repro.fields.vector import KERNEL
from repro.hyperplonk.commitment import Commitment, MultilinearKZG, Opening
from repro.mle.eq import build_eq_mle, eq_eval
from repro.mle.table import DenseMLE
from repro.mle.virtual import Term, VirtualPolynomial
from repro.sumcheck.prover import SumCheckProof, prove_sumcheck
from repro.sumcheck.transcript import Transcript
from repro.sumcheck.verifier import SumCheckError, verify_sumcheck


@dataclass(frozen=True)
class EvalClaim:
    """Claim: committed polynomial ``poly_name`` evaluates to ``value`` at
    ``point``."""

    poly_name: str
    point: tuple[int, ...]
    value: int


@dataclass
class OpenCheckProof:
    sumcheck: SumCheckProof
    combined_opening: Opening

    @property
    def size_bytes(self) -> int:
        sc = sum(32 * len(e) for e in self.sumcheck.round_evals)
        sc += 32 * len(self.sumcheck.final_evals)
        return sc + self.combined_opening.size_bytes


def _absorb_claims(transcript: Transcript, claims: Sequence[EvalClaim]) -> None:
    for claim in claims:
        transcript.absorb_bytes(b"opencheck/poly", claim.poly_name.encode())
        transcript.absorb_scalars(b"opencheck/point", claim.point)
        transcript.absorb_scalar(b"opencheck/value", claim.value)


def _batched_terms_and_claim(
    field: PrimeField, claims: Sequence[EvalClaim], alpha: int
) -> tuple[list[Term], int]:
    p = field.modulus
    terms = []
    total = 0
    weight = 1
    for i, claim in enumerate(claims):
        weight = weight * alpha % p
        terms.append(Term(weight, ((claim.poly_name, 1), (f"eq{i}", 1))))
        total = (total + weight * claim.value) % p
    return terms, total


def prove_opencheck(
    field: PrimeField,
    claims: Sequence[EvalClaim],
    polys: Mapping[str, DenseMLE],
    kzg: MultilinearKZG,
    transcript: Transcript,
) -> OpenCheckProof:
    """Batch-prove the claims (see module docstring)."""
    if not claims:
        raise ValueError("opencheck needs at least one claim")
    num_vars = len(claims[0].point)
    if any(len(c.point) != num_vars for c in claims):
        raise ValueError("all opencheck claims must share one arity")

    _absorb_claims(transcript, claims)
    alpha = transcript.challenge(b"opencheck/alpha")
    terms, claimed_sum = _batched_terms_and_claim(field, claims, alpha)

    with phase("opencheck"):
        mles: dict[str, DenseMLE] = {}
        for i, claim in enumerate(claims):
            mles[claim.poly_name] = polys[claim.poly_name]
            mles[f"eq{i}"] = build_eq_mle(field, claim.point)
        vp = VirtualPolynomial(field, terms, mles)
        sc_proof = prove_sumcheck(vp, transcript, claim=claimed_sum)
    rho = sc_proof.challenges

    beta = transcript.challenge(b"opencheck/beta")
    unique = sorted({c.poly_name for c in claims})
    p = field.modulus
    combined = [0] * (1 << num_vars)
    w = 1
    # the combine is not counted (DESIGN.md §4)
    with phase("mle_combine"), uncounted():
        for name in unique:
            w = w * beta % p
            combined = KERNEL.axpy(field, combined, w, polys[name].table)
    with phase("opening_msm"):
        opening = kzg.open(DenseMLE(field, combined), rho)
    return OpenCheckProof(sumcheck=sc_proof, combined_opening=opening)


def verify_opencheck(
    field: PrimeField,
    claims: Sequence[EvalClaim],
    commitments: Mapping[str, Commitment],
    proof: OpenCheckProof,
    kzg: MultilinearKZG,
    transcript: Transcript,
) -> None:
    """Verify a batched opening; raises :class:`SumCheckError` on failure."""
    if not claims:
        raise SumCheckError("opencheck needs at least one claim")
    _absorb_claims(transcript, claims)
    alpha = transcript.challenge(b"opencheck/alpha")
    terms, claimed_sum = _batched_terms_and_claim(field, claims, alpha)

    if proof.sumcheck.claim % field.modulus != claimed_sum:
        raise SumCheckError("opencheck claim does not match batched values")
    rho = verify_sumcheck(field, terms, proof.sumcheck, transcript)

    # eq_i evaluations are public — recompute and compare
    for i, claim in enumerate(claims):
        expected = eq_eval(field, rho, claim.point)
        got = proof.sumcheck.final_evals.get(f"eq{i}")
        if got is None or got % field.modulus != expected:
            raise SumCheckError(f"eq evaluation mismatch for claim {i}")

    # P_i(ρ) values are certified by the combined opening
    beta = transcript.challenge(b"opencheck/beta")
    unique = sorted({c.poly_name for c in claims})
    p = field.modulus
    combined_value = 0
    weights = []
    w = 1
    for name in unique:
        w = w * beta % p
        final = proof.sumcheck.final_evals.get(name)
        if final is None:
            raise SumCheckError(f"missing final evaluation for {name!r}")
        combined_value = (combined_value + w * final) % p
        weights.append(w)

    if tuple(proof.combined_opening.point) != tuple(v % p for v in rho):
        raise SumCheckError("combined opening is at the wrong point")
    if proof.combined_opening.value % p != combined_value:
        raise SumCheckError("combined opening value mismatch")
    combined_commitment = Commitment.combine(
        weights, [commitments[name] for name in unique]
    )
    if not kzg.verify(combined_commitment, proof.combined_opening):
        raise SumCheckError("combined KZG opening failed")
