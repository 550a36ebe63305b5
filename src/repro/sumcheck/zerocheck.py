"""ZeroCheck: SumCheck-based proof that f vanishes on the whole hypercube.

Summing f alone is insufficient — wrong gates could cancel — so the
protocol multiplies f by the randomizer fr(x) = eq(x, r) for transcript-
derived r and proves sum_x f(x) * fr(x) = 0 (§III-F).  The verifier can
evaluate fr at the final challenge point itself (eq has a closed form),
so fr needs no commitment or opening.

zkPHIRE fuses the construction of fr's table into round 1 of SumCheck
("Build MLE" fusion); functionally the table is identical, so we build it
explicitly here and let the hardware model account for the fusion.
"""

from __future__ import annotations

from typing import Sequence

from repro.fields.prime_field import PrimeField
from repro.mle.eq import build_eq_mle, eq_eval
from repro.mle.table import DenseMLE
from repro.mle.virtual import Term, VirtualPolynomial
from repro.sumcheck.prover import SumCheckProof, prove_sumcheck
from repro.sumcheck.transcript import Transcript
from repro.sumcheck.verifier import SumCheckError, verify_sumcheck

FR_NAME = "fr"


def randomized_terms(terms: Sequence[Term], fr_name: str = FR_NAME) -> list[Term]:
    """Multiply every term by the randomizer MLE (degree +1)."""
    out = []
    for term in terms:
        if any(name == fr_name for name, _ in term.factors):
            raise ValueError(f"term already contains {fr_name!r}")
        out.append(Term(coeff=term.coeff, factors=term.factors + ((fr_name, 1),)))
    return out


def prove_zerocheck(
    field: PrimeField,
    terms: Sequence[Term],
    mles: dict[str, DenseMLE],
    transcript: Transcript,
) -> SumCheckProof:
    """Prove that the composition given by ``terms`` is 0 everywhere.

    ``mles`` must not contain the reserved name ``fr``; the randomizer is
    derived from the transcript and added internally.
    """
    if FR_NAME in mles:
        raise ValueError(f"MLE name {FR_NAME!r} is reserved for the randomizer")
    num_vars = next(iter(mles.values())).num_vars
    r = transcript.challenges(b"zerocheck/r", num_vars)
    fr = build_eq_mle(field, r)
    full_mles = dict(mles)
    full_mles[FR_NAME] = fr
    vp = VirtualPolynomial(field, randomized_terms(terms), full_mles)
    return prove_sumcheck(vp, transcript, claim=0)


def verify_zerocheck(
    field: PrimeField,
    terms: Sequence[Term],
    proof: SumCheckProof,
    transcript: Transcript,
    final_eval_oracle=None,
) -> list[int]:
    """Verify a ZeroCheck proof; returns the SumCheck challenge point."""
    if proof.claim % field.modulus != 0:
        raise SumCheckError("zerocheck claim must be zero")
    r = transcript.challenges(b"zerocheck/r", proof.num_vars)
    rand_terms = randomized_terms(terms)

    def oracle(name: str, point: Sequence[int]) -> int:
        if name == FR_NAME:
            return eq_eval(field, point, r)
        if final_eval_oracle is None:
            raise SumCheckError(
                f"no oracle for {name!r}; pass final_eval_oracle or use an "
                "outer protocol that opens commitments"
            )
        return final_eval_oracle(name, point)

    # Always check fr (it is public); check others when an oracle exists.
    challenges = verify_sumcheck(
        field,
        rand_terms,
        proof,
        transcript,
        final_eval_oracle=oracle if final_eval_oracle is not None else None,
    )
    expected_fr = eq_eval(field, challenges, r)
    if proof.final_evals.get(FR_NAME, None) is None:
        raise SumCheckError("proof lacks the randomizer's final evaluation")
    if proof.final_evals[FR_NAME] % field.modulus != expected_fr:
        raise SumCheckError("randomizer final evaluation mismatch")
    return challenges
