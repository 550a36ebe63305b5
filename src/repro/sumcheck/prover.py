"""The SumCheck prover over virtual polynomials.

Implements the dataflow of the paper's Figure 1, per tile of adjacent
pairs as the PEs stream them: per round, each tile's evaluation pairs are
*extended* to the d+1 points 0..d, extensions are multiplied across each
term's factors (product lanes), and the products are accumulated into the
round evaluations, tile after tile
(:data:`~repro.fields.vector.ROUND_TILE_PAIRS` pairs at a time, so no
table is ever held extended).  The evaluations are hashed into the
transcript to obtain the round challenge, and every table is *updated*
(folded) by that challenge, each folded table replacing its predecessor.

The kernel counts multiplies into :mod:`repro.fields.counters` in the
same categories as the hardware (extension-engine vs product-lane),
which the tests cross-check against ``repro.hw``'s predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from repro.fields.counters import OpCounter, adding_to
from repro.fields.vector import KERNEL, VectorBackend, require_fused
from repro.mle.virtual import VirtualPolynomial
from repro.sumcheck.transcript import Transcript


@dataclass
class SumCheckProof:
    """Everything the prover sends: the claim, per-round evaluations, and
    the final per-MLE evaluations at the challenge point."""

    claim: int
    num_vars: int
    degree: int
    round_evals: list[list[int]] = dc_field(default_factory=list)
    final_evals: dict[str, int] = dc_field(default_factory=dict)
    challenges: list[int] = dc_field(default_factory=list)


def prove_sumcheck(
    vp: VirtualPolynomial,
    transcript: Transcript,
    claim: int | None = None,
) -> SumCheckProof:
    """Run the full μ-round SumCheck prover.

    If ``claim`` is None the true hypercube sum is computed and used.
    Returns the proof; the transcript is advanced identically to the
    verifier's so Fiat–Shamir challenges agree.
    """
    return FastSumCheckProver().prove(vp, transcript, claim)


class FastSumCheckProver:
    """SumCheck prover running on the batched field-vector kernel.

    The one round loop (claim absorption, per-round transcript traffic,
    challenge derivation, final-evaluation ordering); :func:`prove_sumcheck`
    is a thin wrapper over it.  Round evaluations and folds go through
    ``kernel``, and tables are kept as raw ``[0, p)`` integer lists
    between rounds, so no ``DenseMLE``/``VirtualPolynomial`` objects are
    rebuilt per fold.

    ``kernel`` is :data:`~repro.fields.vector.KERNEL`; the differential
    suite (``tests/test_fastpath_differential.py``) passes a
    :class:`~repro.fields.vector.ReferenceBackend` — a per-pair scalar
    loop that mirrors Fig. 1 operation for operation, count calls
    included — and requires the kernel's proof and tallies to be
    bit-identical to it.  The positional ``backend`` accepts only the
    retired spellings ``None`` and ``"fused"``.

    :meth:`prove` keeps a positional ``counter`` for callers outside
    ``src``: given one, the call is recorded and the record added into it
    (:func:`~repro.fields.counters.adding_to`), so one counter passed to
    several proofs holds their sum.
    """

    def __init__(self, backend: str | None = None, *,
                 kernel: VectorBackend = KERNEL):
        require_fused(backend)
        self.kernel = kernel

    def prove(
        self,
        vp: VirtualPolynomial,
        transcript: Transcript,
        claim: int | None = None,
        counter: OpCounter | None = None,
    ) -> SumCheckProof:
        with adding_to(counter):
            return self._prove(vp, transcript, claim)

    def _prove(self, vp: VirtualPolynomial, transcript: Transcript,
               claim: int | None) -> SumCheckProof:
        kernel = self.kernel
        field = vp.field
        if claim is None:
            claim = vp.sum_over_hypercube()
        degree = vp.degree
        proof = SumCheckProof(claim=claim, num_vars=vp.num_vars, degree=degree)

        transcript.absorb_scalar(b"sumcheck/claim", claim)
        transcript.absorb_scalar(b"sumcheck/num-vars", vp.num_vars)
        transcript.absorb_scalar(b"sumcheck/degree", degree)

        # raw tables, in vp.mles order (final_evals ordering depends on it)
        tables = {name: mle.table for name, mle in vp.mles.items()}
        # extend only the MLEs that terms reference (count parity with
        # the reference prover); an all-constant composition has none, so
        # fall back to the full table dict for the pair count
        active = vp.unique_mle_names
        for _ in range(vp.num_vars):
            evals = kernel.round_evaluations(
                field, vp.terms,
                {n: tables[n] for n in active} if active else tables,
                degree,
            )
            proof.round_evals.append(evals)
            transcript.absorb_scalars(b"sumcheck/round", evals)
            r = transcript.challenge(b"sumcheck/challenge")
            proof.challenges.append(r)
            # each folded table replaces its predecessor as it is made,
            # so at most one folded generation is live
            for name in tables:
                tables[name] = kernel.fold(field, tables[name], r)
        proof.final_evals = {name: t[0] for name, t in tables.items()}
        transcript.absorb_scalars(b"sumcheck/final", proof.final_evals.values())
        return proof
