"""The SumCheck protocol family.

SumCheck [LFKN90] lets a prover convince a verifier that the sum of a
multivariate polynomial over the boolean hypercube equals a claimed value,
in μ rounds of univariate exchanges (§II-C).  This package implements the
protocol over virtual (composite multilinear) polynomials:

* :class:`~repro.sumcheck.transcript.Transcript` — SHA3-based Fiat–Shamir,
* :func:`~repro.sumcheck.prover.prove_sumcheck` — the prover, following
  the extension/product/update dataflow of the paper's Figure 1,
* :class:`~repro.sumcheck.prover.FastSumCheckProver` — its one round
  loop, on the batched :mod:`repro.fields.vector` kernel (the
  differential suite runs the per-pair oracle through the same loop),
* :func:`~repro.sumcheck.verifier.verify_sumcheck` — round checks
  s_i(0) + s_i(1) = prior claim plus the final composition check,
* :mod:`~repro.sumcheck.zerocheck` — the ZeroCheck wrapper that
  multiplies the gate polynomial by eq(x, r) (§III-F),
* :mod:`~repro.sumcheck.univariate` — Lagrange interpolation on the
  evaluation points 0..d.
"""

from repro.sumcheck.transcript import Transcript
from repro.sumcheck.prover import FastSumCheckProver, SumCheckProof, prove_sumcheck
from repro.sumcheck.verifier import SumCheckError, verify_sumcheck
from repro.sumcheck.zerocheck import prove_zerocheck, verify_zerocheck
from repro.sumcheck.univariate import lagrange_eval_at

__all__ = [
    "Transcript",
    "SumCheckProof",
    "FastSumCheckProver",
    "prove_sumcheck",
    "SumCheckError",
    "verify_sumcheck",
    "prove_zerocheck",
    "verify_zerocheck",
    "lagrange_eval_at",
]
