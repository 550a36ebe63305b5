"""Workload ``sumcheck_gates_mu11``: standalone SumCheck, no curves.

The paper's first contribution — SumCheck over arbitrary high-degree
gates — on the fused fast path: Table I gate 20 (vanilla, d=4), gate 22
(Jellyfish, d=7) and the degree-16 sweep gate on random dense MLEs.
``fields`` / ``mle`` / ``sumcheck`` do all the work and ``curves`` none,
so every MSM change should leave this workload unmoved.  One operation
is one pass over the three gates.
"""

from __future__ import annotations

import random
import time

from repro.fields import Fr, get_backend
from repro.fields.counters import OpCounter
from repro.gates import gate_by_id
from repro.gates.compiler import compile_expr
from repro.gates.library import high_degree_sweep_gate
from repro.mle import DenseMLE, VirtualPolynomial
from repro.mle.eq import build_eq_mle
from repro.sumcheck import (
    FastSumCheckProver,
    SumCheckError,
    Transcript,
    prove_sumcheck,
    verify_sumcheck,
)

from e2ebench.measure import Op, Workload, overhead_pct, run_ops
from e2ebench.trace import Spans, layer_partition, probe_s

#: span / metric stem -> how to get the gate
GATES = {
    "vanilla20": lambda: gate_by_id(20),
    "jellyfish22": lambda: gate_by_id(22),
    "deg16": lambda: high_degree_sweep_gate(16),
}


class SumcheckGates(Workload):
    name = "sumcheck_gates_mu11"
    work_unit = "sumcheck proofs"

    def __init__(self, seed: int, *, toy: bool = False):
        super().__init__(seed, toy=toy)
        self.mu = 6 if toy else 11

    def setup(self, spans: Spans | None = None) -> None:
        spans = spans or Spans(self.name)
        rng = random.Random(self.seed)
        self.prover = FastSumCheckProver("fused")
        self.polys: dict[str, VirtualPolynomial] = {}
        self.claims: dict[str, int] = {}
        for stem, make in GATES.items():
            spec = make()
            with spans.span("gates.compile"):
                compiled = compile_expr(spec.name, spec.expr)
            scalars = {
                s: rng.randrange(1, Fr.modulus) for s in compiled.scalar_names
            }
            mles = {
                name: DenseMLE.random(Fr, self.mu, rng) for name in compiled.mle_names
            }
            vp = VirtualPolynomial(Fr, compiled.bind(Fr, scalars), mles)
            self.polys[stem] = vp
            self.claims[stem] = vp.sum_over_hypercube()

    def _prove(self, stem: str, counter=None):
        return self.prover.prove(
            self.polys[stem], Transcript(Fr), self.claims[stem], counter
        )

    def op(self, i: int) -> Op:
        proofs, parts = {}, {}
        started = time.perf_counter()
        for stem in GATES:
            gate_started = time.perf_counter()
            proofs[stem] = self._prove(stem)
            parts[stem] = time.perf_counter() - gate_started
        wall = time.perf_counter() - started
        return Op(wall, len(proofs), proofs, parts)

    def _verify(self, stem: str, proof) -> None:
        vp = self.polys[stem]
        verify_sumcheck(
            Fr,
            vp.terms,
            proof,
            Transcript(Fr),
            final_eval_oracle=lambda name, point: vp.mles[name].evaluate(point),
        )

    def check(self, ops: list[Op]) -> tuple[int, int]:
        """Every pass must repeat the first one bit for bit, and the
        first one's proofs must verify against an MLE-evaluation oracle."""
        failed = 0
        first = ops[0].output
        for stem, proof in first.items():
            try:
                self._verify(stem, proof)
            except SumCheckError:
                failed += 1
        for op in ops[1:]:
            failed += sum(op.output[stem] != first[stem] for stem in GATES)
        return len(GATES) * len(ops), failed

    # -- traced run --------------------------------------------------------
    def traced(self, spans: Spans, seconds: float) -> tuple[dict, list[Op]]:
        plain_s: list[float] = []

        def traced_op(i: int) -> Op:
            proofs = {}
            with spans.span("sumcheck.pass") as root:
                for stem in GATES:
                    with spans.span(f"sumcheck.{stem}"):
                        proofs[stem] = self._prove(stem)
            plain_s.append(self.op(i).wall_s)
            return Op(spans.duration(root), len(proofs), proofs)

        ops = run_ops(traced_op, seconds)
        metrics = {
            f"sumcheck.{stem}_s": spans.fastest(f"sumcheck.{stem}")
            for stem in GATES
        }
        metrics["trace.overhead_pct"] = overhead_pct(
            [op.wall_s for op in ops], plain_s
        )
        metrics["gates.compile_s"] = sum(
            spans.duration(i) for i in spans.named("gates.compile")
        )
        with spans.span("sumcheck.verify") as root:
            for stem, proof in ops[0].output.items():
                self._verify(stem, proof)
        metrics["sumcheck.verify_s"] = spans.duration(root)

        # the layer's other code path: the scalar reference prover
        jelly = self.polys["jellyfish22"]
        with spans.span("sumcheck.reference_jellyfish22") as root:
            reference = prove_sumcheck(
                jelly, Transcript(Fr), self.claims["jellyfish22"]
            )
        metrics["sumcheck.reference_jellyfish22_s"] = spans.duration(root)
        if reference != ops[0].output["jellyfish22"]:
            raise AssertionError("reference and fused SumCheck proofs differ")

        counter = OpCounter()
        metrics.update(
            layer_partition(lambda: [self._prove(stem, counter) for stem in GATES])
        )
        metrics["fields.sumcheck_mul"] = counter.mul
        metrics.update(self._kernel_probes())
        return metrics, ops

    def _kernel_probes(self) -> dict:
        """Standalone calls into ``sumcheck`` / ``mle`` / ``fields``."""
        rng = random.Random(self.seed)
        n = 1 << self.mu
        a = [rng.randrange(Fr.modulus) for _ in range(n)]
        b = [rng.randrange(Fr.modulus) for _ in range(n)]
        point = [rng.randrange(Fr.modulus) for _ in range(self.mu)]
        mle = DenseMLE(Fr, a)
        fused = get_backend("fused")

        def transcript() -> None:
            t = Transcript(Fr)
            for _ in range(100):
                for value in a[:10]:
                    t.absorb_scalar(b"probe", value)
                t.challenge(b"probe")

        return {
            "sumcheck.transcript_s": probe_s(transcript),
            "mle.build_eq_s": probe_s(lambda: build_eq_mle(Fr, point)),
            "mle.fix_first_variable_s": probe_s(
                lambda: mle.fix_first_variable(point[0])
            ),
            "mle.evaluate_s": probe_s(lambda: mle.evaluate(point)),
            "fields.fused_mul_s": probe_s(lambda: fused.mul(Fr, a, b)),
            "fields.fused_fold_s": probe_s(lambda: fused.fold(Fr, a, point[0])),
            "fields.fused_extend_s": probe_s(
                lambda: fused.extend_columns(Fr, a, 7)
            ),
        }
