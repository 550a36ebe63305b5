"""Workload ``prove_jellyfish_mu6``: warm one-shot HyperPlonk proofs.

The paper's headline gate through the whole protocol, on the one-shot
path (plain Pippenger, no fixed-base tables).  G1/MSM does ~97% of the
work; SumCheck and the field-vector kernels ~2%.  One operation is one
``HyperPlonkProver.prove()`` on a fresh witness of a fixed structure.
"""

from __future__ import annotations

import random
import time
from contextlib import ExitStack, contextmanager

import repro.curves.msm as curves_msm
import repro.hyperplonk.prover as prover_module
from repro.curves import G1_GENERATOR, msm_pippenger
from repro.curves.msm import FixedBaseTable, msm_fixed_base
from repro.fields import Fr
from repro.fields.counters import OpCounter
from repro.hyperplonk import (
    JELLYFISH,
    HyperPlonkError,
    HyperPlonkProver,
    HyperPlonkVerifier,
    MultilinearKZG,
    TrapdoorSRS,
    preprocess,
)
from repro.plan import FunctionalProverCostModel
from repro.service.traffic import synthesize_circuit

from e2ebench.measure import Op, Workload, overhead_pct, run_ops
from e2ebench.trace import Spans, layer_partition, probe_s

PROVE = "hyperplonk.prove"
COMMIT = "hyperplonk.kzg.commit"
OPEN = "hyperplonk.kzg.open"
VERIFY = "hyperplonk.kzg.verify"


class TracedKZG(MultilinearKZG):
    """The stock KZG with a span around commit / open / verify.

    ``open`` commits its quotients through ``self.commit``, so those
    commits are recorded as children of their ``open`` span.
    """

    def __init__(self, srs: TrapdoorSRS, spans: Spans):
        super().__init__(srs, fixed_base=False)
        self.spans = spans

    def commit(self, mle):
        with self.spans.span(COMMIT, points=len(mle.table)):
            return super().commit(mle)

    def open(self, mle, point):
        with self.spans.span(OPEN, num_vars=mle.num_vars):
            return super().open(mle, point)

    def verify(self, commitment, opening):
        with self.spans.span(VERIFY):
            return super().verify(commitment, opening)


@contextmanager
def boundaries(spans: Spans):
    """Spans at the layer boundaries inside ``prove()``: the prover
    module's (and the MSM module's) references to the functions it calls
    into other layers are swapped for recording wrappers."""
    with ExitStack() as stack:
        for owner, attr, name in (
            (prover_module, "prove_zerocheck", "sumcheck.zerocheck"),
            (prover_module, "build_permutation_data", "hyperplonk.permutation_build"),
            (prover_module, "prove_opencheck", "hyperplonk.opencheck"),
            (curves_msm, "window_decompose", "fields.window_decompose"),
        ):
            stack.enter_context(spans.patched(owner, attr, name))
        yield


class ProveJellyfish(Workload):
    name = "prove_jellyfish_mu6"
    work_unit = "proofs"

    def __init__(self, seed: int, *, toy: bool = False):
        super().__init__(seed, toy=toy)
        self.mu = 4 if toy else 6

    def _circuit(self, i: int):
        return synthesize_circuit(
            JELLYFISH, self.mu, witness_seed=self.seed * 1_000_003 + i
        )

    def setup(self, spans: Spans | None = None) -> None:
        spans = spans or Spans(self.name)
        self.srs = TrapdoorSRS(self.mu + 1, random.Random(self.seed))
        self.kzg = MultilinearKZG(self.srs, fixed_base=False)
        with spans.span("hyperplonk.srs_bases"):
            for arity in range(self.mu + 2):
                self.srs.bases(arity)
        with spans.span("hyperplonk.preprocess"):
            self.pidx, self.vidx = preprocess(self._circuit(0), self.kzg)

    def _prove(self, circuit, kzg, counter=None):
        return HyperPlonkProver(circuit, self.pidx, kzg, backend="fused").prove(counter)

    def op(self, i: int) -> Op:
        circuit = self._circuit(i + 1)
        started = time.perf_counter()
        proof = self._prove(circuit, self.kzg)
        wall = time.perf_counter() - started
        return Op(wall, 1, proof)

    def check(self, ops: list[Op]) -> tuple[int, int]:
        verifier = HyperPlonkVerifier(Fr, self.vidx, self.kzg)
        failed = 0
        for op in ops:
            try:
                verifier.verify(op.output)
            except HyperPlonkError:
                failed += 1
        return len(ops), failed

    # -- traced run --------------------------------------------------------
    def traced(self, spans: Spans, seconds: float) -> tuple[dict, list[Op]]:
        traced_kzg = TracedKZG(self.srs, spans)
        roots: list[int] = []
        plain_s: list[float] = []

        def traced_op(i: int) -> Op:
            circuit = self._circuit(i + 1)
            with boundaries(spans), spans.span(PROVE) as root:
                proof = self._prove(circuit, traced_kzg)
            roots.append(root)
            # the same witness untraced: the overhead, and the gate that
            # tracing does not change the proof
            t0 = time.perf_counter()
            plain = self._prove(circuit, self.kzg)
            plain_s.append(time.perf_counter() - t0)
            if plain != proof:
                raise AssertionError(f"traced proof {i} differs from untraced")
            return Op(spans.duration(root), 1, proof)

        ops = run_ops(traced_op, seconds)

        # every per-proof number below is read off the fastest traced proof,
        # so commit + open + self add up to the traced wall exactly
        best = min(roots, key=spans.duration)

        def zerocheck(which: int) -> float:
            found = spans.under(best, "sumcheck.zerocheck")
            return spans.duration(found[which]) if len(found) == 2 else 0.0

        top_commits = spans.under(best, COMMIT, outside=OPEN)
        quotient_commits = sorted(set(spans.under(best, COMMIT)) - set(top_commits))
        commit_s = spans.total(best, COMMIT, outside=OPEN)
        open_s = spans.total(best, OPEN)
        traced_s = spans.duration(best)
        metrics = {
            "hyperplonk.commit_s": commit_s,
            "hyperplonk.commit_calls": len(top_commits),
            "hyperplonk.commit_points": sum(
                spans.rows[i][4]["points"] for i in top_commits
            ),
            "hyperplonk.open_s": open_s,
            "hyperplonk.open_calls": len(spans.under(best, OPEN)),
            "hyperplonk.open_quotient_commits": len(quotient_commits),
            "hyperplonk.open_quotient_points": sum(
                spans.rows[i][4]["points"] for i in quotient_commits
            ),
            "hyperplonk.prove_self_s": traced_s - commit_s - open_s,
            "hyperplonk.prove_traced_s": traced_s,
            "hyperplonk.permutation_build_s": spans.total(
                best, "hyperplonk.permutation_build"
            ),
            "hyperplonk.opencheck_s": sum(
                spans.duration(i) - spans.total(i, OPEN)
                for i in spans.under(best, "hyperplonk.opencheck")
            ),
            "sumcheck.gate_zerocheck_s": zerocheck(0),
            "sumcheck.perm_zerocheck_s": zerocheck(1),
            "fields.window_decompose_s": spans.total(best, "fields.window_decompose"),
            "trace.overhead_pct": overhead_pct([op.wall_s for op in ops], plain_s),
            "hyperplonk.proof_bytes": ops[-1].output.size_bytes(),
        }
        metrics["hyperplonk.srs_bases_s"] = spans.fastest("hyperplonk.srs_bases")
        metrics["hyperplonk.srs_bases_count"] = (1 << (self.mu + 2)) - 1
        metrics["hyperplonk.preprocess_s"] = spans.fastest("hyperplonk.preprocess")

        with spans.span("hyperplonk.verify") as root:
            HyperPlonkVerifier(Fr, self.vidx, traced_kzg).verify(ops[-1].output)
        metrics["hyperplonk.verify_s"] = spans.duration(root)
        metrics["hyperplonk.verify_kzg_s"] = spans.total(root, VERIFY)

        counter = OpCounter()
        metrics.update(
            layer_partition(lambda: self._prove(self._circuit(1), self.kzg, counter))
        )
        metrics["fields.prove_mul"] = counter.mul
        metrics["fields.prove_add"] = counter.add
        metrics["fields.prove_inv"] = counter.inv

        predicted = FunctionalProverCostModel().shape_cost_s("jellyfish", self.mu)
        measured = min(plain_s)
        metrics["plan.predicted_prove_s"] = predicted
        metrics["plan.prediction_err_pct"] = 100.0 * abs(predicted / measured - 1.0)
        metrics.update(self._curve_probes())
        return metrics, ops

    def _curve_probes(self) -> dict:
        """Standalone calls into ``repro.curves`` on this workload's SRS."""
        rng = random.Random(self.seed)
        order = Fr.modulus

        def scalars(n: int) -> list[int]:
            return [rng.randrange(1, order) for _ in range(n)]

        generator_scalars = scalars(32)
        s_big, s4, s16 = scalars(1 << self.mu), scalars(4), scalars(16)
        bases_big, bases4 = self.srs.bases(self.mu), self.srs.bases(2)
        bases16 = self.srs.bases(4)
        t0 = time.perf_counter()
        tables = [FixedBaseTable(point) for point in bases16]
        table_build_s = (time.perf_counter() - t0) / len(tables)
        return {
            "curves.scalar_mul_s": probe_s(
                lambda: [G1_GENERATOR.scalar_mul(k) for k in generator_scalars], 1
            ) / len(generator_scalars),
            "curves.msm_pippenger_n64_s": probe_s(
                lambda: msm_pippenger(s_big, bases_big), 3
            ),
            "curves.msm_pippenger_n4_s": probe_s(lambda: msm_pippenger(s4, bases4)),
            "curves.msm_fixed_base_n16_s": probe_s(lambda: msm_fixed_base(s16, tables)),
            "curves.fixed_base_table_build_s": table_build_s,
            "curves.fixed_base_table_entries": sum(
                len(row) for table in tables for row in table.rows
            ),
        }
