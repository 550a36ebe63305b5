"""The one recorder of work (``repro.fields.counters``).

Kernels report field counts, G1 counts and phase seconds into it; no
``src`` signature carries a counter but the two entry points callers
outside ``src`` still pass one to.  These tests hold the recorder's
contract, the G1 tally's closed forms and the count identities of a
proof's phase table.
"""

import ast
import random
import time
from pathlib import Path

import pytest

from repro.curves import G1, G1_GENERATOR, msm_pippenger
from repro.curves.curve import affine_sum_rows
from repro.curves.msm import _horner
from repro.fields import KERNEL, Fr, OpCounter, counters
from repro.fields.counters import G1Tally, phase, recording, uncounted
from repro.gates import gate_by_id
from repro.hyperplonk import (
    JELLYFISH,
    HyperPlonkProver,
    HyperPlonkVerifier,
    MultilinearKZG,
    TrapdoorSRS,
    preprocess,
)
from repro.mle import DenseMLE, VirtualPolynomial
from repro.plan import HYPERPLONK_PHASES
from repro.service import ProvingService, ServiceConfig
from repro.service.traffic import synthesize_circuit
from repro.sumcheck import FastSumCheckProver, Transcript
from repro.traffic import OpenLoopTraffic

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: the spellings callers outside ``src`` still pass a counter to
FROZEN = {
    ("hyperplonk/prover.py", "HyperPlonkProver", "prove"),
    ("sumcheck/prover.py", "FastSumCheckProver", "prove"),
}


def points(n: int, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        pt = G1_GENERATOR.scalar_mul(rng.randrange(1, G1.order))
        out.append((pt.x, pt.y))
    return out


def field_counts(c: OpCounter) -> tuple:
    return (c.mul, c.add, c.inv, c.ee_mul, c.pl_mul)


def state_is_clear() -> bool:
    return (counters.field_sink is None and counters.g1_sink is None
            and counters._records == [] and counters._rows == []
            and counters._muted == 0)


class TestNoCounterPlumbing:
    def test_no_counter_parameter_or_branch_in_src(self):
        """Outside the two frozen entry points no function takes a
        ``counter`` and no branch tests one."""
        found = []
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            tree = ast.parse(path.read_text())
            for cls in [None, *[n for n in ast.walk(tree)
                                if isinstance(n, ast.ClassDef)]]:
                body = tree.body if cls is None else cls.body
                for fn in body:
                    if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    names = [a.arg for a in (*fn.args.args, *fn.args.kwonlyargs)]
                    where = (rel, cls and cls.name, fn.name)
                    if "counter" in names and where not in FROZEN:
                        found.append(f"{rel}:{fn.lineno} {fn.name}(counter)")
            for node in ast.walk(tree):
                if isinstance(node, (ast.If, ast.IfExp)) and any(
                    isinstance(n, ast.Name) and n.id == "counter"
                    for n in ast.walk(node.test)
                ):
                    found.append(f"{rel}:{node.lineno} if counter")
        assert found == []


class TestG1ClosedForms:
    @pytest.mark.parametrize("length", [1, 7, 64])
    def test_horner_walk_doubles_once_per_row(self, length):
        schedule = [[xy] for xy in points(length, length)]
        with recording() as rec:
            _horner(G1, schedule)
        assert rec.g1 == G1Tally(mixed=length, doubling=length)

    def test_batch_affine_rounds_and_pairs(self):
        """Rows of 5, 3, 1 and 0 points reduced to one point each: 3 + 2
        + 1 pairs over three rounds, one per halving of the longest."""
        pts = iter(points(9, 1))
        rows = [[next(pts) for _ in range(n)] for n in (5, 3, 1, 0)]
        with recording() as rec:
            affine_sum_rows(G1.field, G1.a, rows, min_pairs=1)
        assert [len(row) for row in rows] == [1, 1, 1, 0]
        assert rec.g1 == G1Tally(rounds=3, pairs=6)

    def test_rounds_stop_below_min_pairs(self):
        pts = iter(points(40, 2))
        rows = [[next(pts), next(pts)] for _ in range(20)]
        one_pair = [points(2, 3)]
        with recording() as rec:
            affine_sum_rows(G1.field, G1.a, rows)  # 20 pairs, then none
            affine_sum_rows(G1.field, G1.a, one_pair)  # 1 < 10 pairs
        assert rec.g1 == G1Tally(rounds=1, pairs=20)

    def test_all_zero_msm_counts_nothing(self):
        bases = [G1_GENERATOR] * 4
        with recording() as rec:
            assert msm_pippenger([0, 0, 0, 0], bases).inf
        assert rec.g1 == G1Tally()
        assert field_counts(rec) == (0, 0, 0, 0, 0)


class TestRecorderContract:
    def test_nothing_is_counted_when_nothing_records(self):
        assert state_is_clear()
        KERNEL.fold(Fr, list(range(8)), 3)
        assert state_is_clear()

    def test_nesting_adds_the_inner_record_into_the_outer(self):
        table = list(range(16))
        with recording() as outer:
            KERNEL.fold(Fr, table, 5)
            with phase("a"):
                with recording() as inner:
                    KERNEL.mul(Fr, table, table)
                    with phase("b"):
                        KERNEL.scale(Fr, table, 3)
        assert field_counts(inner) == (32, 0, 0, 0, 0)
        assert field_counts(outer) == (8 + 32, 16, 0, 8, 0)
        # the inner record's own row lands in the outer's open phase
        assert outer.phases["a"].mul == 16 and outer.phases["b"].mul == 16
        assert state_is_clear()

    def test_uncounted_keeps_field_work_not_g1_work(self):
        schedule = [[xy] for xy in points(3, 4)]
        with recording() as rec, uncounted():
            KERNEL.fold(Fr, list(range(8)), 3)
            _horner(G1, schedule)
        assert field_counts(rec) == (0, 0, 0, 0, 0)
        assert rec.g1.doubling == 3

    @pytest.mark.parametrize("scope", ["recording", "phase", "uncounted"])
    def test_state_is_cleared_after_an_exception(self, scope):
        with pytest.raises(RuntimeError):
            with recording() as rec:
                with {"recording": recording, "phase": lambda: phase("x"),
                      "uncounted": uncounted}[scope]():
                    KERNEL.mul(Fr, [1, 2], [3, 4])
                    raise RuntimeError
        assert state_is_clear()
        assert rec.mul == (0 if scope == "uncounted" else 2)

    def test_sumcheck_counter_accumulates_across_calls(self):
        """The spelling the benchmark harness uses: one counter passed
        positionally to several proofs holds their sum."""
        rng = random.Random(5)
        spec = gate_by_id(22)
        scalars = {s: rng.randrange(1, Fr.modulus)
                   for s in spec.compiled.scalar_names}
        vp = VirtualPolynomial(
            Fr, spec.compiled.bind(Fr, scalars),
            {n: DenseMLE.random(Fr, 4, rng) for n in spec.compiled.mle_names},
        )
        claim = vp.sum_over_hypercube()
        prover = FastSumCheckProver("fused")
        with recording() as once:
            prover.prove(vp, Transcript(Fr), claim)
        counter = OpCounter()
        for _ in range(3):
            prover.prove(vp, Transcript(Fr), claim, counter)
        assert field_counts(counter) == tuple(3 * n for n in field_counts(once))
        assert state_is_clear()


@pytest.fixture(scope="module")
def jellyfish_mu4():
    circuit = synthesize_circuit(JELLYFISH, 4, witness_seed=3)
    kzg = MultilinearKZG(TrapdoorSRS(4, random.Random(4)))
    pidx, vidx = preprocess(circuit, kzg)
    HyperPlonkProver(circuit, pidx, kzg).prove()  # builds every resident table
    return circuit, pidx, vidx, kzg


class TestProofPhaseTable:
    def test_every_phase_has_a_row_and_the_columns_sum(self, jellyfish_mu4):
        circuit, pidx, vidx, kzg = jellyfish_mu4
        counter = OpCounter()
        started = time.perf_counter()
        proof = HyperPlonkProver(circuit, pidx, kzg).prove(counter)
        wall = time.perf_counter() - started
        table = counter.table()
        assert set(HYPERPLONK_PHASES) <= set(table)
        for column, total in (("mul", counter.mul), ("add", counter.add),
                              ("inv", counter.inv),
                              ("g1_doubling", counter.g1.doubling),
                              ("g1_pairs", counter.g1.pairs)):
            assert sum(row[column] for row in table.values()) == total
        assert counter.mul and counter.g1.doubling
        assert sum(row["seconds"] for row in table.values()) <= wall
        # the phases that commit or open are where the G1 work is
        for name in ("witness_msm", "wiring_msm", "opening_msm"):
            assert table[name]["g1_mixed"] > 0, name
        for name in ("zerocheck", "permquot", "prod_tree", "permcheck"):
            assert table[name]["g1_mixed"] == 0, name
        HyperPlonkVerifier(Fr, vidx, kzg).verify(proof)

    def test_prove_counter_accumulates_across_calls(self, jellyfish_mu4):
        circuit, pidx, _, kzg = jellyfish_mu4
        counter = OpCounter()
        with recording() as once:
            HyperPlonkProver(circuit, pidx, kzg).prove()
        for _ in range(2):
            HyperPlonkProver(circuit, pidx, kzg).prove(counter)
        assert field_counts(counter) == tuple(2 * n for n in field_counts(once))
        assert counter.labels == {k: 2 * v for k, v in once.labels.items()}
        assert counter.g1.mixed == 2 * once.g1.mixed

    def test_a_service_drain_sees_every_proof_once(self):
        """Workers record around each prove; an outer recording of the
        drain holds their records summed, once."""
        jobs = list(OpenLoopTraffic("uniform-small", seed=3, max_jobs=3).jobs())
        svc = ProvingService(
            ServiceConfig(max_vars=4, executor="sync", collect_counters=True)
        )
        try:
            for job in jobs:
                svc.submit_job(job)
            with recording() as rec:
                results = svc.drain()
        finally:
            svc.close()
        assert rec.mul == sum(r.counter.mul for r in results) > 0
        assert svc.metrics.ops.mul == rec.mul
        assert rec.phases["opening_msm"].g1.doubling == sum(
            r.counter.phases["opening_msm"].g1.doubling for r in results
        )

    def test_setup_and_verify_are_phases_without_field_counts(self):
        circuit = synthesize_circuit(JELLYFISH, 2, witness_seed=1)
        with recording() as rec:
            kzg = MultilinearKZG(TrapdoorSRS(2, random.Random(1)))
            pidx, vidx = preprocess(circuit, kzg)
            with recording() as prove_rec:
                proof = HyperPlonkProver(circuit, pidx, kzg).prove()
            HyperPlonkVerifier(Fr, vidx, kzg).verify(proof)
        for name in ("srs_bases", "preprocess", "verify"):
            assert rec.phases[name].g1.mixed + rec.phases[name].g1.pairs > 0
            assert field_counts(rec.phases[name]) == (0, 0, 0, 0, 0), name
        assert field_counts(rec) == field_counts(prove_rec)
