"""Fast-path SumCheck benchmark + ``BENCH_sumcheck.json`` emitter.

Times the SumCheck round loop on the ``ReferenceBackend`` oracle against
the same loop on the ``fused`` field-vector kernel, on paper gates at
increasing μ, asserts the proofs stay bit-identical, and
records the measured trajectory into ``BENCH_sumcheck.json`` at the repo
root so every future PR can see whether the fast path regressed.  Each
row's gate shape is ``exact``, its speedup a ``ratio`` and its seconds
``info`` (the sections ``benchmarks/check_regression.py`` reads).

The acceptance row is the vanilla-PLONK gate at μ = 12, which must show
at least a 2× speedup for ``fused`` (~3.5× since the kernel runs on a
degree-aware round schedule).  That floor is a wall-clock ratio, so it
is asserted only when emitting the record (``BENCH_SUMCHECK_EMIT=1``);
tier-1 asserts bit-identical proofs and the record's structure.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.fields import KERNEL, Fr, ReferenceBackend
from repro.gates import gate_by_id, high_degree_sweep_gate
from repro.mle import DenseMLE, VirtualPolynomial
from repro.sumcheck import FastSumCheckProver, Transcript

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_sumcheck.json"

SPEEDUP_FLOOR_MU12 = 2.0

#: (row name, gate id, μ, whether the acceptance floors apply); a
#: negative id -d is the degree-sweep gate of degree d, the one row whose
#: terms share no factor (the vanilla / Jellyfish rows all carry ``fr``)
BENCH_MATRIX = [
    ("vanilla-mu8", 20, 8, False),
    ("vanilla-mu10", 20, 10, False),
    ("vanilla-mu12", 20, 12, True),
    ("jellyfish-mu12", 22, 12, False),
    ("sweep-d16-mu12", -16, 12, False),
    ("vanilla-mu16", 20, 16, False),
]


def build_gate_vp(gate_id: int, num_vars: int, seed: int = 0xFA57):
    import random

    rng = random.Random(seed)
    spec = (
        gate_by_id(gate_id) if gate_id >= 0
        else high_degree_sweep_gate(-gate_id)
    )
    scalars = {s: rng.randrange(1, Fr.modulus) for s in spec.compiled.scalar_names}
    terms = spec.compiled.bind(Fr, scalars)
    mles = {
        name: DenseMLE.random(Fr, num_vars, rng)
        for name in spec.compiled.mle_names
    }
    return VirtualPolynomial(Fr, terms, mles)


def time_best(fn, repeats: int = 2) -> tuple[float, object]:
    """Best-of-N wall time plus the last result (for equality checks)."""
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def run_fastpath_benchmark(matrix=BENCH_MATRIX, repeats: int = 2) -> list[dict]:
    rows = []
    for name, gate_id, mu, is_acceptance in matrix:
        vp = build_gate_vp(gate_id, mu)
        # the claim only feeds the transcript (every prover absorbs the
        # same value), so large rows pin it to 0 rather than paying a
        # 2^μ hypercube sum, and time the slow reference prover
        # best-of-1 to bound suite runtime (the kernel keeps full
        # repeats: the ratio is what the bench gate compares)
        big = mu >= 16
        claim = 0 if big else vp.sum_over_hypercube()
        n = 1 if big else repeats
        ref_s, ref_proof = time_best(
            lambda: FastSumCheckProver(kernel=ReferenceBackend()).prove(
                vp, Transcript(Fr), claim=claim
            ),
            n,
        )
        fused_s, fused_proof = time_best(
            lambda: FastSumCheckProver().prove(
                vp, Transcript(Fr), claim=claim
            ),
            repeats,
        )
        assert fused_proof.round_evals == ref_proof.round_evals
        assert fused_proof.challenges == ref_proof.challenges
        assert fused_proof.final_evals == ref_proof.final_evals
        rows.append({
            "exact": {
                "name": name,
                "gate_id": gate_id,
                "mu": mu,
                "degree": vp.degree,
                "num_mles": len(vp.mles),
                "num_terms": len(vp.terms),
                "acceptance_row": is_acceptance,
            },
            "ratio": {"speedup": round(ref_s / fused_s, 3)},
            "info": {
                "reference_s": round(ref_s, 6),
                "fused_s": round(fused_s, 6),
            },
        })
    return rows


def emit_bench_json(rows: list[dict], path: Path = BENCH_PATH) -> dict:
    """Write the perf record consumed by future PRs' trend checks.

    To keep the committed artifact from churning with machine-local
    timings on every test run, the file is only (re)written when it does
    not exist yet or ``BENCH_SUMCHECK_EMIT=1`` is set (as CI does).
    """
    doc = {
        "exact": {
            "benchmark": "sumcheck_fastpath",
            "unit": "seconds",
            "backend": "fused",
            "speedup_floor_mu12": SPEEDUP_FLOOR_MU12,
        },
        "rows": rows,
    }
    if not path.exists() or os.environ.get("BENCH_SUMCHECK_EMIT") == "1":
        path.write_text(json.dumps(doc, indent=2) + "\n")
    return doc


class TestSumCheckFastPath:
    def test_fastpath_speedup_and_emit(self):
        """The headline run: μ-sweep the gates with bit-identical proofs
        and emit BENCH_sumcheck.json; under ``BENCH_SUMCHECK_EMIT=1``,
        enforce the ≥2× floor on the μ = 12 vanilla acceptance row."""
        rows = run_fastpath_benchmark()
        emit_bench_json(rows)
        assert [r["exact"]["name"] for r in rows] == [m[0] for m in BENCH_MATRIX]
        assert all(r["ratio"]["speedup"] > 0 for r in rows)
        acceptance = [r for r in rows if r["exact"]["acceptance_row"]]
        assert acceptance, "benchmark matrix lost its acceptance row"
        if os.environ.get("BENCH_SUMCHECK_EMIT") != "1":
            return
        for row in acceptance:
            if row["ratio"]["speedup"] >= SPEEDUP_FLOOR_MU12:
                continue
            # wall-clock ratios can wobble on loaded machines; re-measure
            # the failing row once with more repeats before declaring a
            # regression
            retry = run_fastpath_benchmark(
                matrix=[
                    (row["exact"]["name"], row["exact"]["gate_id"],
                     row["exact"]["mu"], True)
                ],
                repeats=4,
            )[0]
            assert retry["ratio"]["speedup"] >= SPEEDUP_FLOOR_MU12, (
                f"fast path regressed: {retry['exact']['name']} speedup "
                f"{retry['ratio']['speedup']}x < {SPEEDUP_FLOOR_MU12}x "
                f"(first attempt {row['ratio']['speedup']}x)"
            )

    def test_smoke_small_mu(self):
        """Cheap CI smoke: one small instance end-to-end, no JSON write."""
        rows = run_fastpath_benchmark(
            matrix=[("vanilla-mu6-smoke", 20, 6, False)], repeats=1
        )
        assert rows[0]["ratio"]["speedup"] > 0


@pytest.mark.parametrize("gate_id", [20, 22])
@pytest.mark.parametrize("kernel", [KERNEL], ids=["fused"])
def test_bench_fast_sumcheck(benchmark, kernel, gate_id):
    """pytest-benchmark row for the kernel (mirrors the rows in
    test_kernel_benchmarks.py, small μ to keep the suite quick)."""
    vp = build_gate_vp(gate_id, 6)
    claim = vp.sum_over_hypercube()
    prover = FastSumCheckProver(kernel=kernel)
    benchmark.pedantic(
        lambda: prover.prove(vp, Transcript(Fr), claim=claim),
        rounds=1,
        iterations=1,
    )
