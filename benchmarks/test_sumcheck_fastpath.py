"""Fast-path SumCheck benchmark + ``BENCH_sumcheck.json`` emitter.

Times the SumCheck round loop on the ``ReferenceBackend`` oracle against
the same loop on the ``fused`` field-vector kernel, on paper gates at
increasing μ, asserts the proofs stay bit-identical, and
records the measured trajectory into ``BENCH_sumcheck.json`` at the repo
root so every future PR can see whether the fast path regressed.  Each
row's gate shape is ``exact``, its speedup a ``ratio`` and its seconds
``info`` (the sections ``benchmarks/check_regression.py`` reads).

Timing protocol: a row with μ ≤ 12 runs the reference and the fused
prover alternately, :data:`RUNS` times each, and its speedup is the ratio
of the two medians; ``info`` keeps both medians, ``runs`` and the range
of the per-pair ratios.  The μ = 16 row runs each prover once
(``runs`` = 1).  Each row also records ``info.fused_peak_mb``, the
tracemalloc peak of one fused prove above its inputs: the round kernel's
tile working set plus one folded generation of tables.  A run that does
not write the record (``record=False``) times one pair per row and
measures no peak.

The acceptance row is the vanilla-PLONK gate at μ = 12, which must show
at least a 2× speedup for ``fused`` (~3.5× since the kernel runs on a
degree-aware round schedule).  That floor is a wall-clock ratio, so it
is asserted only when emitting the record (``BENCH_SUMCHECK_EMIT=1``);
tier-1 asserts bit-identical proofs and the record's structure.
"""

import gc
import json
import os
import statistics
import time
import tracemalloc
from pathlib import Path

import pytest

from repro.fields import KERNEL, Fr, ReferenceBackend
from repro.gates import gate_by_id, high_degree_sweep_gate
from repro.mle import DenseMLE, VirtualPolynomial
from repro.sumcheck import FastSumCheckProver, Transcript

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_sumcheck.json"

SPEEDUP_FLOOR_MU12 = 2.0

#: alternating reference / fused runs per row with μ ≤ 12 in a record
RUNS = 5

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


def emitting(path: Path = BENCH_PATH) -> bool:
    """Whether :func:`emit_bench_json` will (re)write the record."""
    return not path.exists() or os.environ.get("BENCH_SUMCHECK_EMIT") == "1"


def timed(fn) -> tuple[float, object]:
    """One wall time and the result (for equality checks)."""
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def peak_mb(fn) -> float:
    """The tracemalloc peak of ``fn()`` above what was live before it."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def run_fastpath_benchmark(matrix=BENCH_MATRIX, record: bool = True) -> list[dict]:
    rows = []
    for name, gate_id, mu, is_acceptance in matrix:
        vp = build_gate_vp(gate_id, mu)
        # the claim only feeds the transcript (every prover absorbs the
        # same value), so large rows pin it to 0 rather than paying a
        # 2^μ hypercube sum, and run the slow reference prover once
        big = mu >= 16
        claim = 0 if big else vp.sum_over_hypercube()
        n = RUNS if record and not big else 1

        def reference():
            return FastSumCheckProver(kernel=ReferenceBackend()).prove(
                vp, Transcript(Fr), claim=claim
            )

        def fused():
            return FastSumCheckProver().prove(vp, Transcript(Fr), claim=claim)

        ref_s, fused_s = [], []
        for _ in range(n):
            # alternate, so a change of host speed hits both sides alike
            seconds, ref_proof = timed(reference)
            ref_s.append(seconds)
            seconds, fused_proof = timed(fused)
            fused_s.append(seconds)
        assert fused_proof.round_evals == ref_proof.round_evals
        assert fused_proof.challenges == ref_proof.challenges
        assert fused_proof.final_evals == ref_proof.final_evals
        ref_median = statistics.median(ref_s)
        fused_median = statistics.median(fused_s)
        pair_ratios = [r / f for r, f in zip(ref_s, fused_s)]
        info = {
            "runs": n,
            "reference_s": round(ref_median, 6),
            "fused_s": round(fused_median, 6),
            "speedup_range": [round(min(pair_ratios), 3),
                              round(max(pair_ratios), 3)],
        }
        if record:
            info["fused_peak_mb"] = round(peak_mb(fused), 3)
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
            "ratio": {"speedup": round(ref_median / fused_median, 3)},
            "info": info,
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
    if emitting(path):
        path.write_text(json.dumps(doc, indent=2) + "\n")
    return doc


class TestSumCheckFastPath:
    def test_fastpath_speedup_and_emit(self):
        """The headline run: μ-sweep the gates with bit-identical proofs
        and emit BENCH_sumcheck.json; under ``BENCH_SUMCHECK_EMIT=1``,
        enforce the ≥2× floor on the μ = 12 vanilla acceptance row."""
        rows = run_fastpath_benchmark(record=emitting())
        emit_bench_json(rows)
        assert [r["exact"]["name"] for r in rows] == [m[0] for m in BENCH_MATRIX]
        assert all(r["ratio"]["speedup"] > 0 for r in rows)
        acceptance = [r for r in rows if r["exact"]["acceptance_row"]]
        assert acceptance, "benchmark matrix lost its acceptance row"
        if os.environ.get("BENCH_SUMCHECK_EMIT") != "1":
            return
        for row in acceptance:
            assert row["ratio"]["speedup"] >= SPEEDUP_FLOOR_MU12, (
                f"fast path regressed: {row['exact']['name']} speedup "
                f"{row['ratio']['speedup']}x < {SPEEDUP_FLOOR_MU12}x "
                f"(median of {row['info']['runs']} alternating runs, "
                f"pair ratios {row['info']['speedup_range']})"
            )

    def test_smoke_small_mu(self):
        """Cheap CI smoke: one small instance through the whole recording
        protocol (alternating runs, peak), no JSON write."""
        (row,) = run_fastpath_benchmark(
            matrix=[("vanilla-mu6-smoke", 20, 6, False)]
        )
        assert row["ratio"]["speedup"] > 0
        assert row["info"]["runs"] == RUNS
        low, high = row["info"]["speedup_range"]
        assert 0 < low <= high
        assert row["info"]["fused_peak_mb"] > 0


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
