"""Proving-service throughput benchmark + ``BENCH_service.json`` emitter.

Two measurements (ISSUE 2 acceptance):

* **Traffic scenarios** — at least two named scenarios run through the
  service (batched, cached, fixed-base MSM), recording
  throughput (proofs/sec), cache hit rate, and latency tails.
* **Same-circuit acceptance** — a same-circuit workload served two ways:
  the *naive one-job-at-a-time loop* (the stateless pattern
  ``examples/quickstart.py`` uses today: fresh SRS view + preprocess +
  prove per request) versus the warm service.  Proofs must be
  bit-identical; service throughput must be ≥ 1.5× the naive loop in
  the bench lane (``BENCH_SERVICE_EMIT=1``), while tier-1 only prints
  the ratio, which is one wall clock over another.

Like ``BENCH_sumcheck.json``, the JSON artifact is only (re)written when
missing or ``BENCH_SERVICE_EMIT=1`` is set (as CI does), so committed
numbers don't churn with machine-local timings.  Batch plans are
``exact``, hit rates and the speedup ``ratio``, and seconds and
proofs/sec ``info`` (never compared).
"""

import json
import os
import random
import time
from pathlib import Path

from repro.fields import Fr
from repro.hyperplonk import (
    HyperPlonkProver,
    HyperPlonkVerifier,
    MultilinearKZG,
    TrapdoorSRS,
    preprocess,
)
from repro.service import ProvingService, ServiceConfig, TrafficGenerator
from repro.service.traffic import GATE_TYPES, synthesize_circuit

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_service.json"

SPEEDUP_FLOOR = 1.5

SCENARIO_MATRIX = [
    # (scenario, jobs, wave_s)
    ("uniform-small", 8, 0.25),
    ("zipf-mixed", 8, 0.5),
]

ACCEPTANCE_MU = 4
ACCEPTANCE_JOBS = 8
SRS_SEED = 0x5EED


def run_scenario_row(name: str, jobs: int, wave_s: float) -> dict:
    gen = TrafficGenerator(name, seed=1)
    config = ServiceConfig(max_vars=gen.max_vars(), executor="sync")
    with ProvingService(config) as service:
        service.run(gen.jobs(jobs), wave_s=wave_s)
        summary = service.summary()
    # waves bucket jobs by model-time arrival, so the batch plan is exact
    return {
        "exact": {
            "scenario": name,
            "jobs": summary["jobs"],
            "batches": summary["batches"],
            "drain_waves": summary["drains"],
            "executor": f"{summary['executor']}x{summary['num_workers']}",
            "backend": "fused",
        },
        "ratio": {
            "cache_hit_rate": summary["cache"]["hit_rate"],
            "job_cache_hit_rate": summary["job_cache_hit_rate"],
        },
        "info": {
            "throughput_proofs_per_s": summary["throughput_proofs_per_s"],
            "latency_p50_s": summary["latency_s"]["p50"],
            "latency_p95_s": summary["latency_s"]["p95"],
        },
    }


def run_same_circuit_acceptance(jobs: int = ACCEPTANCE_JOBS) -> dict:
    """Naive stateless loop vs warm service on one circuit structure."""
    circuits = [
        synthesize_circuit(GATE_TYPES["vanilla"], ACCEPTANCE_MU,
                           witness_seed=seed)
        for seed in range(jobs)
    ]

    t0 = time.perf_counter()
    naive_proofs = []
    for circuit in circuits:
        srs = TrapdoorSRS(ACCEPTANCE_MU, random.Random(SRS_SEED))
        kzg = MultilinearKZG(srs)
        pidx, vidx = preprocess(circuit, kzg)
        naive_proofs.append(
            HyperPlonkProver(circuit, pidx, kzg).prove()
        )
    naive_s = time.perf_counter() - t0

    config = ServiceConfig(max_vars=ACCEPTANCE_MU, executor="sync",
                           srs_seed=SRS_SEED)
    t0 = time.perf_counter()
    with ProvingService(config) as service:
        # two drain waves: the second wave's batch hits the index cache
        results = {}
        half = jobs // 2
        for circuit in circuits[:half]:
            service.submit(circuit)
        results.update((r.job_id, r) for r in service.drain())
        for circuit in circuits[half:]:
            service.submit(circuit)
        results.update((r.job_id, r) for r in service.drain())
        cache = service.cache.stats.as_dict()
    service_s = time.perf_counter() - t0

    for i, naive_proof in enumerate(naive_proofs):
        assert results[i].proof == naive_proof, (
            f"service proof {i} is not bit-identical to the direct prover"
        )
    HyperPlonkVerifier(Fr, vidx, kzg).verify(results[0].proof)

    return {
        "exact": {
            "workload": f"same-circuit vanilla mu={ACCEPTANCE_MU} x{jobs}",
            "jobs": jobs,
            "bit_identical": True,
        },
        "ratio": {
            "speedup": round(naive_s / service_s, 3),
            "cache_hit_rate": cache["hit_rate"],
        },
        "info": {
            "naive_s": round(naive_s, 6),
            "service_s": round(service_s, 6),
            "naive_proofs_per_s": round(jobs / naive_s, 3),
            "service_proofs_per_s": round(jobs / service_s, 3),
        },
    }


def emit_bench_json(scenarios: list[dict], acceptance: dict,
                    path: Path = BENCH_PATH) -> dict:
    doc = {
        "exact": {
            "benchmark": "proving_service",
            "unit": "proofs_per_second",
            "speedup_floor_same_circuit": SPEEDUP_FLOOR,
        },
        "scenarios": scenarios,
        "same_circuit_acceptance": acceptance,
    }
    if not path.exists() or os.environ.get("BENCH_SERVICE_EMIT") == "1":
        path.write_text(json.dumps(doc, indent=2) + "\n")
    return doc


class TestProvingServiceBench:
    def test_throughput_and_emit(self):
        """The headline run: two traffic scenarios + the same-circuit
        naive-vs-service acceptance, recorded to BENCH_service.json."""
        scenarios = [run_scenario_row(*row) for row in SCENARIO_MATRIX]
        for row in scenarios:
            assert row["info"]["throughput_proofs_per_s"] > 0
            assert 0.0 <= row["ratio"]["cache_hit_rate"] <= 1.0
        # multi-wave same-shape traffic must actually exercise the cache
        assert any(row["ratio"]["cache_hit_rate"] > 0 for row in scenarios)

        acceptance = run_same_circuit_acceptance()
        emit = os.environ.get("BENCH_SERVICE_EMIT") == "1"
        if emit and acceptance["ratio"]["speedup"] < SPEEDUP_FLOOR:
            # wall-clock ratios wobble on loaded machines; re-measure once
            # before declaring a regression
            acceptance = run_same_circuit_acceptance()
        emit_bench_json(scenarios, acceptance)
        speedup = acceptance["ratio"]["speedup"]
        print(f"same-circuit speedup={speedup}x "
              f"(floor {SPEEDUP_FLOOR}x, asserted in the emit lane)")
        assert acceptance["exact"]["bit_identical"]
        assert acceptance["exact"]["jobs"] == ACCEPTANCE_JOBS
        assert acceptance["ratio"]["cache_hit_rate"] > 0
        assert speedup > 0
        # a ratio of two wall clocks decides nothing in tier-1; the bench
        # lane (BENCH_SERVICE_EMIT=1) holds the floor and
        # check_regression.py gates the record it writes
        if emit:
            assert speedup >= SPEEDUP_FLOOR, (
                f"batched+cached service speedup {speedup}x "
                f"fell below the {SPEEDUP_FLOOR}x floor"
            )

    def test_smoke_small(self):
        """Cheap CI smoke: a 3-job same-circuit run, no JSON write."""
        row = run_same_circuit_acceptance(jobs=3)
        assert row["exact"]["bit_identical"]
        assert row["info"]["service_proofs_per_s"] > 0
