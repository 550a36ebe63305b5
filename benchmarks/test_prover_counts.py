"""Per-phase work of whole HyperPlonk proofs + ``BENCH_prover.json`` emitter.

Proves both gate types at μ ∈ {4, 6} on the one-shot path (resident
SRS tables, no combs) and records a warm proof through the work recorder
(:mod:`repro.fields.counters`): per phase of
``repro.plan.HYPERPLONK_PHASES`` (plus ``other``) the field multiplies,
additions and inversions and the G1 counts, then the opening quotient
commitments and their points and the proof size.  All of that is
``exact`` — a deterministic function of the seeds — so a change to the
prover's work shows in the bench gate as a named count delta; seconds
are ``info``.  The record is (re)written when it does not exist or
``BENCH_PROVER_EMIT=1`` is set (as CI does).
"""

import json
import os
import random
import time
from pathlib import Path

import pytest

from repro.fields import Fr
from repro.fields.counters import recording
from repro.hyperplonk import (
    JELLYFISH,
    VANILLA,
    HyperPlonkProver,
    HyperPlonkVerifier,
    MultilinearKZG,
    TrapdoorSRS,
    preprocess,
)
from repro.plan import HYPERPLONK_PHASES
from repro.service.traffic import synthesize_circuit

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_prover.json"
SRS_SEED = 0
WITNESS_SEED = 1
CELLS = [(gate, mu) for gate in (VANILLA, JELLYFISH) for mu in (4, 6)]


class CountingKZG(MultilinearKZG):
    """The one-shot KZG, counting top-level commits and the quotient
    commits ``open`` makes (the e2e harness's split of the two)."""

    def __init__(self, srs: TrapdoorSRS):
        super().__init__(srs, fixed_base=False)
        self._opening = False
        self.reset()

    def reset(self) -> None:
        self.commits: list[int] = []  # table sizes
        self.quotients: list[int] = []
        self.open_calls = 0

    def commit(self, mle):
        (self.quotients if self._opening else self.commits).append(len(mle.table))
        return super().commit(mle)

    def open(self, mle, point):
        self.open_calls += 1
        self._opening = True
        try:
            return super().open(mle, point)
        finally:
            self._opening = False


def measure(gate, mu: int) -> dict:
    """One record row: a warm proof of ``gate`` at ``mu``, counted."""
    circuit = synthesize_circuit(gate, mu, witness_seed=WITNESS_SEED)
    kzg = CountingKZG(TrapdoorSRS(mu, random.Random(SRS_SEED)))
    pidx, vidx = preprocess(circuit, kzg)
    HyperPlonkProver(circuit, pidx, kzg).prove()  # builds the resident tables
    kzg.reset()
    started = time.perf_counter()
    with recording() as rec:
        proof = HyperPlonkProver(circuit, pidx, kzg).prove()
    prove_s = time.perf_counter() - started
    HyperPlonkVerifier(Fr, vidx, kzg).verify(proof)
    table = rec.table()
    return {
        "exact": {
            "gate": gate.name,
            "mu": mu,
            "proof_bytes": proof.size_bytes(),
            "commit_calls": len(kzg.commits),
            "commit_points": sum(kzg.commits),
            "open_calls": kzg.open_calls,
            "quotient_commits": len(kzg.quotients),
            "quotient_points": sum(kzg.quotients),
            "phases": {
                name: {k: v for k, v in row.items() if k != "seconds"}
                for name, row in table.items()
            },
        },
        "info": {
            "prove_s": round(prove_s, 4),
            "phase_s": {name: round(row["seconds"], 4)
                        for name, row in table.items()},
        },
    }


def emit_bench_json(rows: list[dict], path: Path = BENCH_PATH) -> dict:
    doc = {
        "exact": {
            "benchmark": "prover_counts",
            "srs_seed": SRS_SEED,
            "witness_seed": WITNESS_SEED,
            "kzg": "one-shot (resident tables, no combs)",
        },
        "rows": rows,
    }
    if not path.exists() or os.environ.get("BENCH_PROVER_EMIT") == "1":
        path.write_text(json.dumps(doc, indent=2) + "\n")
    return doc


@pytest.fixture(scope="module")
def rows():
    return [measure(gate, mu) for gate, mu in CELLS]


class TestProverCounts:
    def test_counts_and_emit(self, rows):
        """Every row is a phase the prover names, the proof makes its
        7 (Jellyfish) or 5 (Vanilla) commits and 5 openings, and the
        record is written."""
        for row in rows:
            phases = row["exact"]["phases"]
            assert set(phases) <= set(HYPERPLONK_PHASES) | {"other"}
            assert {"witness_msm", "zerocheck", "opening_msm"} <= set(phases)
            assert all(v >= 0 for cols in phases.values() for v in cols.values())
            gate = {g.name: g for g, _ in CELLS}[row["exact"]["gate"]]
            assert row["exact"]["commit_calls"] == len(gate.witness_names) + 2
            assert row["exact"]["open_calls"] == 5
        doc = emit_bench_json(rows)
        assert [(r["exact"]["gate"], r["exact"]["mu"]) for r in doc["rows"]] == [
            (gate.name, mu) for gate, mu in CELLS]

    @pytest.mark.parametrize("gate", [VANILLA, JELLYFISH], ids=lambda g: g.name)
    def test_openings_share_the_blend_walk(self, rows, gate):
        """Five openings of μ variables: the combined one (μ - 1 quotient
        MSMs over W = 2^μ - 2 points), π at two points sharing q₁
        (2μ - 3 MSMs, 2W - 2^(μ-1) points) and the blend at two points
        sharing every quotient (μ - 1, W): 19 MSMs over 216 points at
        μ = 6."""
        for row in rows:
            exact = row["exact"]
            if exact["gate"] != gate.name:
                continue
            mu = exact["mu"]
            walk = (1 << mu) - 2
            assert exact["quotient_commits"] == 4 * mu - 5
            assert exact["quotient_points"] == 4 * walk - (1 << (mu - 1))
