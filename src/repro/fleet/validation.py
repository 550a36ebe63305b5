"""The predicted-vs-measured harness: does the sim rank reality right?

This is the repo's version of the paper's model-vs-silicon loop, one
level up the stack: the discrete-event cluster sim
(:mod:`repro.cluster` on :mod:`repro.sim`) plays the role of the
analytical hardware model, and the real asyncio fleet
(:mod:`repro.fleet.core`) plays the silicon.  :func:`run_validation`
runs the *same* seeded traffic scenario through both, per routing
policy, and checks two things:

* **Rank agreement** — the sim must order routing policies by makespan
  the same way wall-clock reality does.  Only *significant* pairs are
  gated: two policies whose predicted makespans differ by less than
  ``significance`` (default 10%) are a modeled tie, and demanding the
  noisy wall clock break the tie the same way would gate on noise
  (round_robin and least_loaded land within ~1% of each other on
  zipf-mixed — a real tie — while affinity's cache-hit advantage puts
  it ~10-15% away from both, a real gap).  The measured side of a
  gated pair additionally gets a small noise budget
  (``measured_tolerance``, default 5%): the predicted winner must not
  *lose* by more than that, which rides out shared-box jitter while a
  genuine model inversion — tens of percent the wrong way — still
  fails.
* **Calibration spread** — the per-policy measured/predicted makespan
  ratio.  The functional time model is fitted to this interpreter, so
  the ratio is O(1) but machine-dependent; what must stay stable is the
  *spread* (max/min ratio across policies, 1.0 = perfectly consistent
  calibration), which is what rank agreement actually rests on.

**Core-aware prediction.**  The sim assumes N nodes prove in parallel;
a real host only honours that with >= N usable cores.  On a 1-core CI
box the N worker processes serialize and wall-clock tracks *total
modeled work* (where affinity's cache hits win), not the parallel
critical path (where load-spreading wins) — naively comparing against
the parallel makespan inverts the ranking and reads as model failure
when it is really a resource constraint the model was never told
about.  :func:`predicted_wall_s` therefore predicts

``max(model_makespan, total_modeled_busy / effective_cores)``

— the classic greedy-scheduling lower bound.  With enough cores the
second term is never binding (``busy/N <= makespan`` by averaging) and
the prediction is exactly the sim makespan; short of cores it degrades
to work conservation.  Both regimes are ranked correctly by the same
formula, so the bench gate holds on laptops and starved CI runners
alike.

Placement parity makes the comparison tight: both sides route through
an identical :class:`~repro.cluster.routing.ClusterRouter` in the same
submission order, so in a failure-free run every job lands on the same
node in sim and fleet and the only difference left is *time*
(``tests/test_fleet.py`` locks placement parity down).

:func:`run_validation` takes the base
:class:`~repro.fleet.scenario.Scenario`; each policy cell is that
scenario with its ``policy`` replaced, run once on each runtime by
:func:`~repro.fleet.scenario.run`: the sim's records give the modeled
makespan and busy seconds, the fleet's records the measured makespan
and its proofs the byte-identity check.  The record keeps each cell as
its ``scenario`` block (:meth:`~repro.fleet.scenario.Scenario.as_dict`).
Every value sits in the section that says how the bench gate compares
it: the configuration, the model-time figures and the two verdicts
``exact``, the calibration spread a ``ratio``, and whatever reads the
host — wall-clock seconds, the core count and the core-aware
predictions and rankings built on it — ``info``.

``benchmarks/test_fleet_validation.py`` runs this and emits
``BENCH_fleet.json``; byte-identity of fleet proofs against a
single-service run rides along as the end-to-end correctness check.
"""

from __future__ import annotations

import os
from dataclasses import replace
from itertools import combinations

from repro.cluster.nodes import NodeConfig
from repro.cluster.routing import ROUTING_POLICIES
from repro.fleet.scenario import Scenario, run
from repro.service.core import ProvingService, ServiceConfig

#: predicted-makespan gap below which two policies count as a modeled tie
DEFAULT_SIGNIFICANCE = 0.10

#: wall-clock noise budget when checking measured order: the predicted
#: winner may *lose* by up to this fraction before the pair counts as a
#: disagreement.  Shared CI boxes jitter measured makespans by a few
#: percent; a genuine model inversion (e.g. predicting parallel speedup
#: a 1-core host cannot deliver) misorders pairs by tens of percent and
#: still fails.
DEFAULT_MEASURED_TOLERANCE = 0.05


def effective_cores() -> int:
    """Usable CPU cores for this process (affinity-mask aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def predicted_wall_s(
    model_makespan_s: float, modeled_busy_s: float, cores: int
) -> float:
    """Greedy-scheduling wall-clock bound for a core-limited host."""
    return max(model_makespan_s, modeled_busy_s / max(cores, 1))


def reference_proofs(
    base: Scenario, *, srs_seed: int = NodeConfig.srs_seed
) -> dict[int, object]:
    """Single-service proofs of the same job stream, by job id.

    The byte-identity oracle: one sync :class:`ProvingService` with the
    same seeded SRS must produce exactly the proofs the fleet's N
    worker processes produced.
    """
    traffic = base.traffic()
    service = ProvingService(
        ServiceConfig(
            max_vars=traffic.max_vars(),
            srs_seed=srs_seed,
            executor="sync",
            cache_capacity=base.cache_capacity,
        )
    )
    try:
        results = service.run(list(traffic.jobs()))
    finally:
        service.close()
    return {r.job_id: r.proof for r in results}


def significant_pairs(
    makespans: dict[str, float], significance: float
) -> list[tuple[str, str]]:
    """Policy pairs whose predicted gap exceeds ``significance``.

    Each pair is ordered (predicted-faster, predicted-slower); the
    list is sorted, so the output is deterministic for a given model
    and core count.
    """
    pairs = []
    for a, b in combinations(sorted(makespans), 2):
        low, high = sorted((a, b), key=lambda p: makespans[p])
        gap = makespans[high] / makespans[low] - 1.0
        if gap >= significance:
            pairs.append((low, high))
    return sorted(pairs)


def run_validation(
    base: Scenario,
    *,
    policies: tuple[str, ...] = ROUTING_POLICIES,
    significance: float = DEFAULT_SIGNIFICANCE,
    measured_tolerance: float = DEFAULT_MEASURED_TOLERANCE,
    check_proofs: bool = True,
) -> dict:
    """Run ``base`` under every policy on both runtimes; returns the
    record dict.

    The returned dict is exactly what ``BENCH_fleet.json`` holds, in
    ``exact`` / ``ratio`` / ``info`` sections: per-policy cells
    (``base`` with that ``policy``, as
    :meth:`~repro.fleet.scenario.Scenario.as_dict`), model, predicted
    and measured makespans and their ratios, the two rankings, the
    significant-pair rank agreement, the calibration spread, and the
    proof byte-identity verdict.
    """
    cores = effective_cores()
    cells = {policy: replace(base, policy=policy) for policy in policies}
    model: dict[str, float] = {}
    busy: dict[str, float] = {}
    measured: dict[str, float] = {}
    fleet_proofs: dict[int, object] | None = None
    for policy, cell in cells.items():
        records = run(cell).records
        model[policy] = max(r.finish_s for r in records)
        busy[policy] = sum(r.install_model_s + r.prove_model_s for r in records)
        fleet = run(cell, runtime="fleet", run_timeout_s=300.0)
        measured[policy] = max(r.finish_s for r in fleet.records)
        if fleet_proofs is None:
            fleet_proofs = fleet.proofs
    wall = {p: predicted_wall_s(model[p], busy[p], cores) for p in policies}
    pairs = significant_pairs(wall, significance)
    agreement = all(
        measured[low] < measured[high] * (1.0 + measured_tolerance)
        for low, high in pairs
    )
    ratios = {p: measured[p] / wall[p] for p in policies}
    spread = max(ratios.values()) / min(ratios.values())
    exact = {
        "benchmark": "fleet_validation",
        "unit": "seconds (predicted = core-aware model, measured = wall)",
        "significance": significance,
        "measured_tolerance": measured_tolerance,
        "rank_agreement": agreement,
    }
    if check_proofs:
        exact["proofs_identical"] = fleet_proofs == reference_proofs(base)
    return {
        "exact": exact,
        "ratio": {"calibration_spread": round(spread, 4)},
        "info": {
            "effective_cores": cores,
            "predicted_ranking": sorted(policies, key=lambda p: wall[p]),
            "measured_ranking": sorted(policies, key=lambda p: measured[p]),
            "significant_pairs": [list(pair) for pair in pairs],
        },
        "policies": {
            policy: {
                "exact": {
                    "scenario": cells[policy].as_dict(),
                    "model_makespan_s": round(model[policy], 6),
                    "modeled_busy_s": round(busy[policy], 6),
                },
                "info": {
                    "predicted_makespan_s": round(wall[policy], 6),
                    "measured_makespan_s": round(measured[policy], 6),
                    "measured_over_predicted": round(ratios[policy], 4),
                },
            }
            for policy in sorted(policies)
        },
    }
