"""repro — a reproduction of zkPHIRE (HPCA 2026).

zkPHIRE is a programmable accelerator for zero-knowledge proofs over
high-degree, expressive gates.  This library reproduces the paper as
coupled layers:

* a **functional ZKP stack** (``repro.fields``, ``repro.curves``,
  ``repro.mle``, ``repro.gates``, ``repro.sumcheck``,
  ``repro.hyperplonk``) — a correct, pure-Python HyperPlonk prover and
  verifier with custom high-degree gates, runnable at small scales;
* a **proof-cost plan layer** (``repro.plan``) — one declarative
  :class:`~repro.plan.ProofPlan` phase DAG per circuit shape, priced by
  the hardware models, the CPU baseline, and the service's cost-aware
  scheduler instead of each re-deriving the protocol structure
  (DESIGN.md §6);
* a **proving service** (``repro.service``) — a batched, cached,
  multi-worker serving layer over the functional stack:
  :class:`~repro.service.ProvingService` drains
  :class:`~repro.service.ProofJob` streams through a content-addressed
  :class:`~repro.service.IndexCache` and a worker pool with cost-aware
  (``sjf`` / ``deadline``) drain policies (DESIGN.md §5,
  ``BENCH_service.json``, ``BENCH_scheduler.json``);
* a **sharded proving cluster** (``repro.cluster``, on the
  ``repro.sim`` discrete-event engine) — a simulated multi-node fleet
  above the service: :class:`~repro.cluster.ProvingCluster` routes job
  streams over N prover nodes under ``round_robin`` / ``least_loaded``
  / ``affinity`` policies, with consistent hashing on the circuit
  fingerprint keeping same-circuit traffic (and its index-cache wins)
  on one node, and failure-aware runs through the same entry point —
  seeded node churn, deterministic crash retries, plan-cost-driven
  autoscaling
  (DESIGN.md §7–§8, ``BENCH_cluster.json``, ``BENCH_resilience.json``);
* **one job stream** (``repro.traffic``) —
  :class:`~repro.traffic.OpenLoopTraffic` draws every job any layer
  serves over the scenarios in ``repro.workloads``: a closed batch is
  the stream bounded by a job count, an open loop the same stream paced
  by its seeded arrivals, with tenants, SLO tiers and admission control
  (DESIGN.md §11, ``BENCH_traffic.json``);
* a **hardware performance model** (``repro.hw``, ``repro.workloads``,
  ``repro.experiments``) — analytical models of every zkPHIRE module,
  calibrated baselines, and the design-space exploration that regenerates
  every table and figure in the paper's evaluation.

See DESIGN.md for the system inventory (including the field-vector
kernel behind the SumCheck prover) and BENCH_sumcheck.json for the
recorded fast-path perf trajectory.
"""

import importlib

__version__ = "0.1.0"

#: where each re-exported name lives; resolved on first access (PEP 562)
#: so importing a sub-package loads that layer and the ones under it,
#: not the serving and cluster stack above
_EXPORTS = {
    "ClusterConfig": "repro.cluster",
    "Fr": "repro.fields",
    "Fq": "repro.fields",
    "FunctionalProverCostModel": "repro.plan",
    "IndexCache": "repro.service",
    "JobCostModel": "repro.service",
    "OpenLoopTraffic": "repro.traffic",
    "ProofJob": "repro.service",
    "ProofResult": "repro.service",
    "ProofPlan": "repro.plan",
    "ProvingCluster": "repro.cluster",
    "ProvingService": "repro.service",
    "ServiceConfig": "repro.service",
    "hyperplonk_plan": "repro.plan",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
