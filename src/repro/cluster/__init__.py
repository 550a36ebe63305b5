"""A sharded multi-node proving simulation (fleet layer).

One :class:`~repro.service.ProvingService` is a node; this package is
the fleet above it (DESIGN.md §7–8).  The pipeline is **route → shard →
drain**, run on the :mod:`repro.sim` discrete-event engine:

* :mod:`repro.cluster.routing` — :class:`ClusterRouter` over
  ``round_robin`` / ``least_loaded`` / ``affinity`` policies, with a
  SHA-256 :class:`HashRing` so fingerprint placement is deterministic
  across processes and node churn moves only ~K/N keys; down-marking
  (crashes) and ``exclude`` sets (retries) ride the same ring;
* :mod:`repro.cluster.nodes` — :class:`ProverNode`: a bounded
  :class:`SimIndexCache`, a model-time clock and crash/recover state;
  nothing here proves (the real fleet, :mod:`repro.fleet`, does);
* :mod:`repro.cluster.engine` — :class:`ClusterEngine`: the event loop
  interleaving arrivals, job completions, churn, retries, and autoscaler
  ticks;
* :mod:`repro.cluster.autoscale` — :class:`AutoscalePolicy`: fleet
  sizing from the plan-predicted backlog signal;
* :mod:`repro.cluster.timemodel` — :class:`FleetTimeModel`: plan-priced
  prove seconds plus host-side index-install seconds on cache misses;
* :mod:`repro.cluster.metrics` — :func:`cluster_summary`: makespan,
  throughput, load imbalance, install share, cache locality, shape
  spread, resilience counters after every run, retry latency after a
  crash and deadline misses once arrivals are paced (one rule,
  :func:`~repro.cluster.metrics.run_blocks`, shared with the real fleet);
* :mod:`repro.cluster.core` — :class:`ProvingCluster` tying it together
  (``run``, the one entry point, with or without churn; it routes each
  job at its ``arrival_s``, so a stream with every arrival zero is an
  arrivals-ignored batch).

Demo CLI: ``python -m repro.cluster --scenario zipf-mixed --nodes 1,2,4``
(also installed as ``repro-cluster``; add ``--churn-rate 0.2`` for the
failure-aware path); see ``benchmarks/test_cluster_scaling.py``
(``BENCH_cluster.json``) and ``benchmarks/test_cluster_resilience.py``
(``BENCH_resilience.json``).
"""

from repro.cluster.autoscale import AutoscalePolicy
from repro.cluster.core import ClusterConfig, ProvingCluster
from repro.cluster.engine import ClusterEngine
from repro.cluster.metrics import (
    cluster_summary,
    deadline_stats,
    load_imbalance,
    retry_stats,
    shape_spread,
)
from repro.cluster.nodes import (
    DEFAULT_NODE_CACHE_CAPACITY,
    InFlightJob,
    NodeConfig,
    ProverNode,
    SimIndexCache,
)
from repro.cluster.records import Dispatcher, JobRecord, ResilienceStats, RetryPolicy
from repro.cluster.routing import (
    DEFAULT_REPLICAS,
    NoRoutableNodeError,
    ROUTING_POLICIES,
    ClusterRouter,
    HashRing,
    stable_hash,
)
from repro.cluster.timemodel import TIME_MODEL_PRESETS, FleetTimeModel

__all__ = [
    "AutoscalePolicy",
    "ClusterConfig",
    "ClusterEngine",
    "ClusterRouter",
    "DEFAULT_NODE_CACHE_CAPACITY",
    "DEFAULT_REPLICAS",
    "Dispatcher",
    "FleetTimeModel",
    "HashRing",
    "InFlightJob",
    "JobRecord",
    "NoRoutableNodeError",
    "NodeConfig",
    "ProverNode",
    "ProvingCluster",
    "ROUTING_POLICIES",
    "ResilienceStats",
    "RetryPolicy",
    "SimIndexCache",
    "TIME_MODEL_PRESETS",
    "cluster_summary",
    "deadline_stats",
    "load_imbalance",
    "retry_stats",
    "shape_spread",
    "stable_hash",
]
