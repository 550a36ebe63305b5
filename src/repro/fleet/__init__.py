"""A real async distributed proving runtime, validated against the sim.

Where :mod:`repro.cluster` *models* a multi-node fleet in discrete-event
time, this package *runs* one: persistent worker processes (one per
node, each owning its seeded SRS and a bounded index cache, so proofs
stay byte-identical to every other path in the repo), an asyncio
control plane reusing the cluster's :class:`~repro.cluster.routing.\
ClusterRouter` policies, heartbeat-based failure detection with
deterministic seeded kill injection, and crash-retry semantics shared
with the sim through :class:`~repro.cluster.records.RetryPolicy`.

The payoff is the repo's model-vs-reality loop one level above the
hardware model: :mod:`repro.fleet.validation` runs the same scenario
through the sim and through the real fleet and checks the model ranks
routing policies the way wall-clock reality does
(``benchmarks/test_fleet_validation.py`` → ``BENCH_fleet.json``).

Modules:

* :mod:`repro.fleet.worker` — the worker-process main loop (build-once
  SRS, prove/probe/freeze/stop commands, heartbeats);
* :mod:`repro.fleet.heartbeat` — miss-threshold failure detection;
* :mod:`repro.fleet.core` — :class:`FleetConfig` / :class:`ProvingFleet`,
  the asyncio control plane and its measured-side summary (built from
  the sim's own :mod:`repro.cluster.metrics` helpers);
* :mod:`repro.fleet.validation` — the predicted-vs-measured harness.

Demo CLI: ``python -m repro.fleet --scenario zipf-mixed --nodes 3``
(also installed as ``repro-fleet``).

The runtime classes resolve lazily, so importing the package loads
none of the worker / asyncio machinery.  The structured event log both
runtimes emit through lives beside the sim core
(:mod:`repro.sim.events`).
"""

__all__ = [
    "FleetConfig",
    "HeartbeatMonitor",
    "ProvingFleet",
    "run_validation",
]

_LAZY = {
    "FleetConfig": ("repro.fleet.core", "FleetConfig"),
    "ProvingFleet": ("repro.fleet.core", "ProvingFleet"),
    "HeartbeatMonitor": ("repro.fleet.heartbeat", "HeartbeatMonitor"),
    "run_validation": ("repro.fleet.validation", "run_validation"),
}


def __getattr__(name: str):
    """Resolve the runtime classes lazily (PEP 562) to stay cycle-free."""
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), attr)
