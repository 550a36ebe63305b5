"""The fleet worker process: one node's proving loop.

Each :class:`~repro.fleet.core.ProvingFleet` node is one OS process
running :func:`worker_main`.  On startup the worker builds its
:class:`~repro.service.workers.WorkerState` — the seeded SRS (identical
on every node, so proofs are byte-identical fleet-wide) plus a
*bounded* worker-local index cache sized like the simulated node's
:class:`~repro.cluster.nodes.SimIndexCache` — exactly once, then serves
commands from its inbox queue:

* ``("prove", ProveTask)`` — resolve the index locally, prove, reply
  ``("result", TaskOutcome)``;
* ``("probe", None)`` — reply ``("probe", WorkerProbe)`` (the
  regression hook for the build-once SRS invariant);
* ``("freeze", seconds)`` — stop heartbeating *and* processing for
  ``seconds``: a deterministic stand-in for a wedged process, used by
  the heartbeat-miss tests;
* ``("stop", None)`` — drain the loop and exit cleanly.

A daemon thread emits ``("heartbeat", wall_s)`` on the worker's outbox
every ``heartbeat_s`` while the worker is healthy; the control plane's
:class:`~repro.fleet.heartbeat.HeartbeatMonitor` declares the node dead
when beats stop.  Every outbox message is ``(node_id, kind, payload)``.

Each worker gets its *own* outbox queue: a SIGKILL mid-message can
corrupt at most that worker's pipe, never a shared one.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

from repro.service.workers import WorkerState

#: outbox message kinds a worker can emit
WORKER_MSG_KINDS = ("ready", "heartbeat", "result", "probe", "stopped")


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to build its state.

    Mirrors the node side of :class:`~repro.cluster.nodes.NodeConfig`:
    same seed, same SRS size, same cache bound — so the real node and
    the simulated node hold the same indexes at the same times.
    """

    node_id: str
    #: SRS size: the largest circuit μ, like the service's
    srs_max_vars: int
    srs_seed: int = 0x5EED
    cache_capacity: int | None = None
    #: seconds between heartbeats while healthy
    heartbeat_s: float = 0.05


def worker_main(spec: WorkerSpec, inbox, outbox) -> None:
    """The worker process entry point (runs until ``stop`` or SIGKILL).

    ``inbox``/``outbox`` are multiprocessing queues owned by the
    control plane.  The SRS is built exactly once, before ``ready`` is
    reported; :class:`~repro.service.workers.WorkerProbe` replies carry
    the ``srs_builds`` counter that proves it stayed that way.
    """
    state = WorkerState(
        spec.srs_seed, spec.srs_max_vars, cache_capacity=spec.cache_capacity
    )
    stop_beats = threading.Event()
    frozen = threading.Event()

    def beat() -> None:
        while not stop_beats.wait(spec.heartbeat_s):
            if not frozen.is_set():
                outbox.put((spec.node_id, "heartbeat", time.time()))

    beater = threading.Thread(target=beat, daemon=True)
    beater.start()
    outbox.put((spec.node_id, "ready", os.getpid()))
    while True:
        kind, payload = inbox.get()
        if kind == "stop":
            break
        if kind == "freeze":
            # a wedged process: no beats, no progress, then back alive
            frozen.set()
            time.sleep(payload)
            frozen.clear()
        elif kind == "probe":
            outbox.put(
                (spec.node_id, "probe", state.probe(worker_id=spec.node_id))
            )
        elif kind == "prove":
            outcome = state.prove(payload, worker_id=spec.node_id)
            outbox.put((spec.node_id, "result", outcome))
        else:
            raise ValueError(f"unknown worker command {kind!r}")
    stop_beats.set()
    outbox.put((spec.node_id, "stopped", state.probe(worker_id=spec.node_id)))
