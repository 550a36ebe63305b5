"""Discrete-event simulation core for the proving fleet (DESIGN.md §8).

The smallest engine that lets :mod:`repro.cluster` interleave job
completions, node crashes/recoveries, retries, and autoscaler decisions
on one deterministic model-time axis:

* :mod:`repro.sim.engine` — :class:`Simulator`: a binary-heap event
  queue with a model clock, ``(time, priority, sequence)`` total event
  order, and cancellable :class:`EventHandle`\\ s (how a crash voids an
  in-flight job-finish event);
* :mod:`repro.sim.sources` — seeded :class:`EventSource` streams:
  :class:`TraceSource` replay (churn traces), pumped into a simulator
  via :func:`install`;
* :mod:`repro.sim.events` — :class:`EventLog` / :class:`FleetEvent`: the
  structured JSONL event record (stdlib-only, stamped from whatever
  clock its owner passes) that the simulated cluster and the real fleet
  both emit through.

The engine is domain-free — callbacks close over whatever state they
drive — so it is equally usable for future queueing or failure studies
outside the cluster layer.
"""

from repro.sim.engine import DEFAULT_PRIORITY, EventHandle, Simulator
from repro.sim.events import EVENT_KINDS, EventLog, FleetEvent
from repro.sim.sources import EventSource, TraceSource, install

__all__ = [
    "DEFAULT_PRIORITY",
    "EVENT_KINDS",
    "EventHandle",
    "EventLog",
    "EventSource",
    "FleetEvent",
    "Simulator",
    "TraceSource",
    "install",
]
