"""Seeded event sources: deterministic streams of timed payloads.

An :class:`EventSource` yields ``(at_s, payload)`` pairs in
non-decreasing time order; :func:`install` pumps any source into a
:class:`~repro.sim.engine.Simulator` by scheduling one event per pair.
One concrete source covers the cluster layer's needs:
:class:`TraceSource` replays a pre-computed trace (e.g. a churn trace
from :mod:`repro.workloads.churn`), so a scenario is exactly
reproducible from its recorded event list.

Sources never touch global RNG state: every stream is a pure function
of its constructor arguments, which is what makes same-seed cluster
scenarios bit-for-bit repeatable.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.sim.engine import DEFAULT_PRIORITY, EventHandle, Simulator


class EventSource:
    """Base class: an iterable of ``(at_s, payload)`` pairs."""

    def events(self) -> Iterator[tuple[float, object]]:
        """Yield ``(model time, payload)`` in non-decreasing time order."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[tuple[float, object]]:
        return self.events()


class TraceSource(EventSource):
    """Replays a fixed ``(at_s, payload)`` trace, sorted by time."""

    def __init__(self, trace: Iterable[tuple[float, object]]):
        self.trace = sorted(trace, key=lambda pair: pair[0])

    def events(self) -> Iterator[tuple[float, object]]:
        """Replay the trace in time order."""
        yield from self.trace

    def __len__(self) -> int:
        return len(self.trace)


def install(
    sim: Simulator,
    source: EventSource,
    handler: Callable[[object], None],
    *,
    priority: int = DEFAULT_PRIORITY,
) -> list[EventHandle]:
    """Schedule every event of ``source`` onto ``sim``.

    Each ``(at_s, payload)`` pair becomes one simulator event calling
    ``handler(payload)``; the handles are returned so a scenario can
    cancel the remainder of a stream mid-run.
    """
    return [
        sim.schedule(at_s, (lambda p=payload: handler(p)), priority=priority)
        for at_s, payload in source
    ]
