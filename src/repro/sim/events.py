"""The structured event log shared by the sim engine and the real fleet.

One JSONL schema (:class:`FleetEvent`) records what happened to every
job and node, whether the run was simulated model time
(:class:`~repro.cluster.engine.ClusterEngine`) or real wall time
(:class:`~repro.fleet.core.ProvingFleet`): job accepted / assigned /
completed / crashed / retried / failed, plus node up / down.  Both
runtimes emit through one :class:`EventLog`, so a sim trace and a fleet
trace of the same scenario are line-for-line comparable — the
validation harness and the replay tests diff them directly.

Determinism contract: the sim engine's clock is the model clock, so a
recorded sim log replays **bit-identically** under the same seed
(``tests/test_fleet_events.py`` locks this down).  Fleet logs carry
run-relative wall times and are reproducible in *structure* (event
kinds, job/node ids, attempt counters) but not in timestamps.

This module depends only on the standard library and is stamped from
whatever clock its owner passes, so it sits beside the sim core — below
both runtimes in the import graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Callable, Iterable, Iterator

#: every event kind either runtime may emit, in no particular order.
#: ``autoscale_decision`` / ``scheduler_choice`` record *why* the engine
#: moved (ROADMAP item 5's schema gap); ``job_suspend`` / ``job_resume``
#: / ``power_cap`` are the carbon/power machinery of ``repro.carbon``.
EVENT_KINDS = (
    "job_accepted",
    "job_assigned",
    "job_completed",
    "job_crashed",
    "job_retried",
    "job_failed",
    "job_shed",
    "job_suspend",
    "job_resume",
    "node_up",
    "node_down",
    "autoscale_decision",
    "scheduler_choice",
    "power_cap",
)

# O(1) membership for the emit hot path
_EVENT_KIND_SET = frozenset(EVENT_KINDS)


@dataclass(frozen=True, init=False)
class FleetEvent:
    """One log line: something happened to a job or a node at ``at_s``."""

    #: emission ordinal within one log (total order even at equal times)
    seq: int
    #: model seconds (sim) or run-relative wall seconds (fleet)
    at_s: float
    #: one of :data:`EVENT_KINDS`
    kind: str
    #: the job concerned (None for node lifecycle events)
    job_id: int | None = None
    #: the node concerned (None when a job had no placement, e.g. accept)
    node_id: str | None = None
    #: the job's retry ordinal when the event fired
    attempt: int = 0
    #: free-form extras (cache_hit, reason, …) — JSON-scalar values only
    detail: dict = dc_field(default_factory=dict)

    def __init__(
        self,
        seq: int,
        at_s: float,
        kind: str,
        job_id: int | None = None,
        node_id: str | None = None,
        attempt: int = 0,
        detail: dict | None = None,
    ):
        # a frozen dataclass's generated __init__ pays one
        # object.__setattr__ per field; a read builds one record per
        # row, so the record is filled with a single dict update
        self.__dict__.update(
            seq=seq,
            at_s=at_s,
            kind=kind,
            job_id=job_id,
            node_id=node_id,
            attempt=attempt,
            detail={} if detail is None else detail,
        )

    def to_line(self) -> str:
        """Serialize to one canonical JSONL line (sorted keys)."""
        return json.dumps(self.__dict__, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_line(line: str) -> "FleetEvent":
        """Parse one JSONL line back into an event."""
        return FleetEvent(**json.loads(line))


class EventLog:
    """An append-only event recorder bound to a clock.

    ``clock`` is called at each :meth:`emit` to stamp ``at_s`` — the
    sim engine passes its model clock, the fleet a run-relative
    ``time.monotonic`` delta.  Events carry a per-log sequence number,
    so logs are totally ordered even when many events share a stamp.

    :meth:`emit` appends one row tuple; :class:`FleetEvent` records are
    built from the rows on the first read (and only the new rows on a
    later one), so a run nothing reads builds none.
    """

    def __init__(self, clock: Callable[[], float] | None = None):
        self.clock = clock if clock is not None else (lambda: 0.0)
        self._rows: list[tuple] = []
        self._built: list[FleetEvent] = []

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[FleetEvent]:
        return iter(self.events)

    @property
    def events(self) -> list[FleetEvent]:
        """Every event as a record, in emission order (built on read)."""
        built = self._built
        for seq in range(len(built), len(self._rows)):
            built.append(FleetEvent(seq, *self._rows[seq]))
        return built

    def emit(
        self,
        kind: str,
        *,
        job_id: int | None = None,
        node_id: str | None = None,
        attempt: int = 0,
        at_s: float | None = None,
        **detail,
    ) -> None:
        """Record one event (stamped from the clock unless ``at_s`` given)."""
        if kind not in _EVENT_KIND_SET:
            raise ValueError(f"unknown event kind {kind!r}; see EVENT_KINDS")
        stamp = self.clock() if at_s is None else at_s
        self._rows.append((stamp, kind, job_id, node_id, attempt, detail))

    def kinds(self) -> dict[str, int]:
        """Event count per kind (absent kinds omitted)."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def for_job(self, job_id: int) -> list[FleetEvent]:
        """Every event concerning ``job_id``, in emission order."""
        return [e for e in self.events if e.job_id == job_id]

    def to_jsonl(self) -> str:
        """The whole log as canonical JSONL (one event per line)."""
        return "".join(event.to_line() + "\n" for event in self.events)

    def write(self, path: str | Path) -> None:
        """Write the log as JSONL to ``path``."""
        Path(path).write_text(self.to_jsonl())

    @staticmethod
    def loads(text: str) -> list[FleetEvent]:
        """Parse JSONL text back into events (blank lines skipped)."""
        return [
            FleetEvent.from_line(line)
            for line in text.splitlines()
            if line.strip()
        ]

    @staticmethod
    def load(path: str | Path) -> list[FleetEvent]:
        """Read a JSONL log from ``path``."""
        return EventLog.loads(Path(path).read_text())

    @staticmethod
    def replay_identical(
        first: Iterable[FleetEvent], second: Iterable[FleetEvent]
    ) -> bool:
        """True when two logs are event-for-event identical."""
        return [e.to_line() for e in first] == [e.to_line() for e in second]
