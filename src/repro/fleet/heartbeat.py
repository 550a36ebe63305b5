"""Heartbeat-based failure detection for the real fleet.

Workers emit a beat every ``interval_s`` (see
:mod:`repro.fleet.worker`); the control plane records receipt times
here and declares a node dead once it has missed
``miss_threshold`` intervals in a row.  The monitor never acts on a
death itself — :class:`~repro.fleet.core.ProvingFleet` owns the
kill/retry/respawn consequences — it only answers "who is overdue?".

The clock is injectable so the unit tests drive detection with a fake
clock instead of sleeping.
"""

from __future__ import annotations

import time
from typing import Callable


class HeartbeatMonitor:
    """Last-beat bookkeeping with a miss-threshold death rule."""

    def __init__(
        self,
        interval_s: float = 0.05,
        miss_threshold: float = 5.0,
        *,
        clock: Callable[[], float] | None = None,
    ):
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        if miss_threshold <= 0:
            raise ValueError("miss_threshold must be > 0")
        self.interval_s = interval_s
        self.miss_threshold = miss_threshold
        self.clock = clock if clock is not None else time.monotonic
        self._last: dict[str, float] = {}

    @property
    def deadline_s(self) -> float:
        """Silence budget: seconds without a beat before a node is dead."""
        return self.interval_s * self.miss_threshold

    def expect(self, node_id: str) -> None:
        """Start watching ``node_id`` (its silence budget starts now)."""
        self._last[node_id] = self.clock()

    def beat(self, node_id: str) -> None:
        """Record a heartbeat from ``node_id`` (ignored if unwatched).

        Unwatched beats happen legitimately: a killed worker's last
        beat can still be in the pipe after the fleet forgot it.
        """
        if node_id in self._last:
            self._last[node_id] = self.clock()

    def forget(self, node_id: str) -> None:
        """Stop watching ``node_id`` (dead or deliberately stopped)."""
        self._last.pop(node_id, None)

    def overdue(self) -> list[str]:
        """Watched nodes whose silence exceeds the budget (sorted)."""
        deadline = self.deadline_s
        now = self.clock()
        return sorted(
            node_id
            for node_id, last in self._last.items()
            if now - last > deadline
        )
