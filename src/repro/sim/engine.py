"""A minimal discrete-event simulation core: heap, clock, handles.

The cluster layer needs to interleave job completions, node crashes,
recoveries, and autoscaler ticks on one model-time axis.  This module is
the smallest engine that does that deterministically:

* :class:`Simulator` — a binary-heap event queue plus a model clock.
  Events fire in ``(time, priority, sequence)`` order, so ties at one
  model time break first by an explicit priority and then by scheduling
  order — never by dict iteration or object identity, which is what
  keeps whole-fleet runs reproducible across interpreters.
* :class:`EventHandle` — returned by every ``schedule*`` call; lazily
  cancellable, which is how an in-flight job-finish event is voided when
  its node crashes first.  A handle drops its callback once it fires or
  is cancelled, so a handle its owner keeps (a churn stream, an armed
  start) never keeps what the callback closes over alive.

Million-event runs forced three fast-path changes (DESIGN.md §11), none
of which alter the fire order:

* ``__len__`` is an O(1) live-event counter maintained on
  schedule/cancel/pop instead of a full heap scan;
* cancelled entries are *compacted* out of the heap in place once they
  are both numerous (≥ :data:`COMPACT_MIN`) and the majority of the
  heap, instead of lingering until popped;
* :meth:`Simulator.schedule_fast` pushes the bare callback for events
  that are never cancelled (arrivals, metric ticks), skipping
  :class:`EventHandle` construction entirely.

The engine knows nothing about clusters or jobs; callbacks close over
whatever state they drive.  Seeded *sources* of event streams live in
:mod:`repro.sim.sources`.
"""

from __future__ import annotations

import heapq
from typing import Callable

#: default event priority; lower fires first among same-time events
DEFAULT_PRIORITY = 0

#: compaction threshold: never compact below this many cancelled
#: entries (tiny heaps gain nothing), and only when cancelled entries
#: are at least half the heap (amortizes the O(n) rebuild)
COMPACT_MIN = 64


class EventHandle:
    """A scheduled event that can be cancelled before it fires."""

    __slots__ = ("time", "priority", "seq", "action", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        action: Callable[[], None],
    ):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action = action
        self.cancelled = False
        # owning Simulator while queued; None once fired (or detached),
        # so a late cancel() cannot corrupt the live/stale counters
        self._sim: Simulator | None = None

    def cancel(self) -> None:
        """Void the event; it stays in the heap but will not fire.

        Idempotent, and a no-op after the event has fired.  The callback
        is dropped, so a kept handle keeps nothing it would have called
        alive.
        """
        if self.cancelled:
            return
        self.cancelled = True
        self.action = None
        sim = self._sim
        if sim is not None:
            self._sim = None
            sim._note_cancel()

    def __repr__(self):
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.6f}, seq={self.seq}, {state})"


class Simulator:
    """A discrete-event loop over one model-time clock.

    Schedule callbacks with :meth:`schedule` (absolute time) or
    :meth:`schedule_after` (relative delay), then :meth:`run` until the
    heap drains or a horizon is reached.  Callbacks may schedule further
    events; scheduling into the past raises.

    Heap entries are ``(time, priority, seq, payload)`` where the
    payload is an :class:`EventHandle` (cancellable path) or the bare
    callback (:meth:`schedule_fast` path).  ``seq`` is unique, so tuple
    comparison never reaches the payload and the two can mix freely.
    """

    def __init__(self, start_s: float = 0.0):
        self.now = start_s
        self._heap: list[tuple[float, int, int, object]] = []
        self._seq = 0
        # live = queued and not cancelled; stale = cancelled entries
        # still physically in the heap (awaiting pop or compaction)
        self._live = 0
        self._stale = 0
        #: events fired so far (cancelled events excluded)
        self.fired = 0

    def __len__(self) -> int:
        return self._live

    def _note_cancel(self) -> None:
        """Bookkeeping for one newly cancelled queued event."""
        self._live -= 1
        self._stale += 1
        if self._stale >= COMPACT_MIN and self._stale * 2 >= len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, *in place*.

        ``run`` holds a local alias to the heap list, so compaction must
        mutate the existing list rather than rebind ``self._heap``.
        """
        self._heap[:] = [
            entry
            for entry in self._heap
            if not (entry[3].__class__ is EventHandle and entry[3].cancelled)
        ]
        heapq.heapify(self._heap)
        self._stale = 0

    def schedule(
        self,
        at_s: float,
        action: Callable[[], None],
        *,
        priority: int = DEFAULT_PRIORITY,
    ) -> EventHandle:
        """Schedule ``action`` at absolute model time ``at_s``."""
        if at_s < self.now:
            raise ValueError(
                f"cannot schedule into the past (now={self.now}, at={at_s})"
            )
        handle = EventHandle(at_s, priority, self._seq, action)
        handle._sim = self
        heapq.heappush(self._heap, (at_s, priority, self._seq, handle))
        self._seq += 1
        self._live += 1
        return handle

    def schedule_after(
        self,
        delay_s: float,
        action: Callable[[], None],
        *,
        priority: int = DEFAULT_PRIORITY,
    ) -> EventHandle:
        """Schedule ``action`` ``delay_s`` model seconds from now."""
        if delay_s < 0:
            raise ValueError(f"delay must be >= 0, got {delay_s}")
        return self.schedule(self.now + delay_s, action, priority=priority)

    def schedule_fast(
        self,
        at_s: float,
        action: Callable[[], None],
        *,
        priority: int = DEFAULT_PRIORITY,
    ) -> None:
        """Schedule a *never-cancelled* event without an EventHandle.

        Same ``(time, priority, seq)`` fire order as :meth:`schedule`,
        but pushes the bare callback — no handle allocation, nothing to
        cancel.  Use for high-volume events that always fire (job
        arrivals, metric ticks); returns None by design.
        """
        if at_s < self.now:
            raise ValueError(
                f"cannot schedule into the past (now={self.now}, at={at_s})"
            )
        heapq.heappush(self._heap, (at_s, priority, self._seq, action))
        self._seq += 1
        self._live += 1

    def peek_time(self) -> float | None:
        """Model time of the next live event (None if the heap is empty)."""
        heap = self._heap
        while heap:
            head = heap[0]
            item = head[3]
            if item.__class__ is EventHandle and item.cancelled:
                heapq.heappop(heap)
                self._stale -= 1
                continue
            return head[0]
        return None

    def step(self) -> bool:
        """Fire the next live event; False when nothing is left."""
        heap = self._heap
        while heap:
            time_s, _, _, item = heapq.heappop(heap)
            if item.__class__ is EventHandle:
                if item.cancelled:
                    self._stale -= 1
                    continue
                item._sim = None
                action, item.action = item.action, None
            else:
                action = item
            self.now = time_s
            self._live -= 1
            self.fired += 1
            action()
            return True
        return False

    def run(self, until_s: float | None = None) -> float:
        """Fire events until the heap drains (or past ``until_s``).

        Returns the final model time.  With ``until_s``, events at
        exactly ``until_s`` still fire; later ones stay queued.
        """
        # hot loop: inlines peek_time + step, one heap op per event;
        # compaction mutates the aliased list in place, so `heap`
        # stays valid across callbacks
        heap = self._heap
        pop = heapq.heappop
        while heap:
            head = heap[0]
            item = head[3]
            is_handle = item.__class__ is EventHandle
            if is_handle and item.cancelled:
                pop(heap)
                self._stale -= 1
                continue
            if until_s is not None and head[0] > until_s:
                self.now = until_s
                return until_s
            pop(heap)
            self.now = head[0]
            self._live -= 1
            self.fired += 1
            if is_handle:
                item._sim = None
                action, item.action = item.action, None
                action()
            else:
                item()
        return self.now

    def __repr__(self):
        return f"Simulator(now={self.now:.6f}, queued={len(self)})"
