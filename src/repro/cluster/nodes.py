"""One prover node: a bounded index cache and a model clock.

A :class:`ProverNode` is the sharding unit of the simulated fleet: an
LRU fingerprint cache (:class:`SimIndexCache`) plus a model-time clock
advanced by the cluster's :class:`~repro.cluster.timemodel.FleetTimeModel`.
It proves nothing; the real fleet (:mod:`repro.fleet`) proves the same
scenario on worker processes, each with the same bounded index cache.

Nodes expose event-granular primitives — :meth:`begin` /
:meth:`complete` / :meth:`abort` / :meth:`crash` / :meth:`recover` —
driven by the cluster's discrete-event engine
(:mod:`repro.cluster.engine` on :mod:`repro.sim`); they never advance
time themselves.  A crash loses the in-flight job and cold-starts the
node's index cache; queued jobs survive (queue state is
coordinator-side) and are requeued by the engine.

:class:`NodeConfig` is shared with the real fleet: every worker builds
its SRS from the same seed, so a proof is bit-identical whichever node
produced it — routing changes *when and where* work happens, never the
bytes; ``tests/test_fleet.py`` checks the fleet's proofs against one
sync service's.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.cluster.records import JobQueue, JobRecord
from repro.service.cache import CacheStats
from repro.service.jobs import ProofJob

__all__ = [
    "DEFAULT_NODE_CACHE_CAPACITY",
    "InFlightJob",
    "JobRecord",
    "NodeConfig",
    "ProverNode",
    "SimIndexCache",
    "SuspendedFlight",
]

#: default LRU entries in a node's (bounded) local index cache
DEFAULT_NODE_CACHE_CAPACITY = 4


class SimIndexCache:
    """LRU of circuit fingerprints with the service's cache statistics.

    Models which indexes a node currently holds without preprocessing
    anything; a real fleet worker's :class:`IndexCache` runs the same
    capacity, so measured hit rates track simulated ones.
    """

    def __init__(self, capacity: int | None = DEFAULT_NODE_CACHE_CAPACITY):
        if capacity is not None and capacity < 1:
            raise ValueError("cache capacity must be >= 1 (or None)")
        self.capacity = capacity
        self.stats = CacheStats()
        self._keys: OrderedDict[str, None] = OrderedDict()

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: str) -> bool:
        return key in self._keys

    def lookup(self, key: str) -> bool:
        """Touch ``key``; True on hit, False on miss (key now cached)."""
        if key in self._keys:
            self._keys.move_to_end(key)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        self._keys[key] = None
        if self.capacity is not None:
            while len(self._keys) > self.capacity:
                self._keys.popitem(last=False)
                self.stats.evictions += 1
        return False

    def clear(self) -> None:
        """Drop every cached key (stats survive) — a node cold start."""
        self._keys.clear()


@dataclass
class NodeConfig:
    """Per-node knobs shared by every node of one cluster."""

    #: LRU entries in the node-local index cache (None = unbounded)
    cache_capacity: int | None = DEFAULT_NODE_CACHE_CAPACITY
    #: largest circuit μ the node accepts
    max_vars: int = 6
    #: one seed for every node: identical SRS, bit-identical proofs
    srs_seed: int = 0x5EED


@dataclass
class InFlightJob:
    """The one job a node is currently proving (model time).

    ``start_s``/``finish_s`` describe the *current* busy segment: a
    suspended-and-resumed job gets fresh values on resume, with the work
    already banked in ``done_before_s``.  ``first_start_s`` keeps the
    original start for latency records.
    """

    job: ProofJob
    start_s: float
    finish_s: float
    install_s: float
    prove_s: float
    cache_hit: bool
    #: model time the job first started (segment restarts don't move it)
    first_start_s: float = 0.0
    #: busy seconds completed in earlier segments (before suspensions)
    done_before_s: float = 0.0
    #: how many times this job was parked at a phase boundary
    suspensions: int = 0
    #: model seconds spent parked between suspend and resume
    suspended_wait_s: float = 0.0


@dataclass
class SuspendedFlight:
    """A parked deferrable job: its flight state plus when it parked."""

    flight: InFlightJob
    suspended_at_s: float


class ProverNode:
    """One shard of the fleet; see the module docstring."""

    def __init__(self, node_id: str, config: NodeConfig):
        self.node_id = node_id
        self.config = config
        self.sim_cache = SimIndexCache(config.cache_capacity)
        self.clock_s = 0.0
        #: model seconds spent proving + installing (idle excluded)
        self.busy_s = 0.0
        #: model seconds of in-flight work lost to crashes
        self.lost_s = 0.0
        self.jobs_done = 0
        self.crashes = 0
        self.down = False
        self.shapes_seen: set[str] = set()
        self.in_flight: InFlightJob | None = None
        #: queued jobs not yet started (in-flight work excluded)
        self.queue = JobQueue()
        #: jobs parked at a phase boundary, awaiting resume (by job id)
        self._suspended: dict[int, SuspendedFlight] = {}

    @property
    def idle(self) -> bool:
        """True when the node is up with nothing queued, parked, or in
        flight."""
        return (
            not self.down
            and self.in_flight is None
            and not self.queue
            and not self._suspended
        )

    @property
    def suspended_ids(self) -> list[int]:
        """Job ids currently parked on this node, ascending."""
        return sorted(self._suspended)

    def submit(self, job: ProofJob) -> None:
        """Queue ``job`` on this node (the router already chose it)."""
        self.queue.push(job)
        self.shapes_seen.add(job.circuit_key)

    # -- event-engine primitives --------------------------------------------
    def begin(
        self, job: ProofJob, now_s: float, price: tuple[float, float]
    ) -> InFlightJob:
        """Start proving ``job``: cache lookup, install-or-hit, timing.

        ``start = max(node clock, arrival, now_s)``, so a start never
        lands before the model time it fires at; a sim-cache miss
        charges the install of ``price`` — the job's
        ``(install_s, prove_s)`` from
        :meth:`~repro.cluster.timemodel.FleetTimeModel.price` — before
        its prove.  The caller schedules the finish event at
        ``in_flight.finish_s``.
        """
        if self.down:
            raise RuntimeError(f"node {self.node_id} is down")
        if self.in_flight is not None:
            raise RuntimeError(f"node {self.node_id} is already proving")
        self.queue.remove(job)
        start = max(self.clock_s, job.arrival_s, now_s)
        install, prove = price
        hit = self.sim_cache.lookup(job.circuit_key)
        if hit:
            install = 0.0
        self.in_flight = InFlightJob(
            job=job,
            start_s=start,
            finish_s=start + install + prove,
            install_s=install,
            prove_s=prove,
            cache_hit=hit,
            first_start_s=start,
        )
        return self.in_flight

    def complete(self) -> JobRecord:
        """Commit the in-flight job at its finish time; returns the record."""
        flight = self.in_flight
        if flight is None:
            raise RuntimeError(f"node {self.node_id} has nothing in flight")
        self.in_flight = None
        self.clock_s = flight.finish_s
        # earlier segments of a suspended job were banked at suspend time
        self.busy_s += (
            flight.install_s + flight.prove_s - flight.done_before_s
        )
        self.jobs_done += 1
        return JobRecord.of(
            flight.job,
            self.node_id,
            start_s=flight.first_start_s,
            finish_s=flight.finish_s,
            prove_model_s=flight.prove_s,
            install_model_s=flight.install_s,
            cache_hit=flight.cache_hit,
            suspensions=flight.suspensions,
            suspended_s=flight.suspended_wait_s,
        )

    def abort(self, now_s: float) -> tuple[ProofJob, float]:
        """Lose the in-flight job at ``now_s``; returns (job, lost seconds)."""
        flight = self.in_flight
        if flight is None:
            raise RuntimeError(f"node {self.node_id} has nothing in flight")
        self.in_flight = None
        lost = max(0.0, now_s - flight.start_s)
        self.lost_s += lost
        return flight.job, lost

    def suspend(self, now_s: float) -> InFlightJob:
        """Park the in-flight job at ``now_s`` (a phase boundary).

        The completed segment's busy seconds are banked immediately
        (``busy_s`` and ``done_before_s``) so a later crash loses only
        queued state, never finished phases; the flight waits in the
        suspended set until :meth:`resume`.
        """
        flight = self.in_flight
        if flight is None:
            raise RuntimeError(f"node {self.node_id} has nothing in flight")
        self.in_flight = None
        done = max(0.0, now_s - flight.start_s)
        flight.done_before_s += done
        flight.suspensions += 1
        self.busy_s += done
        self.clock_s = max(self.clock_s, now_s)
        self._suspended[flight.job.job_id] = SuspendedFlight(
            flight=flight, suspended_at_s=now_s
        )
        return flight

    def resume(self, job_id: int, now_s: float) -> InFlightJob:
        """Unpark ``job_id`` at ``now_s``; returns the live flight.

        The flight restarts as a fresh segment — ``start_s``/``finish_s``
        describe only the remaining work — with the banked progress in
        ``done_before_s``; the caller schedules the new finish event.
        """
        if self.down:
            raise RuntimeError(f"node {self.node_id} is down")
        if self.in_flight is not None:
            raise RuntimeError(f"node {self.node_id} is already proving")
        parked = self._suspended.pop(job_id)
        flight = parked.flight
        start = max(self.clock_s, now_s)
        flight.suspended_wait_s += max(0.0, start - parked.suspended_at_s)
        remaining = flight.install_s + flight.prove_s - flight.done_before_s
        flight.start_s = start
        flight.finish_s = start + remaining
        self.in_flight = flight
        return flight

    def discard_suspended(self) -> list[InFlightJob]:
        """Drop every parked job (end of run); returns their flights.

        Banked busy seconds move to ``lost_s`` — the phases completed
        before the park were ultimately wasted work.
        """
        flights = [
            self._suspended[job_id].flight for job_id in sorted(self._suspended)
        ]
        self._suspended.clear()
        for flight in flights:
            self.busy_s -= flight.done_before_s
            self.lost_s += flight.done_before_s
        return flights

    def crash(self, now_s: float) -> list[ProofJob]:
        """Take the node down at ``now_s``; returns its queued jobs.

        The in-flight job (if any) must be aborted by the caller
        *before* the crash so retry bookkeeping happens at one place;
        the local index cache cold-starts (keys dropped, stats kept).
        """
        if self.down:
            raise RuntimeError(f"node {self.node_id} is already down")
        if self.in_flight is not None:
            raise RuntimeError("abort the in-flight job before crashing")
        self.down = True
        self.crashes += 1
        self.clock_s = max(self.clock_s, now_s)
        self.sim_cache.clear()
        requeued, self.queue = self.queue.jobs(), JobQueue()
        # parked jobs survive as *jobs* but their banked phases die with
        # the node's state: busy seconds become lost seconds and the job
        # requeues from scratch alongside the queued ones
        for job_id in sorted(self._suspended):
            flight = self._suspended[job_id].flight
            self.busy_s -= flight.done_before_s
            self.lost_s += flight.done_before_s
            requeued.append(flight.job)
        self._suspended.clear()
        return requeued

    def recover(self, now_s: float) -> None:
        """Bring the node back up at ``now_s`` with a cold cache."""
        if not self.down:
            raise RuntimeError(f"node {self.node_id} is not down")
        self.down = False
        self.clock_s = max(self.clock_s, now_s)

    def __repr__(self):
        state = "down" if self.down else "up"
        return (
            f"ProverNode({self.node_id!r}, {state}, jobs={self.jobs_done}, "
            f"busy={self.busy_s:.4f}s)"
        )
