"""The one seeded job stream, from a 10-job batch to 10⁶-job open loops.

Every job in the repo comes from :class:`OpenLoopTraffic`: a closed
batch is the stream bounded by ``max_jobs`` (:func:`repro.fleet.scenario.run`
keeps or zeroes its arrivals), an open loop the same stream paced by its
arrivals.

* :class:`CircuitShapeCache` — circuit *structure* is a pure function
  of ``(gate family, log2 size)``, so one shared
  :class:`~repro.hyperplonk.circuit.Circuit` per shape (fingerprint
  precomputed once) serves every job of that shape: the cluster's
  index cache keys on the fingerprint, and a real prover proves the
  shared circuit (a caller that wants distinct witnesses calls
  :func:`~repro.service.traffic.synthesize_circuit` itself).
* :class:`OpenLoopTraffic` — a lazy, seeded generator of
  :class:`~repro.service.jobs.ProofJob` streams whose arrival process
  is a time-varying Poisson process: a diurnal sinusoid times a
  deterministic burst square-wave, sampled by thinning against the
  peak rate, so the seed alone fixes every arrival instant.  A job's
  request class and deadline come from its tenant's SLO tier.  Jobs
  are yielded one at a time, so a 10⁶-job run never holds the whole
  stream in memory.

A recorded arrival trace (``arrival_trace=[...]``) replaces the Poisson
process for replay-style runs; tenancy, shapes, and classes still come
from the seeded stream.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, Sequence

from repro.hyperplonk.circuit import Circuit
from repro.hyperplonk.preprocess import circuit_fingerprint
from repro.service.jobs import ProofJob
from repro.service.traffic import GATE_TYPES, WeightedTable, synthesize_circuit
from repro.traffic.tenants import TenantSpec, default_tenants
from repro.workloads import TrafficScenario, scenario_by_name

#: default diurnal period, model seconds — one "day" of the sinusoid
DEFAULT_DIURNAL_PERIOD_S = 240.0

#: default burst square-wave: bursts this long ...
DEFAULT_BURST_DURATION_S = 5.0

#: ... covering this fraction of model time
DEFAULT_BURST_FRACTION = 0.1


class CircuitShapeCache:
    """One shared circuit (and fingerprint) per (gate, μ) shape."""

    def __init__(self):
        self._circuits: dict[tuple[str, int], Circuit] = {}
        self._keys: dict[tuple[str, int], str] = {}

    def get(self, gate_name: str, log2_gates: int) -> tuple[Circuit, str]:
        """The cached ``(circuit, fingerprint)`` for one shape."""
        shape = (gate_name, log2_gates)
        if shape not in self._circuits:
            circuit = synthesize_circuit(
                GATE_TYPES[gate_name], log2_gates, witness_seed=0
            )
            self._circuits[shape] = circuit
            self._keys[shape] = circuit_fingerprint(circuit)
        return self._circuits[shape], self._keys[shape]

    def __len__(self) -> int:
        return len(self._circuits)


class OpenLoopTraffic:
    """A seeded open-loop job stream with diurnal + bursty arrivals.

    The instantaneous arrival rate is::

        rate(t) = rate_rps
                  * (1 + diurnal_amplitude * sin(2πt / diurnal_period_s))
                  * (burst_mult  if t is inside a burst window  else 1)

    Burst windows are deterministic: the first ``burst_duration_s`` of
    every ``burst_duration_s / burst_fraction`` period.  Arrivals are
    sampled by Poisson thinning against the constant peak rate, so one
    ``random.Random(seed)`` fixes the whole stream — arrival instants,
    tenant draws, shapes, and classes alike.

    The stream ends after ``max_jobs`` jobs or past ``horizon_s`` model
    seconds, whichever comes first (at least one must be set).  The
    constructor rejects, naming the field, any rate, period, duration or
    horizon that is not finite and positive.
    """

    def __init__(
        self,
        scenario: TrafficScenario | str,
        *,
        seed: int = 0,
        tenants: Sequence[TenantSpec] | None = None,
        rate_rps: float | None = None,
        diurnal_amplitude: float = 0.5,
        diurnal_period_s: float = DEFAULT_DIURNAL_PERIOD_S,
        burst_mult: float = 3.0,
        burst_fraction: float = DEFAULT_BURST_FRACTION,
        burst_duration_s: float = DEFAULT_BURST_DURATION_S,
        max_jobs: int | None = None,
        horizon_s: float | None = None,
        arrival_trace: Sequence[float] | None = None,
    ):
        if isinstance(scenario, str):
            scenario = scenario_by_name(scenario)
        if rate_rps is None:
            rate_rps = scenario.rate_rps
        # a NaN fails every comparison, so each check is written to pass
        # only a finite value in range: a NaN or infinite rate, period or
        # duration would spin the thinning loop forever
        for name, value in (
            ("rate_rps", rate_rps),
            ("diurnal_period_s", diurnal_period_s),
            ("burst_duration_s", burst_duration_s),
            ("horizon_s", horizon_s),
        ):
            if value is not None and not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0; got {value}")
        if not 0.0 <= diurnal_amplitude < 1.0:
            raise ValueError(
                f"diurnal_amplitude must be in [0, 1); got {diurnal_amplitude}"
            )
        if not 1.0 <= burst_mult < math.inf:
            raise ValueError(f"burst_mult must be finite and >= 1; got {burst_mult}")
        if not 0.0 < burst_fraction <= 1.0:
            raise ValueError(
                f"burst_fraction must be in (0, 1]; got {burst_fraction}"
            )
        if max_jobs is None and horizon_s is None and arrival_trace is None:
            raise ValueError("set max_jobs and/or horizon_s (or a trace)")
        self.scenario = scenario
        self.seed = seed
        self.tenants = list(tenants) if tenants is not None else default_tenants(3)
        self.rate_rps = rate_rps
        self.diurnal_amplitude = diurnal_amplitude
        self.diurnal_period_s = diurnal_period_s
        self.burst_mult = burst_mult
        self.burst_fraction = burst_fraction
        self.burst_duration_s = burst_duration_s
        self.max_jobs = max_jobs
        self.horizon_s = horizon_s
        self.arrival_trace = (
            sorted(arrival_trace) if arrival_trace is not None else None
        )
        self.shapes = CircuitShapeCache()

    # -- arrival process -----------------------------------------------------
    def in_burst(self, at_s: float) -> bool:
        """Whether model time ``at_s`` falls inside a burst window."""
        period = self.burst_duration_s / self.burst_fraction
        return (at_s % period) < self.burst_duration_s

    def rate_at(self, at_s: float) -> float:
        """The instantaneous arrival rate at model time ``at_s``."""
        diurnal = 1.0 + self.diurnal_amplitude * math.sin(
            2.0 * math.pi * at_s / self.diurnal_period_s
        )
        burst = self.burst_mult if self.in_burst(at_s) else 1.0
        return self.rate_rps * diurnal * burst

    @property
    def peak_rate_rps(self) -> float:
        """The thinning envelope: the largest rate ``rate_at`` can reach."""
        return self.rate_rps * (1.0 + self.diurnal_amplitude) * self.burst_mult

    def _arrivals(self, rng: random.Random) -> Iterator[float]:
        if self.arrival_trace is not None:
            yield from self.arrival_trace
            return
        # the thinning loop evaluates rate_at()'s expression inline, in
        # rate_at()'s operation order (same floats): two method calls
        # per candidate, ~2.7 candidates per accepted arrival
        peak = self.peak_rate_rps
        rate, amplitude = self.rate_rps, self.diurnal_amplitude
        period, burst_mult = self.diurnal_period_s, self.burst_mult
        burst_len = self.burst_duration_s
        burst_period = burst_len / self.burst_fraction
        expovariate, uniform, sin, pi = rng.expovariate, rng.random, math.sin, math.pi
        t = 0.0
        while True:
            t += expovariate(peak)
            diurnal = 1.0 + amplitude * sin(2.0 * pi * t / period)
            burst = burst_mult if (t % burst_period) < burst_len else 1.0
            if uniform() * peak < rate * diurnal * burst:
                yield t

    # -- job stream ----------------------------------------------------------
    def jobs(self) -> Iterator[ProofJob]:
        """The seeded job stream, lazily (one job per ``next()``).

        Every call restarts the stream from the seed — two iterations
        of one generator object yield identical jobs, which is what
        makes admission-vs-no-admission comparisons equal-seed.
        """
        rng = random.Random(self.seed)
        scenario = self.scenario
        # the three weight lists are constants of the stream: accumulate
        # each once, not once per job
        tenants = WeightedTable(self.tenants, [t.weight for t in self.tenants])
        gates = WeightedTable(*zip(*scenario.gate_mix))
        sizes = WeightedTable(*zip(*scenario.size_weights))
        max_jobs, horizon_s = self.max_jobs, self.horizon_s
        shape_of = self.shapes.get
        prefix = scenario.name
        produced = 0
        for arrival in self._arrivals(rng):
            if max_jobs is not None and produced >= max_jobs:
                return
            if horizon_s is not None and arrival > horizon_s:
                return
            tenant = tenants.draw(rng)
            gate_name = gates.draw(rng)
            log2 = sizes.draw(rng)
            circuit, key = shape_of(gate_name, log2)
            tier = tenant.tier
            deadline = (
                arrival + tier.deadline_slack_s
                if tier.deadline_slack_s is not None
                else None
            )
            produced += 1
            yield ProofJob(
                job_id=0,
                circuit=circuit,
                request_class=tier.request_class,
                arrival_s=arrival,
                deadline_s=deadline,
                tag=f"{prefix}/{gate_name}-mu{log2}",
                circuit_key=key,
                tenant=tenant.name,
            )

    def max_vars(self) -> int:
        """The largest μ this scenario can draw (for sizing the SRS)."""
        return self.scenario.max_log2_gates

    def __repr__(self):
        return (
            f"OpenLoopTraffic({self.scenario.name!r}, seed={self.seed}, "
            f"rate={self.rate_rps}rps, tenants={len(self.tenants)})"
        )
