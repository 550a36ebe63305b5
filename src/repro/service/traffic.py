"""Arrival-pattern-driven traffic generation for the proving service.

A :class:`TrafficGenerator` turns a named
:class:`~repro.workloads.catalog.TrafficScenario` into a deterministic
stream of :class:`~repro.service.jobs.ProofJob`\\ s: circuit sizes and
gate families are drawn from the scenario's distributions, arrival
offsets from its pattern (uniform / poisson / burst), and request
classes from its real-time fraction.

Circuit *structure* is a pure function of (gate family, log2 size) —
only witness values vary between requests — so repeated draws of the
same shape hit the service's index cache, exactly like production
traffic re-proving one circuit over many inputs.
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from itertools import accumulate
from typing import Sequence

from repro.fields import Fr
from repro.fields.prime_field import PrimeField
from repro.hyperplonk.circuit import (
    Circuit,
    CircuitBuilder,
    GATE_TYPES,
    GateType,
)
from repro.service.jobs import ProofJob, RequestClass
from repro.workloads import TrafficScenario, scenario_by_name

ARRIVAL_PATTERNS = ("uniform", "poisson", "burst")

#: jobs per cluster in the ``burst`` arrival pattern
BURST_SIZE = 4


def synthesize_circuit(gate_type: GateType, log2_gates: int, *,
                       witness_seed: int = 0,
                       field: PrimeField = Fr) -> Circuit:
    """Build a satisfiable 2^``log2_gates``-gate circuit.

    The gate/wiring pattern depends only on ``(gate_type, log2_gates)``;
    ``witness_seed`` varies just the input values.  All helper gates hold
    by construction (the builder computes outputs), so the circuit always
    proves.
    """
    if log2_gates < 1:
        raise ValueError("log2_gates must be >= 1")
    rng = random.Random(witness_seed)
    b = CircuitBuilder(gate_type, field)
    p = field.modulus
    x = b.new_wire(rng.randrange(1, p))
    y = b.new_wire(rng.randrange(1, p))
    acc = b.add(x, y)
    target = 1 << log2_gates
    i = 0
    # fixed per-index pattern => fixed structure; one row per iteration
    while len(b.rows) < target:
        if gate_type.name == "jellyfish" and i % 3 == 2:
            acc = b.pow5(acc)
        elif i % 2:
            acc = b.mul(acc, x)
        else:
            acc = b.add(acc, y)
        i += 1
    return b.build(min_gates=target)


class WeightedTable:
    """``rng.choices(population, weights=w)[0]``, weights accumulated once.

    :meth:`draw` is the draw :func:`random.choices` makes for ``k=1`` —
    a ``bisect`` of ``rng.random() * total`` into the cumulative
    weights — so it consumes the same one uniform and returns the same
    element from the same generator state (``tests/test_traffic.py``
    holds the equality for every committed weight list).  Both job
    sources draw through it: :class:`TrafficGenerator` here and
    :class:`~repro.traffic.openloop.OpenLoopTraffic` above.
    """

    def __init__(self, population: Sequence, weights: Sequence[float]):
        self.population = list(population)
        self.cum_weights = list(accumulate(weights))
        if len(self.cum_weights) != len(self.population):
            raise ValueError("the number of weights does not match the population")
        self.total = self.cum_weights[-1] + 0.0
        if not 0.0 < self.total < math.inf:
            raise ValueError(f"total weight must be finite and > 0; got {self.total}")
        self._hi = len(self.population) - 1

    def draw(self, rng: random.Random):
        """One weighted draw from ``rng`` (advances it by one uniform)."""
        return self.population[
            bisect(self.cum_weights, rng.random() * self.total, 0, self._hi)
        ]


class TrafficGenerator:
    """Deterministic (seeded) job-stream generator for one scenario."""

    def __init__(self, scenario: TrafficScenario | str, *, seed: int = 0,
                 field: PrimeField = Fr):
        if isinstance(scenario, str):
            scenario = scenario_by_name(scenario)
        if scenario.arrival not in ARRIVAL_PATTERNS:
            raise ValueError(
                f"unknown arrival pattern {scenario.arrival!r}; "
                f"choose from {ARRIVAL_PATTERNS}"
            )
        for gate_name, _ in scenario.gate_mix:
            if gate_name not in GATE_TYPES:
                raise ValueError(f"unknown gate family {gate_name!r}")
        self.scenario = scenario
        self.seed = seed
        self.field = field
        self._rng = random.Random(seed)
        self._gates = WeightedTable(*zip(*scenario.gate_mix))
        self._sizes = WeightedTable(*zip(*scenario.size_weights))
        self._next_arrival = 0.0
        self._burst_slot = 0

    # -- internals ---------------------------------------------------------
    def _draw_arrival(self) -> float:
        s = self.scenario
        t = self._next_arrival
        if s.arrival == "uniform":
            self._next_arrival = t + 1.0 / s.rate_rps
        elif s.arrival == "poisson":
            self._next_arrival = t + self._rng.expovariate(s.rate_rps)
        else:  # burst: clusters of BURST_SIZE, then a long gap
            self._burst_slot += 1
            if self._burst_slot % BURST_SIZE == 0:
                self._next_arrival = t + BURST_SIZE / s.rate_rps
        return t

    # -- API ---------------------------------------------------------------
    def jobs(self, n: int, *, start_id: int = 0) -> list[ProofJob]:
        """The next ``n`` requests (arrival offsets continue across calls)."""
        s = self.scenario
        out = []
        for i in range(n):
            arrival = self._draw_arrival()
            gate_name = self._gates.draw(self._rng)
            log2 = self._sizes.draw(self._rng)
            realtime = self._rng.random() < s.realtime_fraction
            circuit = synthesize_circuit(
                GATE_TYPES[gate_name], log2,
                witness_seed=self._rng.randrange(1 << 30),
                field=self.field,
            )
            deadline = None
            if realtime and s.realtime_deadline_s is not None:
                deadline = arrival + s.realtime_deadline_s
            out.append(ProofJob(
                job_id=start_id + i,
                circuit=circuit,
                request_class=(RequestClass.REALTIME if realtime
                               else RequestClass.DEFERRABLE),
                arrival_s=arrival,
                deadline_s=deadline,
                tag=f"{s.name}/{gate_name}-mu{log2}",
            ))
        return out

    def max_vars(self) -> int:
        """The largest μ this scenario can draw (for sizing the SRS)."""
        return self.scenario.max_log2_gates
