"""Circuits and weighted draws for the job stream.

:func:`synthesize_circuit` builds the satisfiable circuit of one shape,
and :class:`WeightedTable` is the weighted draw the job stream
(:class:`~repro.traffic.openloop.OpenLoopTraffic`) makes its tenant,
gate-family and size draws with.

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

#: ``GATE_TYPES`` is re-exported: callers look gate families up here
__all__ = ["GATE_TYPES", "WeightedTable", "synthesize_circuit"]


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
    holds the equality for every committed weight list).  The job
    stream, :class:`~repro.traffic.openloop.OpenLoopTraffic`, draws
    through it.
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
