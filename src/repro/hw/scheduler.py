"""The automated SumCheck scheduler (paper §III-C/E, Figure 2).

Given a composite polynomial and a hardware shape (E extension engines, P
product lanes per PE), the scheduler decomposes each term into *nodes*.
A node consumes at most E factor streams per product-lane input port —
the first node of a term takes up to E factors, every subsequent node
takes E-1 new factors plus the running partial product from the Tmp MLE
buffer (the accumulation schedule on the right of Figure 2, which needs
only one Tmp buffer regardless of degree).

Factor slots count *multiplicity* (w^5 occupies five lane ports) while
fetch/update work counts *distinct* MLEs (a repeated MLE is extended once
and its value reused — the data-reuse §III-A highlights).

The lane schedule maps the K = d+1 extension points onto P lanes with
initiation interval ceil(K / P), queueing the overflow in delay buffers
(§III-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import ceil

# The profile vocabulary moved to the plan layer (repro.plan.profiles) so
# that describing a proof's work never pulls in a hardware model; these
# re-exports keep the historical import path working.
from repro.plan.profiles import FR_NAME, PolyProfile, TermProfile

__all__ = [
    "FR_NAME",
    "PolyProfile",
    "TermProfile",
    "ScheduleNode",
    "PolynomialSchedule",
    "nodes_for_degree",
    "schedule_polynomial",
]


@dataclass(frozen=True)
class ScheduleNode:
    """One computation step: which factor slots this node covers."""

    term_index: int
    node_index: int
    factor_slots: int          # lane ports used by new factors (<= E)
    new_names: tuple[str, ...]  # distinct MLEs first needed at this node
    uses_tmp: bool             # consumes the running partial product
    writes_tmp: bool           # leaves a partial product for the next node


@dataclass(frozen=True)
class PolynomialSchedule:
    """The full schedule of a polynomial's terms on an (E, P) SumCheck
    PE.  It is a function of exactly (the terms' factors, E, P) — a
    profile's name and storage classes play no part — and immutable, so
    equal requests share one object (see :func:`schedule_polynomial`)."""

    term_factors: tuple[tuple[tuple[str, int], ...], ...]
    ees: int
    pls: int
    nodes: tuple[ScheduleNode, ...]

    @property
    def num_steps(self) -> int:
        return len(self.nodes)

    @cached_property
    def extensions(self) -> int:
        """K: evaluation points 0..d needed per SumCheck round."""
        return max(sum(power for _, power in factors)
                   for factors in self.term_factors) + 1

    def initiation_interval(self, lanes_available: int | None = None) -> int:
        """Cycles between successive pairs on one node (§III-D)."""
        lanes = self.pls if lanes_available is None else lanes_available
        if lanes < 1:
            raise ValueError("at least one product lane required")
        return ceil(self.extensions / lanes)

    def cycles_per_pair(self, lanes_available: int | None = None) -> int:
        """Pipelined cycles each table pair occupies the PE: every node is
        a pass over the tile, so steps multiply."""
        return self.num_steps * self.initiation_interval(lanes_available)

    def tmp_buffers_required(self) -> int:
        """The accumulation schedule needs at most one Tmp MLE buffer."""
        return 1 if any(n.writes_tmp for n in self.nodes) else 0


def nodes_for_degree(degree: int, ees: int) -> int:
    """Figure-2 node count: first node takes E factor slots, each later
    node E-1 (one port feeds the Tmp partial product)."""
    if degree <= 0:
        return 1
    if degree <= ees:
        return 1
    return 1 + ceil((degree - ees) / (ees - 1))


def schedule_polynomial(poly: PolyProfile, ees: int, pls: int) -> PolynomialSchedule:
    """Decompose every term into nodes and assign prefetch sets.

    Distinct-MLE bookkeeping: an MLE already brought on-chip for an
    earlier term/node in the same round is not re-fetched (``new_names``
    excludes it), matching the banked scratchpad reuse of §III-B.

    A sweep asks for the same few dozen (terms, E, P) thousands of times
    (once per SumCheck run), so the most recent schedules are kept, keyed
    by the profile's plain ``term_factors`` tuple: hashing and comparing
    it costs no call per term.
    """
    return _schedule(poly.term_factors, ees, pls)


@lru_cache(maxsize=1024)
def _schedule(term_factors: tuple[tuple[tuple[str, int], ...], ...],
              ees: int, pls: int) -> PolynomialSchedule:
    if ees < 2:
        raise ValueError("the datapath needs at least 2 extension engines")
    nodes: list[ScheduleNode] = []
    on_chip: set[str] = set()
    for t_idx, factors in enumerate(term_factors):
        # expand factor slots with multiplicity, keeping name order
        slots: list[str] = []
        for name, power in factors:
            slots.extend([name] * power)
        node_idx = 0
        remaining = slots
        while remaining:
            first = node_idx == 0
            capacity = ees if first else ees - 1
            chunk, remaining = remaining[:capacity], remaining[capacity:]
            new_names = tuple(
                dict.fromkeys(n for n in chunk if n not in on_chip)
            )
            on_chip.update(chunk)
            # a multi-node term leaves its product in Tmp until consumed:
            # every node but the term's last is a writer
            nodes.append(ScheduleNode(
                term_index=t_idx,
                node_index=node_idx,
                factor_slots=len(chunk),
                new_names=new_names,
                uses_tmp=not first,
                writes_tmp=bool(remaining),
            ))
            node_idx += 1
    return PolynomialSchedule(term_factors=term_factors, ees=ees, pls=pls,
                              nodes=tuple(nodes))
