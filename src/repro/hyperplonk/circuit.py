"""Plonk-style circuits with Vanilla and Jellyfish gates.

A circuit is a list of gate rows.  Each row has per-gate-type selector
values and ``num_witnesses`` wire slots; slots referencing the same
:class:`Wire` are copy-constrained (enforced by PermCheck).  The two gate
types match the paper exactly:

* **Vanilla** (Plonk, §II-C1): qL·w1 + qR·w2 − qO·w3 + qM·w1·w2 + qC = 0,
  3 witness slots, degree 3.
* **Jellyfish** (HyperPlonk, §II-C2): the degree-6 custom gate with
  linear, two multiplication, four quintic "hash" terms, an elliptic-curve
  term, output and constant terms, 5 witness slots.

The builder offers both raw ``add_gate`` and convenience helpers
(``add``, ``mul``, ``constant``, ``pow5``) used by the examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.fields.prime_field import PrimeField
from repro.gates.library import gate_by_id
from repro.mle.table import DenseMLE


@dataclass(frozen=True)
class GateType:
    """A gate family: its selectors, witness arity, and Table I polys."""

    name: str
    selector_names: tuple[str, ...]
    num_witnesses: int
    zerocheck_gate_id: int
    permcheck_gate_id: int

    @property
    def witness_names(self) -> tuple[str, ...]:
        return tuple(f"w{i + 1}" for i in range(self.num_witnesses))

    def constraint_value(self, field: PrimeField,
                         selectors: Mapping[str, int],
                         witnesses: Sequence[int]) -> int:
        """Evaluate the gate identity at concrete values (no fr)."""
        spec = gate_by_id(self.zerocheck_gate_id)
        evals = {name: selectors.get(name, 0) for name in self.selector_names}
        evals.update({f"w{i + 1}": w for i, w in enumerate(witnesses)})
        evals["fr"] = 1
        total = 0
        p = field.modulus
        for m in spec.compiled.monomials:
            prod = m.coeff % p
            for name, power in m.factors:
                prod = prod * pow(evals[name] % p, power, p) % p
            total = (total + prod) % p
        return total


VANILLA = GateType(
    name="vanilla",
    selector_names=("qL", "qR", "qM", "qO", "qC"),
    num_witnesses=3,
    zerocheck_gate_id=20,
    permcheck_gate_id=21,
)

JELLYFISH = GateType(
    name="jellyfish",
    selector_names=("q1", "q2", "q3", "q4", "qM1", "qM2",
                    "qH1", "qH2", "qH3", "qH4", "qO", "qecc", "qC"),
    num_witnesses=5,
    zerocheck_gate_id=22,
    permcheck_gate_id=23,
)

#: every gate family the prover runs, by name
GATE_TYPES: dict[str, GateType] = {g.name: g for g in (VANILLA, JELLYFISH)}


@dataclass(frozen=True)
class Wire:
    """A circuit variable; slots holding the same Wire are copy-constrained."""

    index: int

    def __repr__(self):
        return f"Wire({self.index})"


@dataclass
class GateRow:
    selectors: dict[str, int]
    wires: list[Wire]


class CircuitBuilder:
    """Incrementally build a circuit, then :meth:`build` it.

    The builder tracks wire values alongside structure, so the finished
    :class:`Circuit` carries a complete witness assignment (suitable for
    tests and examples; a production API would separate the two).
    """

    def __init__(self, gate_type: GateType, field: PrimeField):
        self.gate_type = gate_type
        self.field = field
        self.rows: list[GateRow] = []
        self._values: list[int] = []
        self.zero = self.new_wire(0)  # shared padding/ground wire

    # -- wires ---------------------------------------------------------------
    def new_wire(self, value: int) -> Wire:
        self._values.append(value % self.field.modulus)
        return Wire(len(self._values) - 1)

    def value_of(self, wire: Wire) -> int:
        return self._values[wire.index]

    # -- raw gate -----------------------------------------------------------
    def add_gate(self, selectors: Mapping[str, int], wires: Sequence[Wire]) -> None:
        unknown = set(selectors) - set(self.gate_type.selector_names)
        if unknown:
            raise ValueError(f"unknown selectors for {self.gate_type.name}: {unknown}")
        if len(wires) != self.gate_type.num_witnesses:
            raise ValueError(
                f"{self.gate_type.name} gates take "
                f"{self.gate_type.num_witnesses} wires, got {len(wires)}"
            )
        p = self.field.modulus
        self.rows.append(GateRow({k: v % p for k, v in selectors.items()}, list(wires)))

    # -- convenience gates ----------------------------------------------------
    def _out_names(self) -> tuple[str, str, str, str]:
        """(left, right, mul, out) selector names for the gate type."""
        if self.gate_type is VANILLA or self.gate_type.name == "vanilla":
            return "qL", "qR", "qM", "qO"
        return "q1", "q2", "qM1", "qO"

    def _fill(self, used: Sequence[Wire]) -> list[Wire]:
        """Pad a [inputs..., output] wire list with zero wires before the
        output slot, up to the gate type's witness arity."""
        wires = list(used)
        while len(wires) < self.gate_type.num_witnesses:
            wires.insert(-1, self.zero)
        return wires

    def add(self, a: Wire, b: Wire) -> Wire:
        """c := a + b."""
        p = self.field.modulus
        c = self.new_wire((self.value_of(a) + self.value_of(b)) % p)
        ql, qr, _, qo = self._out_names()
        self.add_gate({ql: 1, qr: 1, qo: 1}, self._fill([a, b, c]))
        return c

    def mul(self, a: Wire, b: Wire) -> Wire:
        """c := a * b."""
        p = self.field.modulus
        c = self.new_wire(self.value_of(a) * self.value_of(b) % p)
        _, _, qm, qo = self._out_names()
        self.add_gate({qm: 1, qo: 1}, self._fill([a, b, c]))
        return c

    def constant(self, value: int) -> Wire:
        """c := value."""
        c = self.new_wire(value)
        _, _, _, qo = self._out_names()
        self.add_gate({"qC": value, qo: 1}, self._fill([self.zero, self.zero, c]))
        return c

    def assert_equal(self, a: Wire, b: Wire) -> None:
        """Constrain a == b via a subtraction gate outputting the zero wire."""
        ql, qr, _, qo = self._out_names()
        self.add_gate(
            {ql: 1, qr: -1, qo: 1},
            self._fill([a, b, self.zero]),
        )

    def pow5(self, a: Wire) -> Wire:
        """c := a^5 — a single Jellyfish gate (the Rescue S-box), or a
        mul-chain of three Vanilla gates.  This is the gate-count
        reduction §II-C2 describes."""
        p = self.field.modulus
        if self.gate_type.name == "jellyfish":
            c = self.new_wire(pow(self.value_of(a), 5, p))
            wires = [a] + [self.zero] * (self.gate_type.num_witnesses - 2) + [c]
            self.add_gate({"qH1": 1, "qO": 1}, wires)
            return c
        a2 = self.mul(a, a)
        a4 = self.mul(a2, a2)
        return self.mul(a4, a)

    # -- finalization ---------------------------------------------------------
    def build(self, min_gates: int = 1) -> "Circuit":
        """Pad with no-op gates to a power-of-two count and freeze."""
        if not self.rows:
            raise ValueError("cannot build an empty circuit")
        n = max(len(self.rows), min_gates, 2)
        size = 1 << (n - 1).bit_length()
        rows = list(self.rows)
        pad_wires = [self.zero] * self.gate_type.num_witnesses
        while len(rows) < size:
            rows.append(GateRow({}, list(pad_wires)))
        return Circuit(self.gate_type, self.field, rows, list(self._values))


class Circuit:
    """A frozen, padded circuit with witness assignment."""

    def __init__(self, gate_type: GateType, field: PrimeField,
                 rows: list[GateRow], values: list[int]):
        n = len(rows)
        if n < 2 or n & (n - 1):
            raise ValueError("circuit size must be a power of two >= 2")
        self.gate_type = gate_type
        self.field = field
        self.rows = rows
        self.values = values
        self.num_gates = n
        self.num_vars = n.bit_length() - 1

    # -- tables ----------------------------------------------------------------
    def selector_tables(self) -> dict[str, DenseMLE]:
        tables = {
            name: [row.selectors.get(name, 0) for row in self.rows]
            for name in self.gate_type.selector_names
        }
        return {name: DenseMLE(self.field, t) for name, t in tables.items()}

    def witness_tables(self) -> dict[str, DenseMLE]:
        cols: dict[str, list[int]] = {
            name: [] for name in self.gate_type.witness_names
        }
        for row in self.rows:
            for j, name in enumerate(self.gate_type.witness_names):
                cols[name].append(self.values[row.wires[j].index])
        return {name: DenseMLE(self.field, t) for name, t in cols.items()}

    def permutation_tables(self) -> dict[str, DenseMLE]:
        """σ_j tables: each slot's label maps to the next slot holding the
        same Wire (cyclic within each wire class).  Labels are
        slot = col * N + row."""
        n = self.num_gates
        k = self.gate_type.num_witnesses
        groups: dict[int, list[int]] = {}
        for row_idx, row in enumerate(self.rows):
            for col, wire in enumerate(row.wires):
                groups.setdefault(wire.index, []).append(col * n + row_idx)
        sigma = list(range(k * n))
        for slots in groups.values():
            for i, slot in enumerate(slots):
                sigma[slot] = slots[(i + 1) % len(slots)]
        return {
            f"sigma{col + 1}": DenseMLE(
                self.field, [sigma[col * n + row] for row in range(n)]
            )
            for col in range(k)
        }

    def identity_tables(self) -> dict[str, DenseMLE]:
        """id_j tables: the slot's own label (public, closed-form MLE)."""
        n = self.num_gates
        return {
            f"id{col + 1}": DenseMLE(
                self.field, [col * n + row for row in range(n)]
            )
            for col in range(self.gate_type.num_witnesses)
        }

    # -- sanity -------------------------------------------------------------
    def check_gates(self) -> list[int]:
        """Return indices of gate rows whose identity does NOT hold."""
        bad = []
        for idx, row in enumerate(self.rows):
            witnesses = [self.values[w.index] for w in row.wires]
            if self.gate_type.constraint_value(self.field, row.selectors,
                                               witnesses):
                bad.append(idx)
        return bad

    def __repr__(self):
        return (
            f"Circuit({self.gate_type.name}, {self.num_gates} gates, "
            f"μ={self.num_vars})"
        )
