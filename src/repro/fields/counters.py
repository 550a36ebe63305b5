"""The one recorder of work: field counts, G1 counts and phase seconds.

No layer passes a counter down.  The field kernels count into
:data:`field_sink` and the MSM kernel into :data:`g1_sink`, in closed
form once per call; when nothing records both are ``None`` and a kernel
pays one module-global read.  ``with recording() as rec:`` fills ``rec``
(totals, G1 tally, :meth:`OpCounter.table`); ``with phase(name):`` gives
a block its own row (rows are exclusive, and the rest is :data:`OTHER`);
``with uncounted():`` keeps a block's field work out (DESIGN.md §4).  A
recording inside another adds into it.  Module-level state is sound
because a process runs one prover at a time.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

#: the row of work done outside every named phase
OTHER = "other"


@dataclass
class G1Tally:
    """G1 work of the MSM kernel, counted once per kernel call: mixed
    (Jacobian + affine) and Jacobian additions, doublings, and the
    batch-affine rounds (one shared inversion each) with their additions."""

    mixed: int = 0
    jacobian: int = 0
    doubling: int = 0
    rounds: int = 0
    pairs: int = 0


@dataclass
class OpCounter:
    """Tally of field operations, grouped the way the hardware groups
    them.  A record of :func:`recording` also holds its G1 tally, its
    seconds and one such counter per phase (:meth:`table`)."""

    mul: int = 0
    add: int = 0
    inv: int = 0
    #: extension-engine multiplies (MLE extension / update), a subset of mul
    ee_mul: int = 0
    #: product-lane multiplies (cross-MLE products), a subset of mul
    pl_mul: int = 0
    labels: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # not dataclass fields, so that a tally's canonical text (what
        # the tally pins hash) and equality are the field counts alone
        self.g1 = G1Tally()
        self.seconds = 0.0
        self.phases: dict[str, OpCounter] = {}

    def count_mul(self, n: int = 1, kind: str | None = None) -> None:
        """Record ``n`` modmuls (kind ``ee`` or ``pl``)."""
        self.mul += n
        if kind == "ee":
            self.ee_mul += n
        elif kind == "pl":
            self.pl_mul += n

    def count_add(self, n: int = 1) -> None:
        """Record ``n`` modular additions."""
        self.add += n

    def count_inv(self, n: int = 1) -> None:
        """Record ``n`` modular inversions."""
        self.inv += n

    def bump(self, label: str, n: int = 1) -> None:
        """Free-form labelled counter (e.g. per protocol phase)."""
        self.labels[label] = self.labels.get(label, 0) + n

    def __iadd__(self, other: "OpCounter") -> "OpCounter":
        for into, src, names in (
            (self, other, ("mul", "add", "inv", "ee_mul", "pl_mul", "seconds")),
            (self.g1, other.g1, vars(other.g1)),
        ):
            for name in names:
                setattr(into, name, getattr(into, name) + getattr(src, name))
        for label, n in other.labels.items():
            self.bump(label, n)
        for name, row in other.phases.items():
            self.row(name).__iadd__(row)
        return self

    def row(self, name: str) -> "OpCounter":
        """The counter of phase ``name``, made empty on first use."""
        return self.phases.setdefault(name, OpCounter())

    def table(self) -> dict[str, dict[str, int | float]]:
        """Phase × work: per row, field mul / add / inv, the G1 tally and
        seconds.  Each column sums to the record's total."""
        return {
            name: {"mul": row.mul, "add": row.add, "inv": row.inv,
                   **{f"g1_{k}": v for k, v in vars(row.g1).items()},
                   "seconds": row.seconds}
            for name, row in self.phases.items()
        }


#: the row the field kernels count into, or None
field_sink: OpCounter | None = None
#: the tally the G1 kernel counts into, or None
g1_sink: G1Tally | None = None

_records: list[OpCounter] = []  # open recordings, innermost last
_rows: list[OpCounter] = []  # the row of every open scope, innermost last
_since = 0.0  # when the innermost row's current stretch began
_muted = 0  # open uncounted() scopes


def _aim() -> None:
    """Point both sinks at the innermost open row (the field one unless
    muted)."""
    global field_sink, g1_sink
    row = _rows[-1] if _rows else None
    field_sink = None if _muted else row
    g1_sink = None if row is None else row.g1


def _switch(row: OpCounter | None) -> None:
    """End the innermost row's stretch; push ``row``, or pop if None."""
    global _since
    now = perf_counter()
    if _rows:
        _rows[-1].seconds += now - _since
    if row is None:
        _rows.pop()
    else:
        _rows.append(row)
    _since = now
    _aim()


@contextmanager
def recording():
    """Record the block into a new :class:`OpCounter`, whose totals are
    filled in when the block closes."""
    record = OpCounter()
    _records.append(record)
    _switch(record.row(OTHER))
    try:
        yield record
    finally:
        _switch(None)
        _records.pop()
        for row in list(record.phases.values()):
            record += row
        if _records:
            # rows the inner record names stay named; the rest is the
            # outer record's open row
            for name, row in record.phases.items():
                (_rows[-1] if name == OTHER else _records[-1].row(name)).__iadd__(row)


@contextmanager
def adding_to(into: OpCounter | None):
    """Record the block and add the record into ``into``; nothing when it
    is None.  For the two entry points that still take a counter."""
    if into is None:
        yield
        return
    with recording() as record:
        yield
    into += record


@contextmanager
def phase(name: str):
    """Give the block the row ``name`` of the open record, if any."""
    if not _records:
        yield
        return
    _switch(_records[-1].row(name))
    try:
        yield
    finally:
        _switch(None)


@contextmanager
def uncounted():
    """Keep the block's field work out of every record."""
    global _muted
    _muted += 1
    _aim()
    try:
        yield
    finally:
        _muted -= 1
        _aim()


def bump(label: str, n: int = 1) -> None:
    """:meth:`OpCounter.bump` on the open row, if any."""
    if _rows:
        _rows[-1].bump(label, n)
