"""Generic prime-field arithmetic.

Two API levels are provided:

* :class:`Felt` — an immutable wrapped element with operator overloads.
  Protocol-level code (provers, verifiers, commitments) uses this level
  for readability.
* raw helpers on :class:`PrimeField` (``add``/``sub``/``mul``/``inv`` on
  plain ints) — hot loops such as MLE folds use these to avoid object
  churn.  Values at this level are canonical integers in ``[0, p)``.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class Felt:
    """An element of a prime field.

    Immutable; all operators return new elements.  Mixed ``Felt``/``int``
    arithmetic is supported (the int is reduced into the field), but mixing
    elements of *different* fields raises ``ValueError``.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: "PrimeField", value: int):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value % field.modulus)

    def __setattr__(self, name, val):  # pragma: no cover - guard rail
        raise AttributeError("Felt is immutable")

    def __reduce__(self):
        # default slots-state unpickling trips the immutability guard;
        # rebuild through the constructor instead (service worker pools
        # ship circuits, and with them fields, across processes)
        return (Felt, (self.field, self.value))

    def _coerce(self, other) -> int:
        if isinstance(other, Felt):
            if other.field is not self.field:
                raise ValueError(
                    f"cannot mix elements of {self.field} and {other.field}"
                )
            return other.value
        if isinstance(other, int):
            return other % self.field.modulus
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Felt(self.field, self.value + v)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Felt(self.field, self.value - v)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Felt(self.field, v - self.value)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Felt(self.field, self.value * v)

    __rmul__ = __mul__

    def __neg__(self):
        return Felt(self.field, -self.value)

    def __pow__(self, exponent: int):
        return Felt(self.field, pow(self.value, exponent, self.field.modulus))

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Felt(self.field, self.value * self.field.inv(v))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Felt(self.field, v * self.field.inv(self.value))

    def inverse(self) -> "Felt":
        """Multiplicative inverse; raises ``ZeroDivisionError`` on zero."""
        return Felt(self.field, self.field.inv(self.value))

    def __eq__(self, other):
        if isinstance(other, Felt):
            return self.field is other.field and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.field.modulus
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.value))

    def __bool__(self):
        return self.value != 0

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"Felt({self.value} mod {self.field.name})"


class PrimeField:
    """Descriptor for the prime field Z/pZ.

    Acts as an element factory (``field(3)``) and exposes raw integer
    arithmetic (``field.mul(a, b)``) for performance-sensitive code.
    """

    def __init__(self, modulus: int, name: str = "Fp"):
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        # A cheap compositeness screen; full primality checking is out of
        # scope and the fields used here are fixed published primes.
        if modulus % 2 == 0 and modulus != 2:
            raise ValueError("modulus must be an odd prime (or 2)")
        self.modulus = modulus
        self.name = name
        self.bit_length = modulus.bit_length()
        self._zero = Felt(self, 0)
        self._one = Felt(self, 1)

    # -- element factory -------------------------------------------------
    def __call__(self, value: int | Felt) -> Felt:
        if isinstance(value, Felt):
            if value.field is not self:
                raise ValueError(f"element of {value.field} is not in {self}")
            return value
        return Felt(self, value)

    @property
    def zero(self) -> Felt:
        """The additive identity as a :class:`Felt`."""
        return self._zero

    @property
    def one(self) -> Felt:
        """The multiplicative identity as a :class:`Felt`."""
        return self._one

    def elements(self, values: Iterable[int]) -> list[Felt]:
        """Wrap each integer as a :class:`Felt`."""
        return [Felt(self, v) for v in values]

    # -- raw integer arithmetic ------------------------------------------
    def add(self, a: int, b: int) -> int:
        """``(a + b) mod p`` on canonical integers."""
        s = a + b
        p = self.modulus
        return s - p if s >= p else s

    def sub(self, a: int, b: int) -> int:
        """``(a - b) mod p`` on canonical integers."""
        d = a - b
        return d + self.modulus if d < 0 else d

    def mul(self, a: int, b: int) -> int:
        """``(a * b) mod p`` on canonical integers."""
        return a * b % self.modulus

    def neg(self, a: int) -> int:
        """``(-a) mod p`` on a canonical integer."""
        return self.modulus - a if a else 0

    def pow(self, a: int, e: int) -> int:
        """``a**e mod p`` via three-arg ``pow``."""
        return pow(a, e, self.modulus)

    def inv(self, a: int) -> int:
        """``a**-1 mod p``; ``ZeroDivisionError`` on 0."""
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self.name}")
        return pow(a, -1, self.modulus)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self):
        return hash(self.modulus)

    def __reduce__(self):
        # reconstruct via the constructor so the copy carries fresh
        # _zero/_one elements bound to itself (fields compare by modulus,
        # so an unpickled copy still == the original)
        return (PrimeField, (self.modulus, self.name))

    def __repr__(self):
        return f"PrimeField({self.name}, {self.bit_length} bits)"


def batch_inverse(field: PrimeField, values: Sequence[int]) -> list[int]:
    """Montgomery batch inversion: n inverses for 3(n-1) muls + 1 inversion.

    This is the software analogue of the batching strategy zkPHIRE's
    Permutation Quotient Generator uses in hardware (§IV-B5).  Zero inputs
    raise ``ZeroDivisionError``, matching scalar inversion.
    """
    if not values:
        return []
    p = field.modulus
    prefix = [0] * len(values)
    acc = 1
    for i, v in enumerate(values):
        if v == 0:
            raise ZeroDivisionError("batch_inverse: zero element")
        prefix[i] = acc
        acc = acc * v % p
    inv_acc = field.inv(acc)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = prefix[i] * inv_acc % p
        inv_acc = inv_acc * values[i] % p
    return out
