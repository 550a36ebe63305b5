"""Short-Weierstrass elliptic-curve arithmetic.

Points on ``y^2 = x^3 + a*x + b`` over a prime field.  Two representations:

* :class:`AffinePoint` — canonical (x, y) pairs; cheap equality, used at
  API boundaries (commitments, SRS files).
* :class:`JacobianPoint` — (X, Y, Z) with x = X/Z^2, y = Y/Z^3; inversion-
  free group law used wherever one operation waits for the last.  This
  matches hardware practice: zkPHIRE's fully-pipelined PADD units
  operate on projective coordinates.

The group law is written once, as :func:`jacobian_double`,
:func:`jacobian_add` and :func:`jacobian_add_affine` on bare integer
coordinates, so the MSM kernel (:mod:`repro.curves.msm`) can run its
inner loops without building a :class:`JacobianPoint` per operation;
the point classes are thin wrappers over the same three functions.
A modular reduction costs more than a multiplication on Python
integers, so the formulas reduce only what is multiplied again.
Where many additions are independent of each other — everything an MSM
accumulates — :func:`affine_sum_rows` does them in affine coordinates
through shared inversions, at a bit over half the cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fields import counters
from repro.fields.prime_field import PrimeField, batch_inverse

#: Jacobian coordinates of the point at infinity (any z == 0 triple is).
INFINITY = (1, 1, 0)


def jacobian_double(x: int, y: int, z: int, p: int, a: int) -> tuple[int, int, int]:
    """``2 * (x, y, z)`` on y^2 = x^3 + a*x + b over F_p."""
    if z == 0 or y == 0:
        return INFINITY
    yy = y * y % p
    s = 4 * x * yy % p
    m = 3 * x * x
    if a:
        zz = z * z % p
        m += a * zz * zz
    m %= p
    nx = (m * m - 2 * s) % p
    return nx, (m * (s - nx) - 8 * yy * yy) % p, 2 * y * z % p


def jacobian_add_affine(
    x1: int, y1: int, z1: int, x2: int, y2: int, p: int, a: int
) -> tuple[int, int, int]:
    """``(x1, y1, z1) + (x2, y2, 1)``: mixed addition, the hardware PADD case.

    Falls through to doubling when both operands are the same point and
    to infinity when they are inverses; the second operand is finite.
    """
    if z1 == 0:
        return x2, y2, 1
    zz = z1 * z1 % p
    h = (x2 * zz - x1) % p
    r = (y2 * z1 % p * zz - y1) % p
    if h == 0:
        return jacobian_double(x1, y1, z1, p, a) if r == 0 else INFINITY
    hh = h * h % p
    hhh = h * hh % p
    v = x1 * hh % p
    nx = (r * r - hhh - 2 * v) % p
    return nx, (r * (v - nx) - y1 * hhh) % p, z1 * h % p


def jacobian_add(
    x1: int, y1: int, z1: int, x2: int, y2: int, z2: int, p: int, a: int
) -> tuple[int, int, int]:
    """``(x1, y1, z1) + (x2, y2, z2)`` with both operands projective."""
    if z1 == 0:
        return x2, y2, z2
    if z2 == 0:
        return x1, y1, z1
    z1z1 = z1 * z1 % p
    z2z2 = z2 * z2 % p
    u1 = x1 * z2z2 % p
    s1 = y1 * z2 % p * z2z2 % p
    h = (x2 * z1z1 - u1) % p
    r = (y2 * z1 % p * z1z1 - s1) % p
    if h == 0:
        return jacobian_double(x1, y1, z1, p, a) if r == 0 else INFINITY
    hh = h * h % p
    hhh = h * hh % p
    v = u1 * hh % p
    nx = (r * r - hhh - 2 * v) % p
    return nx, (r * (v - nx) - s1 * hhh) % p, z1 * z2 % p * h % p


def jacobian_normalize(
    field: PrimeField, triples: "list[tuple[int, int, int]]"
) -> "list[tuple[int, int] | None]":
    """Jacobian triples → affine (x, y) pairs with one shared inversion
    (Montgomery's trick); a point at infinity becomes ``None``."""
    p = field.modulus
    inverses = iter(batch_inverse(field, [z for _, _, z in triples if z]))
    out: list[tuple[int, int] | None] = []
    for x, y, z in triples:
        if z == 0:
            out.append(None)
            continue
        zinv = next(inverses)
        zinv2 = zinv * zinv % p
        out.append((x * zinv2 % p, y * zinv2 % p * zinv % p))
    return out


#: Fewest additions a round of :func:`affine_sum_rows` shares one
#: inversion among.  On the reference host an Fq inversion costs ~29 µs,
#: an addition through a shared one ~4.4 µs and the mixed Jacobian
#: addition it replaces ~7.3 µs (``tools/msm_crossover.py`` prints all
#: three), so a round pays for itself from 29 / (7.3 - 4.4) = 10 pairs.
BATCH_MIN_PAIRS = 10


def affine_sum_rows(
    field: PrimeField,
    a: int,
    rows: "list[list[tuple[int, int]]]",
    min_pairs: int = BATCH_MIN_PAIRS,
) -> None:
    """Batch-affine accumulation: shrink every row of affine (x, y)
    summands towards its sum, in place, leaving the sum of each row
    unchanged (an empty row is the point at infinity).

    One round adds the entries of every row in adjacent pairs, halving
    it, and all additions of a round share one inversion
    (:func:`~repro.fields.prime_field.batch_inverse`): ~6
    multiplications each against 11 for a mixed Jacobian addition, and
    nothing to normalise afterwards.  Equal points take the tangent
    slope through the same inversion; a point and its inverse drop out.
    Rounds stop once fewer than ``min_pairs`` additions are left in
    one, so the caller finishes rows that still hold several entries
    (with mixed additions); ``min_pairs=1`` reduces every row to at
    most one point.
    """
    p = field.modulus
    pairs = sum(len(row) >> 1 for row in rows)
    rounds = added = 0
    while pairs and pairs >= min_pairs:
        rounds += 1
        added += pairs
        # x₂ - x₁ for a chord and y₁ + y₂ = 2y for a tangent; a pair that
        # cancels (inverse points, or a doubled 2-torsion point) has
        # neither and holds its place in the batch with a 1
        inverses = iter(batch_inverse(field, [
            (row[i][0] - row[i - 1][0]) or (row[i][1] + row[i - 1][1]) % p or 1
            for row in rows
            for i in range(1, len(row), 2)
        ]))
        pairs = 0
        for r, row in enumerate(rows):
            if len(row) < 2:
                continue
            out = []
            for i in range(1, len(row), 2):
                x1, y1 = row[i - 1]
                x2, y2 = row[i]
                inverse = next(inverses)
                if x1 != x2:
                    slope = (y2 - y1) * inverse % p
                elif (y1 + y2) % p:
                    slope = (3 * x1 * x1 + a) * inverse % p
                else:
                    continue
                x3 = (slope * slope - x1 - x2) % p
                out.append((x3, (slope * (x1 - x3) - y1) % p))
            if len(row) & 1:
                out.append(row[-1])
            rows[r] = out
            pairs += len(out) >> 1
    if (tally := counters.g1_sink) is not None:
        tally.rounds += rounds
        tally.pairs += added


class ShortWeierstrassCurve:
    """The curve y^2 = x^3 + a*x + b over ``field``, with group order ``order``.

    ``endomorphism`` is curve data like ``a`` and ``b``: a pair (β, λ)
    with λ² + λ + 1 = ``order`` exactly and (x, y) ↦ (βx, y) acting as
    multiplication by λ, when the curve has one (j-invariant 0).  The
    MSM kernel uses it to halve scalar lengths (GLV).
    """

    def __init__(self, field: PrimeField, a: int, b: int, order: int, name: str,
                 endomorphism: tuple[int, int] | None = None):
        self.field = field
        self.a = a % field.modulus
        self.b = b % field.modulus
        self.order = order
        self.name = name
        self.endomorphism = endomorphism

    def is_on_curve(self, x: int, y: int) -> bool:
        p = self.field.modulus
        return (y * y - (x * x * x + self.a * x + self.b)) % p == 0

    def affine(self, x: int, y: int) -> "AffinePoint":
        pt = AffinePoint(self, x % self.field.modulus, y % self.field.modulus, False)
        if not self.is_on_curve(pt.x, pt.y):
            raise ValueError(f"({x}, {y}) is not on {self.name}")
        return pt

    @property
    def infinity(self) -> "AffinePoint":
        return AffinePoint(self, 0, 0, True)

    @property
    def jacobian_infinity(self) -> "JacobianPoint":
        return JacobianPoint(self, *INFINITY)

    def __repr__(self):
        return f"ShortWeierstrassCurve({self.name})"


@dataclass(frozen=True, slots=True)
class AffinePoint:
    """An affine curve point, or the point at infinity when ``inf`` is set.

    Slotted: an SRS holds thousands of bases.
    """

    curve: ShortWeierstrassCurve
    x: int
    y: int
    inf: bool = False

    def to_jacobian(self) -> "JacobianPoint":
        if self.inf:
            return self.curve.jacobian_infinity
        return JacobianPoint(self.curve, self.x, self.y, 1)

    def neg(self) -> "AffinePoint":
        if self.inf:
            return self
        return AffinePoint(self.curve, self.x, -self.y % self.curve.field.modulus)

    def add(self, other: "AffinePoint") -> "AffinePoint":
        return self.to_jacobian().add_affine(other).to_affine()

    def double(self) -> "AffinePoint":
        return self.to_jacobian().double().to_affine()

    def scalar_mul(self, k: int) -> "AffinePoint":
        """``k * self``; see :meth:`JacobianPoint.scalar_mul`."""
        return self.to_jacobian().scalar_mul(k).to_affine()

    def __eq__(self, other):
        if not isinstance(other, AffinePoint):
            return NotImplemented
        if self.inf or other.inf:
            return self.inf and other.inf
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.curve.name, self.x, self.y, self.inf))

    def __repr__(self):
        if self.inf:
            return f"AffinePoint({self.curve.name}, inf)"
        return f"AffinePoint({self.curve.name}, x={hex(self.x)[:14]}..)"


class JacobianPoint:
    """Jacobian-projective point; Z == 0 encodes the point at infinity."""

    __slots__ = ("curve", "x", "y", "z")

    def __init__(self, curve: ShortWeierstrassCurve, x: int, y: int, z: int):
        self.curve = curve
        self.x = x
        self.y = y
        self.z = z

    def to_affine(self) -> AffinePoint:
        if self.z == 0:
            return self.curve.infinity
        if self.z == 1:
            return AffinePoint(self.curve, self.x, self.y)
        p = self.curve.field.modulus
        zinv = pow(self.z, -1, p)
        zinv2 = zinv * zinv % p
        return AffinePoint(self.curve, self.x * zinv2 % p, self.y * zinv2 * zinv % p)

    def neg(self) -> "JacobianPoint":
        if self.z == 0:
            return self
        return JacobianPoint(self.curve, self.x, self.curve.field.modulus - self.y, self.z)

    def double(self) -> "JacobianPoint":
        curve = self.curve
        return JacobianPoint(curve, *jacobian_double(
            self.x, self.y, self.z, curve.field.modulus, curve.a))

    def add(self, other: "JacobianPoint") -> "JacobianPoint":
        curve = self.curve
        return JacobianPoint(curve, *jacobian_add(
            self.x, self.y, self.z, other.x, other.y, other.z,
            curve.field.modulus, curve.a))

    def add_affine(self, other: AffinePoint) -> "JacobianPoint":
        """Mixed addition (other has Z=1); ~30% cheaper than :meth:`add`."""
        if other.inf:
            return self
        curve = self.curve
        return JacobianPoint(curve, *jacobian_add_affine(
            self.x, self.y, self.z, other.x, other.y,
            curve.field.modulus, curve.a))

    def scalar_mul(self, k: int) -> "JacobianPoint":
        """``k * self``: the one-point case of the MSM kernel.

        Like the kernel it takes ``k`` modulo ``curve.order`` and, on a
        curve with an endomorphism, needs the point to be in the
        subgroup of that order; ``msm_jacobian(..., in_subgroup=False)``
        is the form for a curve point of unchecked origin.
        """
        from repro.curves.msm import msm_jacobian

        return msm_jacobian(self.curve, [k], [self.to_affine()])

    def __eq__(self, other):
        if not isinstance(other, JacobianPoint):
            return NotImplemented
        if self.z == 0 or other.z == 0:
            return self.z == 0 and other.z == 0
        # Cross-multiply to compare without inversion.
        p = self.curve.field.modulus
        z1z1 = self.z * self.z % p
        z2z2 = other.z * other.z % p
        if self.x * z2z2 % p != other.x * z1z1 % p:
            return False
        return self.y * z2z2 * other.z % p == other.y * z1z1 * self.z % p

    def __repr__(self):
        if self.z == 0:
            return f"JacobianPoint({self.curve.name}, inf)"
        return f"JacobianPoint({self.curve.name}, x={hex(self.x)[:14]}..)"


def batch_normalize(points: "list[JacobianPoint]") -> "list[AffinePoint]":
    """Jacobian → affine for many points with one shared field inversion.

    Montgomery's batch-inversion trick — the same batching strategy
    zkPHIRE's Permutation Quotient Generator uses for field inverses
    (§IV-B5), applied to coordinate normalization.  Infinity entries
    (z = 0) are passed through and excluded from the inversion batch.
    """
    if not points:
        return []
    curve = points[0].curve
    pairs = jacobian_normalize(curve.field, [(pt.x, pt.y, pt.z) for pt in points])
    return [
        curve.infinity if xy is None else AffinePoint(curve, *xy) for xy in pairs
    ]
