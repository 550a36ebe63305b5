"""The ate pairing on BLS12-381.

e: G1 × G2 → GT ⊂ Fp12.  G2 points live on the sextic twist
E': y^2 = x^3 + 4(1 + u) over Fp2; with the tower w^2 = v, v^3 = ξ = 1+u
we have ξ = w^6, so the untwist map

    ψ(x', y') = (x' / w^2, y' / w^3)

carries E'(Fp2) into E(Fp12): y'^2 = x'^3 + 4ξ becomes y^2 = x^3 + 4.

Implementation choices favour *correctness over speed* (this module is
the ground truth the fast trapdoor commitment check is tested against):

* the Miller loop works on untwisted points with generic affine Fp12
  arithmetic and textbook line evaluations (no coordinate-slot tricks),
* the final exponentiation splits (p^12 - 1)/r into the easy part
  (p^6 - 1)(p^2 + 1) — one conjugate, one inverse, two Frobenius maps —
  and one generic power for the hard part (p^4 - p^2 + 1)/r.

A pairing costs a few seconds in pure Python — fine for tests and the
public-verification path of a handful of openings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.curves.curve import AffinePoint
from repro.curves.tower import Fp2, Fp6, Fp12
from repro.fields.bls12_381 import BLS_X, FQ_MODULUS as P, FR_MODULUS as R

#: |x|, the absolute BLS parameter (x itself is negative)
BLS_X_ABS = -BLS_X

#: the hard part of the final exponentiation, (p^4 - p^2 + 1) / r
HARD_EXP = (P**4 - P**2 + 1) // R

#: G2 twist coefficient b' = 4 (1 + u)
TWIST_B = Fp2(4, 4)

#: the standard G2 generator (subgroup order r), from the BLS12-381 spec
G2_GENERATOR_X = Fp2(
    int("0x024AA2B2F08F0A91260805272DC51051C6E47AD4FA403B02B4510B647AE3D177"
        "0BAC0326A805BBEFD48056C8C121BDB8", 16),
    int("0x13E02B6052719F607DACD3A088274F65596BD0D09920B61AB5DA61BBDC7F5049"
        "334CF11213945D57E5AC7D055D042B7E", 16),
)
G2_GENERATOR_Y = Fp2(
    int("0x0CE5D527727D6E118CC9CDC6DA2E351AADFD9BAA8CBDD3A76D429A695160D12C"
        "923AC9CC3BACA289E193548608B82801", 16),
    int("0x0606C4A02EA734CC32ACD2B02BC28B99CB3E287E85A763AF267492AB572E99AB"
        "3F370D275CEC1DA1AAA9075FF05F79BE", 16),
)


@dataclass(frozen=True)
class G2Point:
    """Affine point on the G2 twist (or infinity)."""

    x: Fp2
    y: Fp2
    inf: bool = False

    @staticmethod
    def generator() -> "G2Point":
        return G2Point(G2_GENERATOR_X, G2_GENERATOR_Y)

    @staticmethod
    def infinity() -> "G2Point":
        return G2Point(Fp2.ZERO, Fp2.ZERO, True)

    def is_on_curve(self) -> bool:
        if self.inf:
            return True
        return self.y.square() == self.x.square() * self.x + TWIST_B

    def neg(self) -> "G2Point":
        if self.inf:
            return self
        return G2Point(self.x, -self.y)

    def double(self) -> "G2Point":
        if self.inf or self.y.is_zero():
            return G2Point.infinity()
        lam = self.x.square().mul_scalar(3) * self.y.mul_scalar(2).inverse()
        x3 = lam.square() - self.x.mul_scalar(2)
        y3 = lam * (self.x - x3) - self.y
        return G2Point(x3, y3)

    def add(self, other: "G2Point") -> "G2Point":
        if self.inf:
            return other
        if other.inf:
            return self
        if self.x == other.x:
            if self.y == other.y:
                return self.double()
            return G2Point.infinity()
        lam = (other.y - self.y) * (other.x - self.x).inverse()
        x3 = lam.square() - self.x - other.x
        y3 = lam * (self.x - x3) - self.y
        return G2Point(x3, y3)

    def scalar_mul(self, k: int) -> "G2Point":
        k %= R
        result = G2Point.infinity()
        addend = self
        while k:
            if k & 1:
                result = result.add(addend)
            addend = addend.double()
            k >>= 1
        return result


# -- Fp12 embeddings and the untwist ------------------------------------------

def fp12_from_fp(a: int) -> Fp12:
    return Fp12(Fp6(Fp2(a), Fp2.ZERO, Fp2.ZERO), Fp6.ZERO)


def fp12_from_fp2(a: Fp2) -> Fp12:
    return Fp12(Fp6(a, Fp2.ZERO, Fp2.ZERO), Fp6.ZERO)


#: w^2 = v and w^3 = v·w as Fp12 elements, and their inverses
_W2 = Fp12(Fp6(Fp2.ZERO, Fp2.ONE, Fp2.ZERO), Fp6.ZERO)
_W3 = Fp12(Fp6.ZERO, Fp6(Fp2.ZERO, Fp2.ONE, Fp2.ZERO))
_W2_INV = _W2.inverse()
_W3_INV = _W3.inverse()


def untwist(q: G2Point) -> tuple[Fp12, Fp12]:
    """ψ(Q): coordinates of Q on E(Fp12)."""
    if q.inf:
        raise ValueError("cannot untwist the point at infinity")
    return fp12_from_fp2(q.x) * _W2_INV, fp12_from_fp2(q.y) * _W3_INV


# -- the Miller loop ------------------------------------------------------------

def _line(tx: Fp12, ty: Fp12, qx: Fp12, qy: Fp12,
          px: Fp12, py: Fp12) -> tuple[Fp12, Fp12, Fp12]:
    """Line through T=(tx,ty) and Q=(qx,qy) (tangent when equal),
    evaluated at P; returns (line value, new point x, new point y)."""
    if tx == qx and ty == qy:
        lam = tx.square() * fp12_from_fp(3) * (ty * fp12_from_fp(2)).inverse()
    elif tx == qx:
        # vertical line x - tx; the sum is infinity (never hit mid-loop
        # for r-order inputs, but handled for completeness)
        return px - tx, None, None  # type: ignore
    else:
        lam = (qy - ty) * (qx - tx).inverse()
    line = py - ty - lam * (px - tx)
    nx = lam.square() - tx - qx
    ny = lam * (tx - nx) - ty
    return line, nx, ny


def miller_loop(p: AffinePoint, q: G2Point) -> Fp12:
    """f_{|x|, Q}(P) without the final exponentiation."""
    if p.inf or q.inf:
        return Fp12.ONE
    px, py = fp12_from_fp(p.x), fp12_from_fp(p.y)
    qx, qy = untwist(q)
    f = Fp12.ONE
    tx, ty = qx, qy
    for bit in bin(BLS_X_ABS)[3:]:  # MSB already consumed
        line, tx, ty = _line(tx, ty, tx, ty, px, py)
        f = f.square() * line
        if bit == "1":
            line, tx, ty = _line(tx, ty, qx, qy, px, py)
            f = f * line
    # BLS parameter x is negative: conjugate (f -> f^(p^6) = 1/f in GT)
    return f.conjugate()


def final_exponentiation(f: Fp12) -> Fp12:
    """f^((p^12 - 1)/r): f^(p^6 - 1) is conj(f)/f, ^(p^2 + 1) is two
    Frobenius maps and a multiply, then the hard part's power."""
    f = f.conjugate() * f.inverse()
    f = f.frobenius().frobenius() * f
    return f.pow(HARD_EXP)


def pairing(p: AffinePoint, q: G2Point) -> Fp12:
    """The ate pairing e(P, Q) with final exponentiation."""
    if not q.is_on_curve():
        raise ValueError("Q is not on the G2 twist")
    return final_exponentiation(miller_loop(p, q))


def multi_pairing(pairs: list[tuple[AffinePoint, G2Point]]) -> Fp12:
    """Π e(P_i, Q_i) sharing one final exponentiation."""
    f = Fp12.ONE
    for p, q in pairs:
        if not q.is_on_curve():
            raise ValueError("Q is not on the G2 twist")
        f = f * miller_loop(p, q)
    return final_exponentiation(f)
