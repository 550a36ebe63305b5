"""The BLS12-381 G1 group: y^2 = x^3 + 4 over Fq, order r."""

import functools

from repro.curves.curve import ShortWeierstrassCurve
from repro.curves.msm import FixedBaseTable
from repro.fields.bls12_381 import (
    FR_MODULUS,
    Fq,
    G1_B,
    G1_GENERATOR_X,
    G1_GENERATOR_Y,
)

#: λ = z² - 1 for the BLS parameter z: a cube root of unity mod r with
#: λ² + λ + 1 = r exactly, so ``divmod(k, λ)`` is the GLV split.
G1_LAMBDA = 0xAC45A4010001A40200000000FFFFFFFF

#: The cube root of unity in Fq whose map (x, y) ↦ (βx, y) is
#: multiplication by λ on G1 (the other root acts as λ²).
G1_BETA = int(
    "1a0111ea397fe699ec02408663d4de85aa0d857d89759ad4"
    "897d29650fb85f9b409427eb4f49fffd8bfd00000000aaac",
    16,
)

G1 = ShortWeierstrassCurve(
    Fq, a=0, b=G1_B, order=FR_MODULUS, name="BLS12-381 G1",
    endomorphism=(G1_BETA, G1_LAMBDA),
)

G1_GENERATOR = G1.affine(G1_GENERATOR_X, G1_GENERATOR_Y)


@functools.cache
def generator_table() -> FixedBaseTable:
    """The process-wide fixed-base table of the generator, built on
    first use (255 affine points): SRS bases and every KZG constant
    commitment are multiples of G, 16 doublings and ≤32 additions each
    through it."""
    return FixedBaseTable(G1_GENERATOR)
