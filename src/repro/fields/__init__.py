"""Finite-field arithmetic substrate.

zkPHIRE operates over the BLS12-381 curve: the scalar field ``Fr``
(255-bit prime) holds all MLE/witness data, and the base field ``Fq``
(381-bit prime) holds elliptic-curve coordinates.  This package provides

* :class:`~repro.fields.prime_field.PrimeField` — a generic prime-field
  descriptor whose elements (:class:`~repro.fields.prime_field.Felt`)
  support operator arithmetic, plus fast "raw" integer helpers used in
  hot loops,
* :mod:`~repro.fields.bls12_381` — the two concrete fields,
* :mod:`~repro.fields.montgomery` — a Montgomery-domain arithmetic model
  mirroring the hardware modular multipliers zkPHIRE synthesizes,
* :mod:`~repro.fields.counters` — the one recorder of work (field and G1
  counts, phase seconds) the kernels report into; its
  :class:`~repro.fields.counters.OpCounter` records validate the hardware
  performance model against functional runs,
* :mod:`~repro.fields.vector` — the one batched field-vector kernel,
  :data:`~repro.fields.vector.KERNEL`, that MLE folds, SumCheck rounds
  and OpenCheck batching run on, beside its per-element differential
  oracle :class:`~repro.fields.vector.ReferenceBackend`.
"""

from repro.fields.prime_field import Felt, PrimeField, batch_inverse
from repro.fields.bls12_381 import FQ_MODULUS, FR_MODULUS, Fq, Fr
from repro.fields.montgomery import MontgomeryContext
from repro.fields.counters import OpCounter
from repro.fields.vector import (
    KERNEL,
    FusedBackend,
    ReferenceBackend,
    VectorBackend,
    get_backend,
    window_decompose,
)

__all__ = [
    "Felt",
    "PrimeField",
    "batch_inverse",
    "FQ_MODULUS",
    "FR_MODULUS",
    "Fq",
    "Fr",
    "MontgomeryContext",
    "OpCounter",
    "KERNEL",
    "VectorBackend",
    "FusedBackend",
    "ReferenceBackend",
    "get_backend",
    "window_decompose",
]
