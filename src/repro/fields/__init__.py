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
* :class:`~repro.fields.counters.OpCounter` — explicit operation counting
  used to validate the hardware performance model against functional runs,
* :mod:`~repro.fields.vector` — batched field-vector kernels
  (:class:`~repro.fields.vector.FieldVec`) behind a two-backend
  registry (the ``reference`` oracle and the ``fused`` fast path),
  the substrate of the fast-path SumCheck prover.
"""

from repro.fields.prime_field import Felt, PrimeField, batch_inverse
from repro.fields.bls12_381 import FQ_MODULUS, FR_MODULUS, Fq, Fr
from repro.fields.montgomery import MontgomeryContext
from repro.fields.counters import OpCounter
from repro.fields.vector import (
    FieldVec,
    FusedBackend,
    ReferenceBackend,
    VectorBackend,
    get_backend,
    list_backends,
    set_default_backend,
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
    "FieldVec",
    "VectorBackend",
    "ReferenceBackend",
    "FusedBackend",
    "list_backends",
    "set_default_backend",
    "get_backend",
    "window_decompose",
]
