"""Shared fixtures and helpers for the test suite.

Tests default to BLS12-381 Fr for fidelity; a small 61-bit prime field is
also provided for hypothesis-heavy property tests where throughput matters
more than bit-width.
"""

import random

import pytest

from repro.fields import KERNEL, Fr, PrimeField, ReferenceBackend

#: a 61-bit Mersenne prime field for fast property tests
SMALL_PRIME = (1 << 61) - 1


@pytest.fixture
def fr():
    return Fr


@pytest.fixture
def small_field():
    return PrimeField(SMALL_PRIME, "F61")


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def on_kernel(monkeypatch):
    """``on_kernel(k)`` routes every method of the one field-vector
    :data:`~repro.fields.vector.KERNEL` through ``k`` for the rest of the
    test.  The instance every layer calls stays the same object, so a
    whole ``HyperPlonkProver`` can run on the ``ReferenceBackend`` oracle."""

    def route(kernel) -> None:
        for name, method in vars(ReferenceBackend).items():
            if callable(method) and not name.startswith("__"):
                monkeypatch.setattr(KERNEL, name, getattr(kernel, name))

    return route
