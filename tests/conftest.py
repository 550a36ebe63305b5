"""Shared fixtures and helpers for the test suite.

Tests default to BLS12-381 Fr for fidelity; a small 61-bit prime field is
also provided for hypothesis-heavy property tests where throughput matters
more than bit-width.
"""

import multiprocessing
import random
import threading

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


def leftovers() -> list[str]:
    """What the interpreter would wait for after the last test: live
    child processes, non-daemon threads besides the main one, and
    multiprocessing queue feeder threads (daemons, but joined at exit —
    one stuck on a dead worker's pipe or lock never returns)."""
    children = [
        f"process {child.name} (pid {child.pid})"
        for child in multiprocessing.active_children()
    ]
    threads = [
        f"thread {thread.name}"
        for thread in threading.enumerate()
        if thread is not threading.main_thread()
        and (not thread.daemon or thread.name == "QueueFeederThread")
    ]
    return children + threads


def pytest_sessionfinish(session):
    """Fail the run, by name, when a test left a worker or a thread behind."""
    left = leftovers()
    if not left:
        return
    session.exitstatus = pytest.ExitCode.TESTS_FAILED
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write_line(
            "left running after the last test: " + ", ".join(left), red=True
        )
