"""Content-addressed circuit-preprocessing cache.

Preprocessing (committing every selector and σ table — one MSM each) is
the most expensive per-circuit step the service performs, and it depends
only on circuit *structure*, never on the witness.  :class:`IndexCache`
keys preprocessed :class:`~repro.hyperplonk.preprocess.ProverIndex` /
:class:`~repro.hyperplonk.preprocess.VerifierIndex` pairs by
:func:`~repro.hyperplonk.preprocess.circuit_fingerprint`, with optional
LRU eviction and hit/miss/eviction statistics.

Proofs produced from a cached index are bit-identical to proofs from a
fresh ``preprocess()`` call — preprocessing is deterministic given the
circuit and the SRS — which ``tests/test_service_cache.py`` locks down.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass

from repro.hyperplonk.circuit import Circuit
from repro.hyperplonk.commitment import MultilinearKZG
from repro.hyperplonk.preprocess import (
    ProverIndex,
    VerifierIndex,
    circuit_fingerprint,
    preprocess,
)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: total wall time spent preprocessing on misses
    preprocess_s: float = 0.0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
            "preprocess_s": round(self.preprocess_s, 6),
        }


class IndexCache:
    """LRU cache of preprocessed circuit indexes, bound to one KZG/SRS.

    ``capacity=None`` means unbounded.
    """

    def __init__(self, kzg: MultilinearKZG, capacity: int | None = None):
        if capacity is not None and capacity < 1:
            raise ValueError("cache capacity must be >= 1 (or None)")
        self.kzg = kzg
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: OrderedDict[str, tuple[ProverIndex, VerifierIndex]] = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(
        self, circuit: Circuit, key: str | None = None
    ) -> tuple[ProverIndex, VerifierIndex, bool]:
        """Return ``(prover_index, verifier_index, hit)`` for ``circuit``,
        preprocessing on a miss.  ``key`` skips re-fingerprinting when the
        caller already holds one (jobs do)."""
        key = key or circuit_fingerprint(circuit)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry[0], entry[1], True
        self.stats.misses += 1
        t0 = time.perf_counter()
        pidx, vidx = preprocess(circuit, self.kzg)
        self.stats.preprocess_s += time.perf_counter() - t0
        self._entries[key] = (pidx, vidx)
        if self.capacity is not None:
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        return pidx, vidx, False

    def warm(self, circuit: Circuit) -> str:
        """Preprocess ``circuit`` ahead of traffic; returns its key."""
        key = circuit_fingerprint(circuit)
        self.get(circuit, key)
        return key

    def clear(self) -> None:
        self._entries.clear()
