"""Memory-system model: storage classes, bandwidth tiers, PHY selection.

zkPHIRE streams MLE tiles from off-chip memory through small scratchpads
(§IV-B1).  Round-1 traffic benefits from sparsity-aware encodings:

* ``selector`` MLEs are 0/1-valued and stored as a plain bitstream
  (no address translation — "stored as-is"),
* ``sparse`` MLEs (witness / constant columns, ~90% zero-or-binary) use
  per-tile offset buffers: full 255-bit elements are embedded in a
  bitstream of 0/1 entries, with a small offset table locating them,
* ``dense`` MLEs are raw 32-byte elements.

After the first MLE update, tables are dense (challenges mix entries), so
rounds >= 2 always move 32 B/entry.
"""

from __future__ import annotations

from math import ceil

from repro.hw import tech

#: effective bytes per table entry, by storage class (round 1)
BYTES_PER_ENTRY = {
    "selector": 1.0 / 8.0,
    # 10% full elements + 1-bit stream + ~2B offset entry per element
    "sparse": 0.10 * tech.FR_BYTES + 1.0 / 8.0 + 0.10 * 2.0,
    "dense": float(tech.FR_BYTES),
}

#: Table III bandwidth tiers (GB/s)
BANDWIDTH_TIERS = (64, 128, 256, 512, 1024, 2048, 4096)


def entry_bytes(storage_class: str) -> float:
    try:
        return BYTES_PER_ENTRY[storage_class]
    except KeyError:
        raise ValueError(f"unknown MLE storage class {storage_class!r}") from None


def phy_plan(bandwidth_gbps: float) -> tuple[str, int, float]:
    """Pick PHYs for a bandwidth tier: (kind, count, total mm^2).

    HBM3 PHYs (29.6 mm^2, ~1 TB/s each) serve the >= 1 TB/s tiers; HBM2
    PHYs (14.9 mm^2, ~512 GB/s each) serve the DDR/HBM2 tiers, as in the
    paper's Pareto analysis (§VI-B1).
    """
    if bandwidth_gbps <= 0:
        raise ValueError("bandwidth must be positive")
    if bandwidth_gbps >= tech.HBM3_PHY_GBPS:
        count = ceil(bandwidth_gbps / tech.HBM3_PHY_GBPS)
        return "HBM3", count, count * tech.HBM3_PHY_MM2
    count = ceil(bandwidth_gbps / tech.HBM2_PHY_GBPS)
    return "HBM2", count, count * tech.HBM2_PHY_MM2


def bytes_per_second(bandwidth_gbps: float) -> float:
    """A bandwidth tier in bytes per second."""
    return bandwidth_gbps * 1e9


def transfer_seconds(num_bytes: float, bandwidth_gbps: float) -> float:
    """Time to move ``num_bytes`` at the given off-chip bandwidth."""
    return num_bytes / bytes_per_second(bandwidth_gbps)


def sram_mm2(num_bytes: float) -> float:
    return (num_bytes / (1 << 20)) * tech.SRAM_MM2_PER_MB
