"""Fleet-level measurement: makespan, imbalance, locality, resilience.

:func:`cluster_summary` renders one dict per cluster run:

* ``model`` — model-time results: makespan (latest node finish),
  throughput and the fleet latency tail (:func:`records_summary`),
  per-node busy seconds and utilization, load imbalance (max/mean
  busy), and the install share (:func:`install_split`) — the fraction
  of fleet busy time spent (re)building circuit indexes, which is
  exactly what affinity routing exists to shrink;
* ``cache`` — aggregate hit/miss/eviction stats over every node's
  simulated cache (the real fleet measures its own, same capacity);
* ``routing`` — jobs and distinct circuit shapes per node, and the
  *shape spread*: the mean number of nodes that saw each circuit
  structure (1.0 = perfect affinity, ≈N = every shape installed
  everywhere);
* the blocks a run's own data decides (:func:`run_blocks`, the one
  rule the sim's and the real fleet's summaries share): ``resilience``
  after every run — the crash/recovery/requeue/autoscale counters;
  ``deadlines`` when some job arrived after t=0 — :func:`deadline_stats`:
  how many deadline-carrying jobs finished late, with dropped jobs
  counted as misses, the headline the resilience benchmark gates on;
  ``retries`` when a node crashed — :func:`retry_stats` latency
  accounting for crash-retried jobs.

The open-loop traffic summary and the real fleet's summary build the
same blocks from :func:`records_summary` and :func:`install_split`.
"""

from __future__ import annotations

from repro.cluster.nodes import JobRecord, ProverNode
from repro.service.cache import CacheStats
from repro.service.metrics import FULL_TAIL, latency_tail, percentile


def _aggregate_stats(stats: list[CacheStats]) -> dict:
    total = CacheStats()
    for s in stats:
        total.hits += s.hits
        total.misses += s.misses
        total.evictions += s.evictions
    doc = total.as_dict()
    del doc["preprocess_s"]  # a modelled cache times nothing
    return doc


def load_imbalance(busy: list[float]) -> float:
    """Max node busy time over mean (1.0 = perfectly balanced)."""
    if not busy or sum(busy) == 0.0:
        return 1.0
    return max(busy) / (sum(busy) / len(busy))


def shape_spread(nodes: list[ProverNode]) -> float:
    """Mean number of nodes each circuit structure was routed to."""
    shapes: set[str] = set()
    for node in nodes:
        shapes |= node.shapes_seen
    if not shapes:
        return 0.0
    placements = sum(len(node.shapes_seen) for node in nodes)
    return placements / len(shapes)


def records_summary(
    records: list[JobRecord], tail: tuple[str, ...] = FULL_TAIL
) -> dict:
    """Makespan, throughput and the ``tail`` latency keys over any
    record list (sim or fleet)."""
    makespan = max((r.finish_s for r in records), default=0.0)
    return {
        "makespan_s": round(makespan, 6),
        "throughput_jobs_per_s": (
            round(len(records) / makespan, 3) if makespan > 0 else 0.0
        ),
        "latency_s": latency_tail([r.latency_s for r in records], tail),
    }


def install_split(records: list[JobRecord]) -> dict:
    """Install vs prove seconds over a record list, and the install share."""
    install_s = sum(r.install_model_s for r in records)
    prove_s = sum(r.prove_model_s for r in records)
    total_busy = install_s + prove_s
    return {
        "install_s": round(install_s, 6),
        "prove_s": round(prove_s, 6),
        "install_share": (
            round(install_s / total_busy, 4) if total_busy > 0 else 0.0
        ),
    }


def deadline_stats(records: list[JobRecord], failed_jobs: list) -> dict:
    """Deadline accounting over completed records and dropped jobs.

    Only jobs that carry a deadline participate; a dropped (failed) job
    with a deadline counts as a miss — losing a realtime job *is* a
    deadline miss from the client's point of view.  Lateness is
    ``finish - deadline`` over the missed completions.
    """
    dated = [r for r in records if r.deadline_s is not None]
    failed_dated = [j for j in failed_jobs if j.deadline_s is not None]
    missed_records = [r for r in dated if r.missed_deadline]
    total = len(dated) + len(failed_dated)
    missed = len(missed_records) + len(failed_dated)
    lateness = [r.finish_s - r.deadline_s for r in missed_records]
    return {
        "jobs": total,
        "met": total - missed,
        "missed": missed,
        "missed_by_failure": len(failed_dated),
        "miss_rate": round(missed / total, 4) if total else 0.0,
        "max_lateness_s": round(max(lateness), 6) if lateness else 0.0,
        "mean_lateness_s": (
            round(sum(lateness) / len(lateness), 6) if lateness else 0.0
        ),
    }


def retry_stats(records: list[JobRecord]) -> dict:
    """Latency cost of crash retries over one run's completed records.

    Splits fleet latency between first-try completions and jobs that
    were lost to at least one crash and reproven elsewhere — the
    retry-latency accounting ISSUE 5 asks the metrics layer to carry.
    """
    retried = [r for r in records if r.attempt > 0]
    first_try = [r for r in records if r.attempt == 0]

    def mean_latency(rows: list[JobRecord]) -> float:
        if not rows:
            return 0.0
        return round(sum(r.latency_s for r in rows) / len(rows), 6)

    return {
        "jobs_retried": len(retried),
        "attempts": sum(r.attempt for r in retried),
        "max_attempt": max((r.attempt for r in retried), default=0),
        "mean_latency_first_try_s": mean_latency(first_try),
        "mean_latency_retried_s": mean_latency(retried),
        "p95_latency_retried_s": round(
            percentile([r.latency_s for r in retried], 95), 6
        ),
    }


def run_blocks(records: list[JobRecord], failed_jobs: list, resilience: dict) -> dict:
    """The summary blocks a finished run's own data decides, for the sim
    and the real fleet alike, in this order: ``resilience`` (with at
    least a ``crashes`` counter) always, ``deadlines`` once arrivals are
    paced (some record arrived after t=0), ``retries`` only when a node
    crashed."""
    doc = {"resilience": resilience}
    if any(record.arrival_s for record in records):
        doc["deadlines"] = deadline_stats(records, failed_jobs)
    if resilience["crashes"]:
        doc["retries"] = retry_stats(records)
    return doc


def cluster_summary(
    nodes: list[ProverNode],
    records: list[JobRecord],
    *,
    policy: str,
    time_model: str,
    failed_jobs: list,
    resilience: dict,
    carbon: dict | None = None,
) -> dict:
    """One summary dict over a finished cluster run."""
    # utilization divides by the unrounded makespan
    makespan = max((r.finish_s for r in records), default=0.0)
    busy = [node.busy_s for node in nodes]
    doc = {
        "policy": policy,
        "time_model": time_model,
        "nodes": len(nodes),
        "jobs": len(records),
        "model": {
            **records_summary(records),
            "busy_s": {n.node_id: round(n.busy_s, 6) for n in nodes},
            "utilization": {
                node.node_id: (
                    round(node.busy_s / makespan, 4) if makespan > 0 else 0.0
                )
                for node in nodes
            },
            "load_imbalance": round(load_imbalance(busy), 4),
            **install_split(records),
        },
        "cache": {
            "sim": _aggregate_stats([node.sim_cache.stats for node in nodes]),
        },
        "routing": {
            "jobs_per_node": {n.node_id: n.jobs_done for n in nodes},
            "shapes_per_node": {n.node_id: len(n.shapes_seen) for n in nodes},
            "shape_spread": round(shape_spread(nodes), 4),
        },
    }
    doc.update(run_blocks(records, failed_jobs, resilience))
    if carbon is not None:
        doc["carbon"] = carbon
    return doc
