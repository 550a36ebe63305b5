"""Service-side measurement: throughput, latency tails, utilization.

:class:`ServiceMetrics` keeps one :class:`JobRow` per
:class:`~repro.service.jobs.ProofResult` — its numbers, never its proof
or counter, so a long-lived service holds no proof its caller dropped —
and renders one summary dict per run: proofs/sec, the latency
tail (:func:`latency_tail`, p50 through max), cache hit rate (both
per-lookup, from the cache's own stats, and per-job, from result
records — the two differ because a batch of *n* jobs performs one
lookup), per-worker utilization, and aggregate
:class:`~repro.fields.counters.OpCounter` tallies when collection is on.

When the service runs with a cost model, results carry a
``predicted_s`` and the summary gains a ``prediction`` section — how far
the plan-derived predictions land from measured prove times (mean
absolute percentage error, total predicted vs actual seconds) — plus
``estimated_capacity_proofs_per_s``: the steady-state throughput the
worker pool could sustain on this job mix, from both the predicted and
the measured mean cost per proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

from repro.fields.counters import OpCounter
from repro.service.cache import CacheStats
from repro.service.jobs import ProofResult, RequestClass


def _interp_sorted(xs: list[float], q: float) -> float:
    """Linear-interpolation percentile over an already-sorted list."""
    if not xs:
        return 0.0
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    return xs[lo] + (xs[hi] - xs[lo]) * frac


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    return _interp_sorted(sorted(values), q)


#: every latency key a summary can report, in report order
FULL_TAIL = ("p50", "p95", "p99", "p99_9", "max")

_QUANTILE = {"p50": 50, "p95": 95, "p99": 99, "p99_9": 99.9}


def latency_tail(values: list[float], keys: tuple[str, ...] = FULL_TAIL) -> dict:
    """The ``latency_s`` block of a summary: each of ``keys``, rounded
    to 6 places, from one sort of ``values``.

    ``max`` is the sample maximum (0.0 for an empty sample); the other
    keys are :func:`percentile` at 50, 95, 99 and 99.9.  Sorting once
    matters: at 10⁵+ samples a sort per quantile dominates the
    summary's cost.
    """
    xs = sorted(values)
    top = xs[-1] if xs else 0.0
    return {
        key: round(top if key == "max" else _interp_sorted(xs, _QUANTILE[key]), 6)
        for key in keys
    }


@dataclass
class WorkerStats:
    worker_id: str
    jobs: int = 0
    busy_s: float = 0.0


class JobRow(NamedTuple):
    """The numbers of one :class:`ProofResult` a summary reads."""

    request_class: RequestClass
    cache_hit: bool
    latency_s: float
    queue_s: float
    prove_s: float
    predicted_s: float | None


@dataclass
class ServiceMetrics:
    rows: list[JobRow] = dc_field(default_factory=list)
    batches: int = 0
    drains: int = 0
    ops: OpCounter = dc_field(default_factory=OpCounter)
    _workers: dict[str, WorkerStats] = dc_field(default_factory=dict)

    def record_result(self, result: ProofResult) -> None:
        self.rows.append(JobRow(
            result.request_class, result.cache_hit, result.latency_s,
            result.queue_s, result.prove_s, result.predicted_s,
        ))
        w = self._workers.setdefault(result.worker_id,
                                     WorkerStats(result.worker_id))
        w.jobs += 1
        w.busy_s += result.prove_s
        if result.counter is not None:
            self.ops += result.counter

    def record_drain(self, num_batches: int) -> None:
        self.drains += 1
        self.batches += num_batches

    # -- derived -----------------------------------------------------------
    @property
    def jobs_done(self) -> int:
        return len(self.rows)

    def latencies(self) -> list[float]:
        return [r.latency_s for r in self.rows]

    def job_cache_hit_rate(self) -> float:
        """Fraction of jobs whose batch's index lookup hit the cache."""
        if not self.rows:
            return 0.0
        return sum(r.cache_hit for r in self.rows) / len(self.rows)

    def prediction_error(self) -> dict | None:
        """Predicted-vs-actual prove-time accuracy (None = no predictions)."""
        pairs = [(r.predicted_s, r.prove_s) for r in self.rows
                 if r.predicted_s is not None]
        if not pairs:
            return None
        predicted_total = sum(p for p, _ in pairs)
        actual_total = sum(a for _, a in pairs)
        abs_pct = [abs(p - a) / a * 100.0 for p, a in pairs if a > 0]
        return {
            "jobs": len(pairs),
            "predicted_total_s": round(predicted_total, 6),
            "actual_total_s": round(actual_total, 6),
            "mean_abs_error_pct": (
                round(sum(abs_pct) / len(abs_pct), 2) if abs_pct else 0.0
            ),
        }

    def estimated_capacity(self, num_workers: int) -> dict:
        """Steady-state proofs/sec ``num_workers`` could sustain on this
        job mix: workers divided by the mean seconds per proof."""
        prove = [r.prove_s for r in self.rows if r.prove_s > 0]
        predicted = [r.predicted_s for r in self.rows
                     if r.predicted_s is not None and r.predicted_s > 0]
        out = {}
        if prove:
            out["actual"] = round(num_workers * len(prove) / sum(prove), 3)
        if predicted:
            out["predicted"] = round(
                num_workers * len(predicted) / sum(predicted), 3)
        return out

    def summary(self, wall_s: float,
                cache_stats: CacheStats | None = None,
                num_workers: int = 1) -> dict:
        queue = [r.queue_s for r in self.rows]
        prove = [r.prove_s for r in self.rows]
        by_class = {
            cls.value: sum(1 for r in self.rows if r.request_class is cls)
            for cls in RequestClass
        }
        doc = {
            "jobs": self.jobs_done,
            "batches": self.batches,
            "drains": self.drains,
            "by_class": by_class,
            "wall_s": round(wall_s, 6),
            "throughput_proofs_per_s": (
                round(self.jobs_done / wall_s, 3) if wall_s > 0 else 0.0
            ),
            "latency_s": latency_tail(self.latencies()),
            "queue_s_p50": round(percentile(queue, 50), 6),
            "prove_s_p50": round(percentile(prove, 50), 6),
            "job_cache_hit_rate": round(self.job_cache_hit_rate(), 4),
            "workers": [
                {
                    "worker_id": w.worker_id,
                    "jobs": w.jobs,
                    "busy_s": round(w.busy_s, 6),
                    "utilization": (
                        round(w.busy_s / wall_s, 4) if wall_s > 0 else 0.0
                    ),
                }
                for w in sorted(self._workers.values(),
                                key=lambda w: w.worker_id)
            ],
        }
        prediction = self.prediction_error()
        if prediction is not None:
            doc["prediction"] = prediction
            doc["estimated_capacity_proofs_per_s"] = (
                self.estimated_capacity(num_workers))
        if cache_stats is not None:
            doc["cache"] = cache_stats.as_dict()
        if self.ops.mul or self.ops.add or self.ops.inv:
            doc["ops"] = {
                "mul": self.ops.mul,
                "add": self.ops.add,
                "inv": self.ops.inv,
                "ee_mul": self.ops.ee_mul,
                "pl_mul": self.ops.pl_mul,
            }
        return doc
