"""Workload ``paper_model``: regenerate the paper's tables and figures.

All 17 ``repro.experiments`` modules on the fast grid: the ``hw``
analytical model's headline numbers against the paper's, and the host
cost of regenerating them.  No prover, simulator or service code runs,
so it is the bypass workload for every change to those.  One operation
is one pass over all experiments; the seed only shuffles their order
(the model itself takes no random input).
"""

from __future__ import annotations

import importlib
import math
import random
import time

from repro.experiments import ALL_EXPERIMENTS

from e2ebench.measure import Op, Workload, run_ops
from e2ebench.trace import Spans, layer_partition

TOY_EXPERIMENTS = ("table02", "table05", "table07", "table08")
#: the four experiments that are ~95% of a pass
TIMED = ("fig06", "fig10", "table04", "fig11")
#: (experiment, summary key) -> the paper's published value
PAPER_HEADLINES = {
    ("table07", "geomean speedup"): 1486.0,
    ("table08", "geomean speedup"): 11.87,
}


class PaperModel(Workload):
    name = "paper_model"
    work_unit = "experiments"

    def __init__(self, seed: int, *, toy: bool = False):
        super().__init__(seed, toy=toy)
        self.order = list(TOY_EXPERIMENTS if toy else ALL_EXPERIMENTS)
        random.Random(seed).shuffle(self.order)

    def setup(self, spans: Spans | None = None) -> None:
        self.modules = {
            name: importlib.import_module(f"repro.experiments.{name}")
            for name in self.order
        }

    def warmup(self) -> None:
        """The four cheap headline tables only: a whole untimed pass
        costs as much as a timed one, and the first whole pass measures
        no slower than the later ones (3.12 / 3.18 / 3.28 s)."""
        for name in TOY_EXPERIMENTS:
            self.modules[name].run(fast=True)

    def _pass(self, spans: Spans) -> dict:
        summaries = {}
        for name in self.order:
            with spans.span(f"experiments.{name}"):
                summaries[name] = self.modules[name].run(fast=True).summary
        return summaries

    def op(self, i: int) -> Op:
        summaries, parts = {}, {}
        started = time.perf_counter()
        for name in self.order:
            experiment_started = time.perf_counter()
            summaries[name] = self.modules[name].run(fast=True).summary
            parts[name] = time.perf_counter() - experiment_started
        wall = time.perf_counter() - started
        return Op(wall, len(summaries), summaries, parts)

    def check(self, ops: list[Op]) -> tuple[int, int]:
        """Every pass must repeat the first, and every headline number
        must be finite."""
        first = ops[0].output
        failed = sum(
            not math.isfinite(value)
            for summary in first.values()
            for value in summary.values()
            if isinstance(value, float)
        )
        for op in ops[1:]:
            failed += sum(op.output[name] != first[name] for name in first)
        return len(first) * len(ops), failed

    # -- traced run --------------------------------------------------------
    def traced(self, spans: Spans, seconds: float) -> tuple[dict, list[Op]]:
        def traced_op(i: int) -> Op:
            with spans.span("experiments.pass") as root:
                summaries = self._pass(spans)
            return Op(spans.duration(root), len(summaries), summaries)

        ops = run_ops(traced_op, seconds)
        summaries = ops[0].output
        metrics = {
            f"experiments.{name}_s": spans.fastest(f"experiments.{name}")
            for name in TIMED
            if name in summaries
        }
        errors = [
            abs(summaries[name][key] / paper - 1.0)
            for (name, key), paper in PAPER_HEADLINES.items()
        ]
        metrics.update(
            {
                "hw.jellyfish_geomean_x": summaries["table07"]["geomean speedup"],
                "hw.isoapp_geomean_x": summaries["table08"]["geomean speedup"],
                "hw.table2_geomean_vs_cpu_x": summaries["table02"]["geomean vs CPU"],
                "hw.area_delta_pct": summaries["table05"]["area delta %"],
                "hw.power_delta_pct": summaries["table05"]["power delta %"],
                "hw.headline_err_pct": 100.0 * sum(errors) / len(errors),
            }
        )
        metrics.update(layer_partition(lambda: self.op(0)))
        return metrics, ops
