"""Workload ``sim_openloop_5e3``: the cluster simulator, no proving at all.

A 4-node ``least_loaded`` cluster on the accelerator time model under a
multi-tenant open-loop ``zipf-mixed`` stream at ~6x overload, with
admission control, a 10%-downtime churn trace and passive carbon
pricing.  ``sim`` / ``cluster`` / ``traffic`` / ``plan`` / ``carbon`` do
all the work and the crypto stack none.  One operation is one whole
simulated run; work is counted in host events fired.  A change meant to
speed the simulator up must leave every simulated statistic identical.
"""

from __future__ import annotations

import hashlib
import json
import time

from repro.carbon import CarbonConfig, CarbonIntensityTrace
from repro.cluster import ClusterConfig, NodeConfig, ProvingCluster
from repro.cluster.admission import AdmissionPolicy
from repro.cluster.timemodel import FleetTimeModel
from repro.sim import Simulator
from repro.traffic import (
    OpenLoopEngine,
    OpenLoopTraffic,
    make_admission,
    traffic_summary,
)
from repro.workloads import trace_for_downtime

from e2ebench.measure import Op, Workload, run_ops
from e2ebench.trace import Spans, layer_partition, probe_s

SCENARIO = "zipf-mixed"
RATE_RPS = 40.0
NODES = 4
ADMISSION_WINDOW_S = 10.0
DOWNTIME_FRACTION = 0.1
#: crash-retry budget per job.  The default of 2 lets the model fail a
#: job on about one seed in fifty (three crashes under it), and a failed
#: operation fails the run; no churn trace exhausts this one, and a run
#: in which no job crashes three times is the same under either budget
MAX_RETRIES = 64
#: events in the bare sim-core probe
CORE_EVENTS = 200_000


def digest(summary: dict) -> str:
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()


class SimOpenLoop(Workload):
    name = "sim_openloop_5e3"
    work_unit = "host events"

    def __init__(self, seed: int, *, toy: bool = False):
        super().__init__(seed, toy=toy)
        self.jobs = 2_000 if toy else 5_000

    def setup(self, spans: Spans | None = None) -> None:
        self.churn = trace_for_downtime(
            NODES,
            self.jobs / RATE_RPS,
            downtime_fraction=DOWNTIME_FRACTION,
            seed=self.seed,
        )

    def _traffic(self) -> OpenLoopTraffic:
        return OpenLoopTraffic(
            SCENARIO, seed=self.seed, max_jobs=self.jobs, rate_rps=RATE_RPS
        )

    def run_once(self, *, carbon: bool = True) -> dict:
        """One whole run on fresh objects; its timings and summaries."""
        started = time.perf_counter()
        traffic = self._traffic()
        config = ClusterConfig(
            num_nodes=NODES,
            policy="least_loaded",
            node=NodeConfig(max_vars=traffic.max_vars()),
            max_retries=MAX_RETRIES,
            carbon=(
                CarbonConfig(CarbonIntensityTrace(seed=self.seed), policy="none")
                if carbon
                else None
            ),
        )
        with ProvingCluster(config) as cluster:
            admission = make_admission(
                cluster, AdmissionPolicy(window_s=ADMISSION_WINDOW_S), traffic.tenants
            )
            engine = OpenLoopEngine(cluster, traffic, admission=admission)
            engine.run_open_loop(churn=self.churn)
            run_s = time.perf_counter() - started
            summary = traffic_summary(engine)
            return {
                "run_s": run_s,
                "summary_s": time.perf_counter() - started - run_s,
                "events": engine.sim.fired,
                "summary": summary,
                "resilience": engine.stats.as_dict(),
            }

    def op(self, i: int) -> Op:
        run = self.run_once()
        return Op(run["run_s"], run["events"], run)

    def check(self, ops: list[Op]) -> tuple[int, int]:
        """Every offered job is shed, completed or failed; a job the
        model fails counts as failed; every repetition must replay the
        first one exactly."""
        attempted = failed = 0
        first = digest(ops[0].output["summary"])
        for op in ops:
            summary = op.output["summary"]
            attempted += summary["offered"]
            failed += summary["failed"]
            accounted = summary["shed"] + summary["completed"] + summary["failed"]
            if summary["offered"] != accounted or digest(summary) != first:
                failed += summary["offered"]
        return attempted, failed

    # -- traced run --------------------------------------------------------
    def traced(self, spans: Spans, seconds: float) -> tuple[dict, list[Op]]:
        ops = run_ops(spans.traced("cluster.run_open_loop", self.op), seconds)
        run = ops[-1].output
        summary, model = run["summary"], run["summary"]["model"]
        run_s = min(op.wall_s for op in ops)
        generate_s = probe_s(lambda: sum(1 for _ in self._traffic().jobs()), 3)

        priced = {k: v for k, v in summary.items() if k != "carbon"}
        unpriced = [self.run_once(carbon=False) for _ in range(3)]
        if any(digest(run["summary"]) != digest(priced) for run in unpriced):
            raise AssertionError("passive carbon pricing changed the simulation")
        off_s = min(run["run_s"] for run in unpriced)

        # the model the router prices every routed job with
        cost_model = FleetTimeModel.accelerator().prove_model
        cost_model.shape_cost_s("vanilla", 4)
        calls = 10_000
        cost_s = probe_s(
            lambda: [cost_model.shape_cost_s("vanilla", 4) for _ in range(calls)]
        )
        metrics = {
            "sim.events_fired": run["events"],
            "sim.core_events_per_s": CORE_EVENTS / probe_s(bare_chains, 3),
            "traffic.generate_s": generate_s,
            "traffic.summary_s": min(op.output["summary_s"] for op in ops),
            "cluster.engine_self_s": run_s - generate_s,
            "cluster.host_us_per_event": 1e6 * run_s / run["events"],
            "cluster.shed_rate": summary["shed_rate"],
            "cluster.crashes": run["resilience"]["crashes"],
            "cluster.retries": run["resilience"]["retries"],
            "cluster.requeues": run["resilience"]["requeues"],
            "cluster.model_latency_p99_s": model["latency_s"]["p99"],
            "cluster.slo_attainment": model["slo_attainment"],
            "cluster.jain_fairness": summary["jain_fairness"],
            "cluster.goodput_jobs_per_s": model["goodput_jobs_per_s"],
            "carbon.energy_j": summary["carbon"]["energy_j"],
            "carbon.carbon_per_proof_g": summary["carbon"]["carbon_per_proof_g"],
            "carbon.off_events_per_s": unpriced[0]["events"] / off_s,
            "workloads.churn_events": len(self.churn),
            "plan.shape_cost_call_us": 1e6 * cost_s / calls,
        }
        metrics.update(layer_partition(self.run_once))
        return metrics, ops


def bare_chains() -> None:
    """The sim core alone: self-rescheduling ``schedule_fast`` chains."""
    sim = Simulator()
    chains = 8
    left = [CORE_EVENTS // chains] * chains

    def step(chain: int) -> None:
        left[chain] -= 1
        if left[chain]:
            sim.schedule_fast(sim.now + 1.0 + chain * 0.125, actions[chain])

    actions = [lambda chain=chain: step(chain) for chain in range(chains)]
    for chain in range(chains):
        sim.schedule_fast(float(chain), actions[chain])
    sim.run()
