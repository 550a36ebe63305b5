"""Failure injection demo: churn, retries, and the autoscaler at work.

Replays one zipf-mixed request stream over a 4-node simulated proving
fleet three ways:

1. **calm** — no failures (the PR-4 baseline);
2. **churned, no retries** — ~20% node downtime with a zero retry
   budget: jobs lost to a crash are dropped, and every dropped realtime
   job is a deadline miss;
3. **churned, with retries** — the same crash trace, but lost jobs are
   requeued (excluding the node that lost them, via the consistent-hash
   ring) and an autoscaler grows the fleet when the plan-predicted
   backlog per node spikes.

Everything runs in model time on the ``repro.sim`` discrete-event
engine — same seed, same churn trace, bit-deterministic — so the demo
finishes in about a second.

Run:  python examples/failure_injection.py

(The same knobs are scriptable via ``repro-cluster --churn-rate 0.2
--max-retries 3 --autoscale``; see DESIGN.md §8.)
"""

from repro.cluster import AutoscalePolicy
from repro.fleet.scenario import Scenario, run

SCENARIO = "zipf-mixed"
NODES = 4
JOBS = 96
SEED = 1
CHURN_SEED = 101
DOWNTIME_FRACTION = 0.2
MTTR_S = 2.0


def run_variant(*, churn: bool, max_retries: int, autoscale: bool) -> dict:
    # same seed => identical job stream (and churn trace) for every variant
    policy = None
    if autoscale:
        policy = AutoscalePolicy(
            scale_out_threshold_s=0.5,
            scale_in_threshold_s=0.05,
            interval_s=0.25,
            min_nodes=1,
            max_nodes=8,
            provision_s=0.25,
        )
    cell = Scenario(
        SCENARIO,
        JOBS,
        SEED,
        nodes=NODES,
        time_model="accelerator",
        max_retries=max_retries,
        respect_arrivals=True,  # every variant replays arrival times
        churn_rate=DOWNTIME_FRACTION if churn else 0.0,
        churn_mttr=MTTR_S,
        churn_seed=CHURN_SEED,
        autoscale=policy,
    )
    return run(cell).summary


def main() -> None:
    variants = {
        "calm": run_variant(churn=False, max_retries=0, autoscale=False),
        "churn, no retry": run_variant(
            churn=True, max_retries=0, autoscale=False
        ),
        "churn + retry + autoscale": run_variant(
            churn=True, max_retries=3, autoscale=True
        ),
    }
    print(
        f"{SCENARIO} x{JOBS} jobs, {NODES} accelerator nodes, "
        f"{DOWNTIME_FRACTION:.0%} target node downtime\n"
    )
    header = (
        f"{'variant':<26} {'done':>5} {'failed':>6} {'miss%':>6} "
        f"{'retries':>7} {'crashes':>7} {'p95':>8} {'scale+':>6}"
    )
    print(header)
    print("-" * len(header))
    for name, summary in variants.items():
        deadlines = summary.get("deadlines", {})
        resilience = summary["resilience"]  # every run has one
        print(
            f"{name:<26} {summary['jobs']:>5} "
            f"{resilience['failed_jobs']:>6} "
            f"{deadlines.get('miss_rate', 0.0) * 100:>5.1f}% "
            f"{resilience['retries']:>7} "
            f"{resilience['crashes']:>7} "
            f"{summary['model']['latency_s']['p95']:>7.3f}s "
            f"{resilience['autoscale']['scale_outs']:>6}"
        )
    dropped = variants["churn, no retry"]["resilience"]["failed_jobs"]
    print(
        f"\nsame crash trace both times: without retries {dropped} jobs "
        "are simply lost; with retries every job is delivered and the "
        "ring-excluded requeue keeps the loss off the failed node."
    )


if __name__ == "__main__":
    main()
