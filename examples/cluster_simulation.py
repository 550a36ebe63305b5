"""Cluster simulation demo: why fingerprint affinity wins at fleet scale.

Replays one zipf-mixed request stream over a 4-node simulated proving
fleet under all three routing policies and prints the head-to-head:
round-robin re-installs every circuit index on every node (high shape
spread, low cache hit rate), while consistent hashing on the circuit
fingerprint pins each structure to one node and throughput keeps
scaling.  Everything runs in model time — no real proving — so the demo
finishes in well under a second.

Run:  python examples/cluster_simulation.py

(The same sweep is scriptable via ``python -m repro.cluster`` /
``repro-cluster``; ``run(cell, runtime="fleet")`` / ``repro-fleet``
proves the same cell on real worker processes and measures the hit
rates printed here; see DESIGN.md §7 and §10.)
"""

from repro.cluster import ROUTING_POLICIES
from repro.fleet.scenario import Scenario, run

SCENARIO = "zipf-mixed"
NODES = 4
JOBS = 96


def run_policy(policy: str) -> dict:
    # same seed => identical job stream for every policy
    cell = Scenario(SCENARIO, JOBS, seed=0, nodes=NODES, policy=policy)
    return run(cell).summary


def main() -> None:
    print(f"{SCENARIO} x{JOBS} jobs on {NODES} simulated accelerator nodes\n")
    print(
        f"{'policy':<13} {'jobs/s':>8} {'hit-rate':>9} "
        f"{'shape-spread':>13} {'imbalance':>10}"
    )
    rows = {}
    for policy in ROUTING_POLICIES:
        summary = run_policy(policy)
        rows[policy] = summary
        cache = summary["cache"]["sim"]
        print(
            f"{policy:<13} "
            f"{summary['model']['throughput_jobs_per_s']:>8.2f} "
            f"{cache['hit_rate']:>9.2f} "
            f"{summary['routing']['shape_spread']:>13.2f} "
            f"{summary['model']['load_imbalance']:>10.2f}"
        )
    affinity = rows["affinity"]["model"]["throughput_jobs_per_s"]
    baseline = rows["round_robin"]["model"]["throughput_jobs_per_s"]
    print(
        f"\naffinity vs round_robin: {affinity / baseline:.2f}x — "
        "same jobs, same nodes; only the placement of circuit "
        "fingerprints changed."
    )


if __name__ == "__main__":
    main()
