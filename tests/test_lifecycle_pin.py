"""Byte-level pins of the closed-batch failure-aware scenario path.

:meth:`ProvingCluster.run_scenario` under churn *and* an autoscaler runs
every branch of the job lifecycle: routing on arrival, parking with the
whole fleet down, exclusion waivers, requeues off a crashed node,
retries, failures on an exhausted retry budget, and scale-out/scale-in
action records.  These digests of ``summary()`` and the JSONL event log
were recorded before the lifecycle was shared between the simulated
cluster and the real fleet; a refactor of that machinery must not move
one of them.  The coverage asserts keep the pins honest: each names a
branch the recorded runs are known to reach.
"""

import hashlib
import json

import pytest

from repro.cluster import AutoscalePolicy, ClusterConfig, NodeConfig, ProvingCluster
from repro.service.traffic import TrafficGenerator
from repro.workloads import trace_for_downtime

SCENARIO = "zipf-mixed"
SEED = 1
JOBS = 120
NODES = 3
#: the churn horizon's slack past the last arrival, spelled out rather
#: than imported so a change to the shared default cannot move a digest
HORIZON_SLACK_S = 8.0

#: (policy, max_retries) -> sha256 of (summary JSON, event-log JSONL)
SCENARIO_GOLDEN = {
    ("round_robin", 2): (
        "81cbd49f54824abb486d3466fb90bae052ecbaeebebf2b52b318d723e6de141f",
        "c312e2fe9136d6067043a6ad0c60b35fa8bdbff87d64e455afa5eac98027d9ad",
    ),
    ("least_loaded", 2): (
        "058df56a3ab7b068a3f483fd88ea26bcf25f16e068dbebf1c52e56196f17a7e5",
        "2953a1ebd57c6c5da7ba0630b8aa4964f3f8b33f63f70c5f8a200a01b71ffada",
    ),
    ("affinity", 2): (
        "5f3bb796bc8ddf35006fc8c4059cbe33ce60a3c698fbbe12324f7b1dd9db640c",
        "53203d0950a27e01f49344dd1949be3248079656ff80b502fc311bd14d2065d8",
    ),
    ("least_loaded", 0): (
        "6736d3c17936b5ed1041233f8ea16076b09a7cf1cd5fe6310e4288d8a92016ed",
        "9cf23808087df211e44e93fb3f7e79fa93b20ec69ad96b80b578c5b78b3d73c8",
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cell(policy: str, max_retries: int) -> tuple[dict, str]:
    """One closed batch under 30% churn with an out-and-in autoscaler."""
    generator = TrafficGenerator(SCENARIO, seed=SEED)
    jobs = generator.jobs(JOBS)
    horizon = max(j.arrival_s for j in jobs) + HORIZON_SLACK_S
    churn = trace_for_downtime(
        NODES, horizon, downtime_fraction=0.3, mttr_s=2.0, seed=SEED + 100
    )
    config = ClusterConfig(
        num_nodes=NODES,
        policy=policy,
        time_model="functional",
        max_retries=max_retries,
        autoscale=AutoscalePolicy(
            scale_out_threshold_s=0.5,
            scale_in_threshold_s=0.05,
            interval_s=0.25,
            min_nodes=1,
            max_nodes=6,
            provision_s=0.25,
        ),
        node=NodeConfig(max_vars=generator.max_vars()),
    )
    with ProvingCluster(config) as cluster:
        cluster.run_scenario(jobs, churn=churn)
        return cluster.summary(), cluster.events.to_jsonl()


class TestScenarioGolden:
    @pytest.mark.parametrize(
        "cell", sorted(SCENARIO_GOLDEN), ids=lambda cell: f"{cell[0]}-{cell[1]}"
    )
    def test_summary_and_event_log_digests(self, cell):
        summary, jsonl = run_cell(*cell)
        assert (
            sha256(json.dumps(summary, sort_keys=True)),
            sha256(jsonl),
        ) == SCENARIO_GOLDEN[cell]
        resilience = summary["resilience"]
        assert resilience["autoscale"]["scale_outs"] > 0
        assert resilience["autoscale"]["scale_ins"] > 0
        assert resilience["crashes"] > 0
        assert resilience["requeues"] > 0
        assert resilience["parked"] > 0
        policy, max_retries = cell
        assert (resilience["exclusion_waivers"] > 0) == (policy != "least_loaded")
        if max_retries == 0:
            assert resilience["retries"] == 0
            assert resilience["failed_jobs"] > 0
