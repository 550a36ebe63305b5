"""A 10⁵-job carbon sweep (slow; gated behind ``RUN_SLOW_CARBON=1``).

Scale check for the carbon stack: one hundred thousand open-loop jobs
priced against a diurnal trace, carbon-blind vs carbon-aware at the
same seed.  Guards the invariants that matter at volume — conservation
(every offered job sheds, completes, or fails), gram accounting that
stays finite and positive, and the aware policy never pricing *worse*
than blind — without pinning the headline ratio (that is
``BENCH_carbon.json``'s job at a calibrated size).

Marked ``slow`` *and* env-gated: the tier-1 suite runs other slow
tests, so the marker alone would not keep a multi-minute sweep (~3 min
wall) out of the default run.
"""

import os
from itertools import islice

import pytest

from repro.carbon import CarbonConfig, CarbonIntensityTrace
from repro.cluster import ClusterConfig, NodeConfig, ProvingCluster
from repro.service.jobs import RequestClass
from repro.traffic import SLO_TIERS, OpenLoopTraffic, SLOTier, TenantSpec

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(
        os.environ.get("RUN_SLOW_CARBON") != "1",
        reason="set RUN_SLOW_CARBON=1 to run the 10^5-job carbon sweep",
    ),
]

SWEEP_JOBS = 100_000


def make_jobs() -> list:
    tenants = [
        TenantSpec(
            "gold-rt", weight=0.3, tier=SLO_TIERS["gold"], quota_fraction=1.0
        ),
        TenantSpec(
            "bronze-batch",
            weight=0.7,
            tier=SLOTier(
                # tight-ish slack bounds the held backlog (and so the
                # per-kick queue scans) at this volume
                name="batch",
                deadline_slack_s=30.0,
                admission_factor=0.7,
                request_class=RequestClass.DEFERRABLE,
            ),
            quota_fraction=1.0,
        ),
    ]
    traffic = OpenLoopTraffic(
        "uniform-small",
        seed=11,
        tenants=tenants,
        rate_rps=40.0,
        max_jobs=SWEEP_JOBS,
        burst_mult=1.0,
    )
    return list(islice(traffic.jobs(), SWEEP_JOBS))


def run_cell(policy: str, threshold: float | None) -> dict:
    config = ClusterConfig(
        num_nodes=4,
        time_model="accelerator",
        node=NodeConfig(max_vars=6),
        carbon=CarbonConfig(
            trace=CarbonIntensityTrace(
                amplitude=0.8, noise=0.05, seed=7
            ),
            policy=policy,
            low_threshold_g_per_kwh=threshold,
        ),
    )
    with ProvingCluster(config) as cluster:
        records = cluster.run(make_jobs())
        summary = cluster.summary()
        return {
            "completed": len(records),
            "failed": len(cluster.failed_jobs),
            "carbon": summary["carbon"],
        }


def test_hundred_thousand_job_sweep():
    blind = run_cell("none", None)
    aware = run_cell("carbon_waiting", 250.0)
    for cell in (blind, aware):
        assert cell["completed"] + cell["failed"] == SWEEP_JOBS
        assert cell["failed"] == 0
        carbon = cell["carbon"]
        assert carbon["energy_j"] > 0.0
        assert 0.0 < carbon["carbon_g"] < float("inf")
        assert carbon["carbon_per_proof_g"] > 0.0
    assert (
        aware["carbon"]["carbon_per_proof_g"]
        <= blind["carbon"]["carbon_per_proof_g"] * 1.001
    ), "carbon_waiting must never price worse than carbon-blind"
