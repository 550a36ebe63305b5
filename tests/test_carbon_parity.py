"""Carbon pricing without a policy is arithmetically invisible.

With ``policy="none"`` and no power cap the :class:`CarbonRuntime` is
*passive*: it installs its joule/gram pricing observer and never the
start gate.  These tests pin the construction-level consequence
— a carbon-enabled-but-capless run is **bit-identical** (records, event
log, and summary minus the ``carbon`` block) to a carbon-free run of
the same seeded stream, across the failure-free, churn, and autoscale
paths — plus the ROADMAP item 5 schema fix: the event log carries the
``autoscale_decision`` / ``scheduler_choice`` / ``job_suspend`` /
``job_resume`` / ``power_cap`` kinds and still round-trips and replays
bit-identically through JSONL.

:class:`TestOpenLoopGolden` pins the open-loop path the e2e benchmark's
``sim_openloop_5e3`` workload drives (admission, churn, retries, passive
pricing) to digests (``openloop/`` in ``tests/goldens.json``)
**recorded on the commit before the per-event tabulations and the start
gate landed** (PR 21): a change to the simulator's speed must not move
one of them.
"""

import pytest
from goldens import OPEN_LOOP, pinned, run_open_loop, sha256, summary_text

from repro.carbon import CarbonConfig, CarbonIntensityTrace
from repro.cluster import ClusterConfig, NodeConfig, ProvingCluster
from repro.cluster.autoscale import AutoscalePolicy
from repro.service.jobs import RequestClass
from repro.traffic import OpenLoopTraffic
from repro.sim.events import EVENT_KINDS, EventLog
from repro.workloads import trace_for_downtime

SCENARIO = "zipf-mixed"
SEED = 7
JOBS = 40


def passive_carbon() -> CarbonConfig:
    return CarbonConfig(
        trace=CarbonIntensityTrace(amplitude=0.6, noise=0.1, seed=SEED),
        policy="none",
    )


def make_config(*, carbon: bool, **kwargs) -> ClusterConfig:
    return ClusterConfig(
        num_nodes=3,
        time_model="functional",
        node=NodeConfig(max_vars=6),
        carbon=passive_carbon() if carbon else None,
        **kwargs,
    )


def run_cell(config: ClusterConfig, *, churn=()) -> tuple:
    jobs = list(OpenLoopTraffic(SCENARIO, seed=SEED, max_jobs=JOBS).jobs())
    with ProvingCluster(config) as cluster:
        records = cluster.run(jobs, churn=churn)
        return records, cluster.events.events, cluster.summary()


class TestCaplessParity:
    def test_scenario_run_bit_identical(self):
        free_records, free_events, free_summary = run_cell(
            make_config(carbon=False)
        )
        records, events, summary = run_cell(make_config(carbon=True))
        assert records == free_records
        assert EventLog.replay_identical(events, free_events)
        carbon = summary.pop("carbon")
        assert summary == free_summary
        # ...and the pricing really ran on the identical schedule
        assert carbon["policy"] == "none"
        assert carbon["energy_j"] > 0.0
        assert carbon["carbon_g"] > 0.0

    def test_churn_path_bit_identical(self):
        """Crash accounting (lost segments) must not perturb the retry
        schedule either."""
        churn = trace_for_downtime(
            3, 20.0, downtime_fraction=0.2, mttr_s=1.0, seed=SEED
        )
        free = run_cell(make_config(carbon=False), churn=churn)
        priced = run_cell(make_config(carbon=True), churn=churn)
        assert priced[0] == free[0]
        assert EventLog.replay_identical(priced[1], free[1])
        summary = dict(priced[2])
        carbon = summary.pop("carbon")
        assert summary == free[2]
        # lost joules track lost model seconds exactly: both zero when
        # every crash hit an idle node, both positive otherwise
        lost_s = summary["resilience"]["lost_model_s"]
        assert (carbon["energy_lost_j"] > 0.0) == (lost_s > 0.0)

    def test_closed_drain_bit_identical(self):
        jobs = list(OpenLoopTraffic(SCENARIO, seed=SEED, max_jobs=JOBS).jobs())
        with ProvingCluster(make_config(carbon=False)) as cluster:
            free_records = cluster.run(jobs)
            free_events = cluster.events.events
        jobs = list(OpenLoopTraffic(SCENARIO, seed=SEED, max_jobs=JOBS).jobs())
        with ProvingCluster(make_config(carbon=True)) as cluster:
            records = cluster.run(jobs)
            events = cluster.events.events
            assert cluster.summary()["carbon"]["carbon_g"] > 0.0
        assert records == free_records
        assert EventLog.replay_identical(events, free_events)


#: seed -> the resilience counters of the recorded priced run
OPEN_LOOP_RESILIENCE = {
    0: {
        "crashes": 7,
        "recoveries": 7,
        "retries": 6,
        "requeues": 138,
        "parked": 0,
        "exclusion_waivers": 0,
        "failed_jobs": 0,
        "lost_model_s": 1.562255,
    },
    7: {
        "crashes": 5,
        "recoveries": 5,
        "retries": 5,
        "requeues": 180,
        "parked": 0,
        "exclusion_waivers": 0,
        "failed_jobs": 0,
        "lost_model_s": 1.218798,
    },
}

NO_AUTOSCALE = {"scale_outs": 0, "scale_ins": 0, "actions": []}


class TestOpenLoopGolden:
    @pytest.mark.parametrize("seed", sorted(OPEN_LOOP))
    def test_priced_run_reproduces_the_recorded_digests(self, seed):
        priced = run_open_loop(seed, carbon=True)
        assert priced["resilience"] == {
            **OPEN_LOOP_RESILIENCE[seed],
            "autoscale": NO_AUTOSCALE,
        }
        assert sha256(priced["events"]) == pinned(f"{OPEN_LOOP[seed]}/events")
        assert sha256(summary_text(priced["summary"])) == pinned(
            f"{OPEN_LOOP[seed]}/summary"
        )
        # ...and pricing is invisible on this path too: the carbon-free
        # run has the same records and the same log, line for line
        free = run_open_loop(seed, carbon=False)
        assert free["records"] == priced["records"]
        assert free["events"] == priced["events"]
        summary = dict(priced["summary"])
        assert summary.pop("carbon")["energy_j"] > 0.0
        assert summary == free["summary"]


class TestEventSchemaRoundTrip:
    def test_new_kinds_registered(self):
        for kind in (
            "autoscale_decision",
            "scheduler_choice",
            "job_suspend",
            "job_resume",
            "power_cap",
        ):
            assert kind in EVENT_KINDS

    def test_autoscale_log_replays_bit_identically(self):
        """An autoscale + churn run emits ``autoscale_decision`` lines
        and the whole log survives a JSONL round trip."""
        config = make_config(
            carbon=False,
            autoscale=AutoscalePolicy(
                scale_out_threshold_s=0.4,
                scale_in_threshold_s=0.05,
                interval_s=0.5,
                min_nodes=1,
                max_nodes=6,
                provision_s=0.2,
            ),
        )
        jobs = list(OpenLoopTraffic(SCENARIO, seed=SEED, max_jobs=60).jobs())
        with ProvingCluster(config) as cluster:
            cluster.run(jobs)
            events = cluster.events
        kinds = events.kinds()
        assert kinds.get("autoscale_decision", 0) > 0
        reloaded = EventLog.loads(events.to_jsonl())
        assert EventLog.replay_identical(events, reloaded)

    def test_carbon_log_replays_bit_identically(self):
        """The suspend/resume/cap kinds also survive the round trip."""
        jobs = list(OpenLoopTraffic("uniform-small", seed=1, max_jobs=6).jobs())
        for index, job in enumerate(jobs):
            job.deadline_s = None
            if index % 2 == 0:
                job.request_class = RequestClass.DEFERRABLE
        config = ClusterConfig(
            num_nodes=2,
            time_model="functional",
            node=NodeConfig(max_vars=6),
            carbon=CarbonConfig(
                trace=CarbonIntensityTrace(noise=0.0, seed=SEED),
                policy="carbon_waiting",
                power_cap_w=400.0,
                low_threshold_g_per_kwh=200.0,
            ),
        )
        with ProvingCluster(config) as cluster:
            records = cluster.run(jobs)
            events = cluster.events
        assert len(records) + len(cluster.failed_jobs) == 6
        assert events.kinds().get("scheduler_choice", 0) > 0
        reloaded = EventLog.loads(events.to_jsonl())
        assert EventLog.replay_identical(events, reloaded)
