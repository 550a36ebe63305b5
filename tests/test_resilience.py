"""Failure-aware cluster contracts: determinism, retries, autoscaling.

ISSUE 5 satellite coverage:

* **retry determinism** — same seed + same churn trace ⇒ identical
  records and identical retry counts across runs, and on the real fleet
  crashes move work, never change it: retried proofs keep their bytes;
* **exclusion** — a job lost to a crash never returns to the node that
  lost it, and `HashRing` failover only diverts the failed node's keys;
* **failure accounting** — exhausted retries and stranded jobs are
  failed and counted as deadline misses;
* **autoscaling** — the plan-cost signal grows and shrinks the fleet
  within its configured bounds.
"""

import pytest
from goldens import canonical_text

from repro.cluster import (
    AutoscalePolicy,
    ClusterConfig,
    ClusterEngine,
    NodeConfig,
    NoRoutableNodeError,
    ProvingCluster,
)
from repro.fleet.core import FleetConfig, ProvingFleet
from repro.plan import FunctionalProverCostModel, OutstandingCost
from repro.service import ProvingService, ServiceConfig
from repro.service.jobs import RequestClass
from repro.service.traffic import synthesize_circuit
from repro.traffic import OpenLoopTraffic, SLOTier, TenantSpec
from repro.workloads import (
    CHURN_HORIZON_SLACK_S,
    ChurnEvent,
    churn_trace,
    trace_for_downtime,
)

#: crash both nodes mid-stream, recover them staggered: exercises
#: in-flight loss (retry), whole-fleet-down parking, and recovery
TWO_NODE_CHURN = (
    ChurnEvent(0.6, 0, "crash"),
    ChurnEvent(0.61, 1, "crash"),
    ChurnEvent(1.6, 0, "recover"),
    ChurnEvent(2.0, 1, "recover"),
)

#: one node down at a time: a peer is always up, so retry exclusion is
#: never waived and the strict never-return-to-loser guarantee holds.
#: node-1 first (affinity parks this stream's shapes there), then
#: node-0 while it is digesting the failed-over backlog
STAGGERED_CHURN = (
    ChurnEvent(0.6, 1, "crash"),
    ChurnEvent(1.2, 1, "recover"),
    ChurnEvent(1.35, 0, "crash"),
    ChurnEvent(2.0, 0, "recover"),
)


def make_cluster(**kwargs) -> ProvingCluster:
    defaults = dict(
        num_nodes=2,
        policy="affinity",
        time_model="functional",
        max_retries=3,
        node=NodeConfig(max_vars=4),
    )
    defaults.update(kwargs)
    return ProvingCluster(ClusterConfig(**defaults))


#: one tenant whose every job is realtime with a 1 s deadline, so the
#: whole-fleet outage below costs deadlines
REALTIME_1S = [
    TenantSpec(
        "realtime",
        weight=1.0,
        tier=SLOTier("realtime", 1.0, 1.0, RequestClass.REALTIME),
        quota_fraction=1.0,
    )
]


def scenario_run(*, churn=TWO_NODE_CHURN, **kwargs):
    # no burst window: the ten jobs arrive over ~0.8 s, so some arrive
    # while TWO_NODE_CHURN has the whole fleet down
    traffic = OpenLoopTraffic(
        "uniform-small", seed=7, tenants=REALTIME_1S, max_jobs=10, burst_mult=1.0
    )
    jobs = list(traffic.jobs())
    with make_cluster(**kwargs) as cluster:
        records = cluster.run(jobs, churn=churn)
        return records, cluster.summary(), cluster.failed_jobs


class TestRetryDeterminism:
    def test_same_seed_and_trace_identical_runs(self):
        """The whole scenario — records, retry counts, failure stats —
        is a pure function of (traffic seed, churn trace)."""
        first_records, first_summary, first_failed = scenario_run()
        second_records, second_summary, second_failed = scenario_run()
        assert first_records == second_records
        assert first_summary == second_summary
        assert [j.job_id for j in first_failed] == [
            j.job_id for j in second_failed
        ]
        # the handcrafted trace really exercises the failure paths
        resilience = first_summary["resilience"]
        assert resilience["crashes"] == 2
        assert resilience["retries"] >= 1
        assert resilience["parked"] > 0
        assert first_summary["deadlines"]["missed"] > 0

    def test_proof_bytes_survive_churn_and_retries(self):
        """The real fleet under a churn trace that kills both workers
        mid-prove and brings them back: every job completes, and every
        proof equals one sync service's proof of the same job.  Each job
        carries its own witness, so the ten proofs differ and a retried
        job's proof filed under another id would fail the check."""
        traffic = OpenLoopTraffic("uniform-small", seed=7, max_jobs=10)

        def own_witness_jobs():
            jobs = list(traffic.jobs())
            for witness_seed, job in enumerate(jobs, 1):
                job.arrival_s = 0.0  # a saturated batch: both nodes busy
                job.circuit = synthesize_circuit(
                    job.circuit.gate_type,
                    job.circuit.num_vars,
                    witness_seed=witness_seed,
                )
            return jobs

        jobs = own_witness_jobs()
        fleet = ProvingFleet(
            FleetConfig(
                num_nodes=2,
                policy="round_robin",
                time_model="functional",
                max_retries=3,
                node=NodeConfig(max_vars=traffic.max_vars()),
                run_timeout_s=180.0,
            )
        )
        churn = (
            ChurnEvent(0.02, 0, "crash"),
            ChurnEvent(0.03, 1, "crash"),
            ChurnEvent(0.3, 0, "recover"),
            ChurnEvent(0.4, 1, "recover"),
        )
        records = fleet.run(jobs, churn=churn)
        assert len(records) == 10 and not fleet.failed_jobs
        assert fleet.stats.crashes == 2
        assert fleet.events.kinds()["job_retried"] >= 1
        config = ServiceConfig(
            max_vars=traffic.max_vars(),
            srs_seed=NodeConfig.srs_seed,
            executor="sync",
        )
        with ProvingService(config) as service:
            expected = {r.job_id: r.proof for r in service.run(own_witness_jobs())}
        assert len({canonical_text(proof) for proof in expected.values()}) == 10
        assert fleet.proofs == expected

    def test_retry_counts_visible_in_metrics(self):
        records, summary, _ = scenario_run()
        retried = [r for r in records if r.attempt > 0]
        assert summary["retries"]["jobs_retried"] == len(retried)
        assert summary["retries"]["attempts"] == sum(r.attempt for r in retried)
        assert summary["resilience"]["retries"] >= len(retried)


class TestCrashSemantics:
    def test_lost_job_excludes_failed_node(self):
        """The retried job's record lands on a different node, carries a
        bumped attempt, and remembers who lost it."""
        traffic = OpenLoopTraffic("uniform-small", seed=7, max_jobs=10)
        jobs = list(traffic.jobs())
        with make_cluster() as cluster:
            records = cluster.run(jobs, churn=STAGGERED_CHURN)
            summary = cluster.summary()
        retried = [r for r in records if r.attempt > 0]
        assert retried, "the handcrafted trace must force a retry"
        excluded = {j.job_id: set(j.excluded_node_ids) for j in jobs}
        for record in retried:
            assert excluded[record.job_id], "lost jobs must remember the loser"
            assert record.node_id not in excluded[record.job_id]
        assert summary["resilience"]["lost_model_s"] > 0
        assert summary["resilience"]["exclusion_waivers"] == 0

    def test_requeued_job_never_returns_to_loser(self):
        """With a peer always up, exclusion is strict end to end."""
        traffic = OpenLoopTraffic("uniform-small", seed=7, max_jobs=10)
        jobs = list(traffic.jobs())
        with make_cluster() as cluster:
            records = cluster.run(jobs, churn=STAGGERED_CHURN)
        excluded = {j.job_id: set(j.excluded_node_ids) for j in jobs}
        for record in records:
            assert record.node_id not in excluded.get(record.job_id, set())

    def test_exclusion_waived_rather_than_starving(self):
        """A job excluded from every surviving node is re-homed (and the
        waiver counted) instead of parking forever — the livelock guard."""
        traffic = OpenLoopTraffic("uniform-small", seed=7, max_jobs=10)
        jobs = list(traffic.jobs())
        with make_cluster() as cluster:
            records = cluster.run(jobs, churn=TWO_NODE_CHURN)
            summary = cluster.summary()
        assert len(records) == 10, "every job must still complete"
        assert summary["resilience"]["parked"] > 0

    def test_exhausted_retries_fail_and_count_as_misses(self):
        records, summary, failed = scenario_run(max_retries=0)
        assert failed, "with no retry budget the lost job must drop"
        assert summary["resilience"]["failed_jobs"] == len(failed)
        assert summary["deadlines"]["missed_by_failure"] == len(
            [j for j in failed if j.deadline_s is not None]
        )
        assert len(records) + len(failed) == 10

    def test_stranded_jobs_fail_when_fleet_never_recovers(self):
        churn = (
            ChurnEvent(0.1, 0, "crash"),
            ChurnEvent(0.11, 1, "crash"),
        )
        records, summary, failed = scenario_run(churn=churn)
        assert len(records) + len(failed) == 10
        assert failed, "jobs parked against a dead fleet must fail"
        assert summary["resilience"]["parked"] > 0

    def test_crash_cold_starts_the_sim_cache(self):
        traffic = OpenLoopTraffic("uniform-small", seed=7, max_jobs=12)
        jobs = list(traffic.jobs())
        churn = (ChurnEvent(0.5, 0, "crash"), ChurnEvent(0.7, 0, "recover"))
        with make_cluster(num_nodes=1, policy="round_robin") as cluster:
            cluster.run(jobs, churn=churn)
            node = cluster.nodes["node-0"]
            records = cluster.records
        post_crash = [r for r in records if r.start_s >= 0.7]
        assert node.crashes == 1
        # the first job after recovery must re-install its index even
        # though the same shape was cached before the crash
        assert post_crash and post_crash[0].cache_hit is False


class TestAutoscaler:
    def test_scales_out_under_backlog_and_back_in_when_idle(self):
        """A burst then a lull: the backlog signal grows the fleet, the
        idle stretch shrinks it back, all within the policy's bounds."""
        traffic = OpenLoopTraffic("zipf-mixed", seed=3, max_jobs=17)
        jobs = list(traffic.jobs())
        for job in jobs[:16]:
            job.arrival_s = 0.0  # one thundering herd...
        jobs[16].arrival_s = 20.0  # ...then a straggler after a lull
        policy = AutoscalePolicy(
            scale_out_threshold_s=0.5,
            scale_in_threshold_s=0.1,
            interval_s=0.25,
            min_nodes=1,
            max_nodes=4,
            provision_s=0.25,
        )
        with make_cluster(
            num_nodes=1, autoscale=policy, node=NodeConfig(max_vars=6)
        ) as cluster:
            records = cluster.run(jobs, churn=())
            summary = cluster.summary()
            active_nodes = len(cluster.nodes)
        assert len(records) == 17
        autoscale = summary["resilience"]["autoscale"]
        assert autoscale["scale_outs"] >= 1
        assert autoscale["scale_ins"] >= 1
        peak_nodes = max(a["nodes"] for a in autoscale["actions"])
        assert peak_nodes <= policy.max_nodes
        assert active_nodes >= policy.min_nodes

    def test_autoscale_run_is_deterministic(self):
        def run_once():
            traffic = OpenLoopTraffic("zipf-mixed", seed=3, max_jobs=24)
            policy = AutoscalePolicy(
                scale_out_threshold_s=0.5,
                scale_in_threshold_s=0.1,
                interval_s=0.25,
                max_nodes=4,
            )
            with make_cluster(
                num_nodes=1, autoscale=policy, node=NodeConfig(max_vars=6)
            ) as cluster:
                cluster.run(list(traffic.jobs()), churn=())
                return cluster.summary()

        assert run_once() == run_once()

    def test_churn_plus_autoscale_terminates(self):
        """Regression: churn + autoscaler must never spin the event loop
        forever (parked work feeds the backlog signal, a dead fleet
        provisions a replacement, and ticks stop on a frozen heap)."""
        traffic = OpenLoopTraffic("zipf-mixed", seed=1, max_jobs=48)
        jobs = list(traffic.jobs())
        horizon = max(j.arrival_s for j in jobs) + CHURN_HORIZON_SLACK_S
        churn = trace_for_downtime(
            4, horizon, downtime_fraction=0.2, mttr_s=2.0, seed=101
        )
        policy = AutoscalePolicy(
            scale_out_threshold_s=0.5,
            scale_in_threshold_s=0.05,
            interval_s=0.25,
            min_nodes=1,
            max_nodes=8,
            provision_s=0.25,
        )
        with make_cluster(
            num_nodes=4,
            time_model="accelerator",
            autoscale=policy,
            node=NodeConfig(max_vars=6),
        ) as cluster:
            records = cluster.run(jobs, churn=churn)
            summary = cluster.summary()
        assert len(records) + summary["resilience"]["failed_jobs"] == 48

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AutoscalePolicy(interval_s=0)
        with pytest.raises(ValueError):
            AutoscalePolicy(scale_out_threshold_s=1.0, scale_in_threshold_s=1.5)
        with pytest.raises(ValueError):
            AutoscalePolicy(min_nodes=4, max_nodes=2)
        with pytest.raises(ValueError):
            AutoscalePolicy(provision_s=-1)


class TestChurnTraces:
    def test_trace_deterministic_and_sorted(self):
        first = churn_trace(4, 50.0, mttf_s=8.0, mttr_s=2.0, seed=5)
        second = churn_trace(4, 50.0, mttf_s=8.0, mttr_s=2.0, seed=5)
        assert first == second
        times = [e.at_s for e in first]
        assert times == sorted(times)
        assert all(e.kind in ("crash", "recover") for e in first)

    def test_node_streams_stable_as_fleet_grows(self):
        """Adding nodes must not perturb existing nodes' churn."""
        small = churn_trace(2, 50.0, mttf_s=8.0, mttr_s=2.0, seed=5)
        large = churn_trace(4, 50.0, mttf_s=8.0, mttr_s=2.0, seed=5)
        large_first_two = [e for e in large if e.node_index < 2]
        assert small == large_first_two

    def test_alternates_crash_recover_per_node(self):
        trace = churn_trace(3, 100.0, mttf_s=5.0, mttr_s=1.0, seed=1)
        for node_index in range(3):
            kinds = [e.kind for e in trace if e.node_index == node_index]
            for i, kind in enumerate(kinds):
                assert kind == ("crash" if i % 2 == 0 else "recover")

    def test_downtime_fraction_targets(self):
        trace = trace_for_downtime(
            8, 2000.0, downtime_fraction=0.2, mttr_s=2.0, seed=0
        )
        down = {i: 0.0 for i in range(8)}
        crashed_at = {}
        for event in trace:
            if event.kind == "crash":
                crashed_at[event.node_index] = event.at_s
            else:
                down[event.node_index] += event.at_s - crashed_at.pop(
                    event.node_index
                )
        for node_index, at_s in crashed_at.items():
            down[node_index] += 2000.0 - at_s
        fraction = sum(down.values()) / (8 * 2000.0)
        assert 0.1 < fraction < 0.3, f"empirical downtime {fraction:.3f}"
        assert trace_for_downtime(4, 100.0, downtime_fraction=0.0) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            churn_trace(0, 10.0, mttf_s=1.0, mttr_s=1.0)
        with pytest.raises(ValueError):
            churn_trace(1, 10.0, mttf_s=0.0, mttr_s=1.0)
        with pytest.raises(ValueError):
            trace_for_downtime(1, 10.0, downtime_fraction=1.0)
        with pytest.raises(ValueError):
            ChurnEvent(1.0, 0, "explode")


class TestOutstandingCost:
    def test_add_release_and_signal(self):
        (job,) = OpenLoopTraffic("uniform-small", seed=0, max_jobs=1).jobs()
        tracker = OutstandingCost(FunctionalProverCostModel())
        tracker.track("a")
        tracker.track("b")
        cost = tracker.add("a", job)
        assert cost > 0
        assert tracker.node_s("a") == pytest.approx(cost)
        assert tracker.total_s == pytest.approx(cost)
        assert tracker.mean_per_node_s() == pytest.approx(cost / 2)
        tracker.release("a", cost)
        assert tracker.total_s == 0.0
        tracker.drop("b")
        assert "b" not in tracker

    def test_unknown_node_rejected(self):
        tracker = OutstandingCost(FunctionalProverCostModel())
        with pytest.raises(KeyError):
            tracker.release("ghost")


class TestRepeatedRuns:
    def test_resilience_sums_over_runs_on_one_cluster(self):
        """Two churn runs on one autoscaled cluster: the summary's
        counters are the two runs' sums and its autoscale actions the
        two runs' lists, in run order."""
        policy = AutoscalePolicy(
            scale_out_threshold_s=0.5,
            scale_in_threshold_s=0.1,
            interval_s=0.25,
            min_nodes=1,
            max_nodes=4,
            provision_s=0.25,
        )
        runs = []
        with make_cluster(autoscale=policy, node=NodeConfig(max_vars=6)) as cluster:
            for seed in (1, 2):
                traffic = OpenLoopTraffic("zipf-mixed", seed=seed, max_jobs=24)
                engine = ClusterEngine(cluster)
                cluster.run(list(traffic.jobs()), churn=STAGGERED_CHURN, engine=engine)
                runs.append(engine.stats.as_dict())
            resilience = cluster.summary()["resilience"]
        first, second = runs
        assert first["crashes"] > 0 and second["crashes"] > 0
        for key, value in first.items():
            if key != "autoscale":
                assert resilience[key] == round(value + second[key], 6), key
        for key in ("scale_outs", "scale_ins"):
            assert resilience["autoscale"][key] == (
                first["autoscale"][key] + second["autoscale"][key]
            )
        actions = first["autoscale"]["actions"] + second["autoscale"]["actions"]
        assert first["autoscale"]["actions"] and second["autoscale"]["actions"]
        assert resilience["autoscale"]["actions"] == actions


class TestScenarioVsWave:
    @pytest.mark.parametrize("policy", ["affinity", "round_robin", "least_loaded"])
    def test_calm_scenario_matches_arrival_respecting_run(self, policy):
        """With no churn and no autoscaler, a run given an explicit empty
        churn trace reproduces the batch's records exactly: both route
        each job when it arrives, so even load-driven routing sees the
        same fleet."""
        traffic = OpenLoopTraffic("zipf-mixed", seed=4, max_jobs=16)
        with make_cluster(
            num_nodes=3, policy=policy, node=NodeConfig(max_vars=6)
        ) as scenario_cluster:
            scenario_records = scenario_cluster.run(
                list(traffic.jobs()), churn=()
            )
        with make_cluster(
            num_nodes=3, policy=policy, node=NodeConfig(max_vars=6)
        ) as batch_cluster:
            batch_records = batch_cluster.run(list(traffic.jobs()))
        assert scenario_records == batch_records

    def test_scenario_rejects_oversized_circuits_up_front(self):
        traffic = OpenLoopTraffic("jellyfish-heavy", seed=0, max_jobs=2)
        jobs = list(traffic.jobs())
        jobs[1].circuit.num_vars = 9  # forged
        with make_cluster(node=NodeConfig(max_vars=6)) as cluster:
            with pytest.raises(ValueError, match="exceeds"):
                cluster.run(jobs)
            assert cluster.records == []

    def test_router_error_surfaces_outside_scenarios(self):
        """The bare router raises on a fleet with every node down; a
        closed batch parks the job and fails it when the run drains."""
        with make_cluster(num_nodes=1) as cluster:
            cluster.router.mark_down("node-0")
            job = list(OpenLoopTraffic("uniform-small", seed=0, max_jobs=1).jobs())[0]
            with pytest.raises(NoRoutableNodeError):
                cluster.router.assign(job)
            assert cluster.run([job]) == []
            assert cluster.failed_jobs == [job]
