"""Open-loop traffic, tenancy, and admission control (``repro.traffic``).

ISSUE 8 contracts: the seeded arrival stream is a pure function of its
constructor arguments; the open-loop engine conserves every offered
job (offered = shed + completed + failed); the admission controller
sheds bronze before gold, caps tenants at their quotas, and drives
backpressure when the budget collapses under it; and the ``repro-
cluster --open-loop`` flags validate with argparse's exit status 2.
"""

import math
import random
from types import SimpleNamespace

import pytest
from goldens import closed_stream_text, pinned, sha256

from repro.cluster import ClusterConfig, NodeConfig, ProvingCluster
from repro.cluster.admission import AdmissionController, AdmissionPolicy
from repro.cluster.__main__ import build_parser, main as cluster_main
from repro.service.jobs import RequestClass
from repro.service.metrics import latency_tail, percentile
from repro.traffic import (
    SLO_TIERS,
    OpenLoopEngine,
    OpenLoopTraffic,
    SLOTier,
    TenantSpec,
    default_tenants,
    jain_fairness,
    make_admission,
    traffic_summary,
)
from repro.traffic.openloop import WeightedTable
from repro.workloads import SCENARIOS, ChurnEvent, trace_for_downtime

SCENARIO = "zipf-mixed"
#: ~6x the 4-node fleet's install-bound capacity (overload regime)
OVERLOAD_RPS = 40.0


def run_open_loop(
    *,
    with_admission: bool,
    jobs: int = 1_000,
    rate_rps: float = OVERLOAD_RPS,
    nodes: int = 4,
    window_s: float = 10.0,
    churn: tuple = (),
):
    """One small seeded open-loop run; returns the engine."""
    traffic = OpenLoopTraffic(
        SCENARIO, seed=0, max_jobs=jobs, rate_rps=rate_rps
    )
    cluster = ProvingCluster(
        ClusterConfig(
            num_nodes=nodes,
            policy="least_loaded",
            node=NodeConfig(max_vars=traffic.max_vars()),
        )
    )
    admission = None
    if with_admission:
        admission = make_admission(
            cluster, AdmissionPolicy(window_s=window_s), traffic.tenants
        )
    engine = OpenLoopEngine(cluster, traffic, admission=admission)
    engine.run_open_loop(churn=churn)
    return engine


def stub_job(job_id: int, tenant: str):
    """The minimal surface AdmissionController reads from a job."""
    return SimpleNamespace(job_id=job_id, tenant=tenant)


def make_controller(
    *,
    cost: float = 1.0,
    up_nodes: int = 4,
    window_s: float = 10.0,
    tenants=None,
):
    """A controller whose ``admit(job)`` offers every job at the constant
    ``cost`` with the mutable node count ``nodes[0]`` up."""
    nodes = [up_nodes]
    controller = AdmissionController(
        AdmissionPolicy(window_s=window_s),
        tenants if tenants is not None else default_tenants(3),
    )
    controller.admit = lambda job: controller.offer(job, cost, nodes[0])[0]
    return controller, nodes


class TestOpenLoopTraffic:
    def test_stream_is_deterministic_and_restartable(self):
        traffic = OpenLoopTraffic(SCENARIO, seed=3, max_jobs=50)
        first = [
            (j.arrival_s, j.tenant, j.circuit_key, j.deadline_s)
            for j in traffic.jobs()
        ]
        second = [
            (j.arrival_s, j.tenant, j.circuit_key, j.deadline_s)
            for j in traffic.jobs()
        ]
        other = [
            (j.arrival_s, j.tenant, j.circuit_key, j.deadline_s)
            for j in OpenLoopTraffic(SCENARIO, seed=4, max_jobs=50).jobs()
        ]
        assert len(first) == 50
        assert first == second, "every jobs() call must restart the seed"
        assert first != other
        arrivals = [a for a, *_ in first]
        assert arrivals == sorted(arrivals)

    def test_rate_envelope_and_burst_windows(self):
        traffic = OpenLoopTraffic(
            SCENARIO,
            rate_rps=10.0,
            diurnal_amplitude=0.5,
            burst_mult=3.0,
            burst_fraction=0.1,
            burst_duration_s=5.0,
            max_jobs=1,
        )
        assert traffic.in_burst(0.0) and traffic.in_burst(4.9)
        assert not traffic.in_burst(5.0) and not traffic.in_burst(49.9)
        assert traffic.in_burst(50.0)
        assert traffic.peak_rate_rps == pytest.approx(10.0 * 1.5 * 3.0)
        for t in (0.0, 1.7, 23.0, 60.0, 119.5):
            assert 0.0 < traffic.rate_at(t) <= traffic.peak_rate_rps

    def test_thinning_loop_is_rate_at(self):
        """The arrival loop inlines ``rate_at``; the public definition
        must accept exactly the candidates the loop accepts."""
        for kwargs in (
            {},
            {"diurnal_amplitude": 0.9, "burst_mult": 1.0},
            {"burst_fraction": 1.0, "diurnal_period_s": 17.0},
            {"diurnal_amplitude": 0.0, "burst_duration_s": 0.3},
        ):
            traffic = OpenLoopTraffic(
                SCENARIO, seed=5, max_jobs=400, rate_rps=25.0, **kwargs
            )
            rng, peak, t, expected = random.Random(5), traffic.peak_rate_rps, 0.0, []
            while len(expected) < 50:
                t += rng.expovariate(peak)
                if rng.random() * peak < traffic.rate_at(t):
                    expected.append(t)
            arrivals = traffic._arrivals(random.Random(5))
            assert [next(arrivals) for _ in expected] == expected

    def test_horizon_bounds_the_stream(self):
        traffic = OpenLoopTraffic(SCENARIO, seed=0, horizon_s=5.0)
        jobs = list(traffic.jobs())
        assert jobs
        assert all(j.arrival_s <= 5.0 for j in jobs)

    def test_arrival_trace_replayed_verbatim(self):
        trace = [0.5, 0.1, 2.0]
        traffic = OpenLoopTraffic(SCENARIO, arrival_trace=trace)
        assert [j.arrival_s for j in traffic.jobs()] == sorted(trace)

    def test_shape_cache_shares_circuits(self):
        traffic = OpenLoopTraffic(SCENARIO, seed=0, max_jobs=200)
        jobs = list(traffic.jobs())
        by_key = {}
        for job in jobs:
            by_key.setdefault(job.circuit_key, job.circuit)
            assert job.circuit is by_key[job.circuit_key]
        assert len(traffic.shapes) == len(by_key)
        assert len(by_key) < len(jobs)

    def test_validation(self):
        with pytest.raises(ValueError, match="diurnal_amplitude"):
            OpenLoopTraffic(SCENARIO, diurnal_amplitude=1.0, max_jobs=1)
        with pytest.raises(ValueError, match="burst_mult"):
            OpenLoopTraffic(SCENARIO, burst_mult=0.5, max_jobs=1)
        with pytest.raises(ValueError, match="burst_fraction"):
            OpenLoopTraffic(SCENARIO, burst_fraction=0.0, max_jobs=1)
        with pytest.raises(ValueError, match="max_jobs"):
            OpenLoopTraffic(SCENARIO)
        with pytest.raises(ValueError, match="rate_rps"):
            OpenLoopTraffic(SCENARIO, rate_rps=0.0, max_jobs=1)

    @pytest.mark.parametrize(
        "field, value",
        [
            (field, value)
            for field in (
                "rate_rps",
                "diurnal_period_s",
                "burst_duration_s",
                "horizon_s",
            )
            for value in (math.nan, math.inf, 0.0, -1.0)
        ]
        + [("burst_mult", math.nan), ("burst_mult", math.inf)],
    )
    def test_non_finite_or_non_positive_parameter_is_rejected(self, field, value):
        """Construction alone raises, naming the field: a NaN or infinite
        rate, period or duration would spin the thinning loop forever,
        and a NaN horizon would never end a horizon-bounded stream."""
        with pytest.raises(ValueError, match=field):
            OpenLoopTraffic(SCENARIO, **{"horizon_s": 10.0, field: value})


def weight_lists():
    """Every weight list a committed record's stream draws from."""
    for scenario in SCENARIOS.values():
        yield f"{scenario.name}/gates", *zip(*scenario.gate_mix)
        yield f"{scenario.name}/sizes", *zip(*scenario.size_weights)
    for n in (1, 2, 3, 5, 8, 16):
        tenants = default_tenants(n)
        yield f"tenants/{n}", tenants, [t.weight for t in tenants]


class TestWeightedTable:
    """``OpenLoopTraffic.jobs`` draws from cumulative tables built once
    per stream; the committed ``BENCH_*.json`` streams were drawn with
    ``rng.choices(population, weights=w)[0]``.  Same generator state in,
    same element and same generator state out — checked against the
    interpreter's own ``choices``, so a stdlib that changes its draw
    fails here rather than silently moving every seeded record."""

    @pytest.mark.parametrize(
        "population, weights",
        [pytest.param(p, w, id=name) for name, p, w in weight_lists()],
    )
    def test_draw_is_random_choices(self, population, weights):
        table = WeightedTable(population, weights)
        ours, theirs = random.Random(2024), random.Random(2024)
        for _ in range(500):
            assert table.draw(ours) is theirs.choices(population, weights=weights)[0]
        assert ours.getstate() == theirs.getstate()

    def test_degenerate_weights_rejected_like_choices(self):
        for population, weights in (("ab", [0.0, 0.0]), ("ab", [1.0]), ("a", [math.inf])):
            with pytest.raises(ValueError):
                random.Random(0).choices(population, weights=weights)
            with pytest.raises(ValueError):
                WeightedTable(population, weights)


class TestClosedBatchStream:
    """A closed batch is the job stream bounded by a job count: the pin
    (``traffic/`` in ``tests/goldens.json``) holds the first 64 jobs of
    the ``zipf-mixed`` stream — arrival, tag, class, deadline, circuit
    fingerprint and tenant of each."""

    def test_zipf_mixed_stream_digest(self):
        assert sha256(closed_stream_text()) == pinned("traffic/zipf-mixed")


class TestTenants:
    def test_default_tenants_zipf_weights_and_tiers(self):
        tenants = default_tenants(4)
        assert [t.name for t in tenants] == [
            "tenant-0",
            "tenant-1",
            "tenant-2",
            "tenant-3",
        ]
        weights = [t.weight for t in tenants]
        assert weights == sorted(weights, reverse=True)
        assert [t.tier.name for t in tenants] == [
            "gold",
            "silver",
            "bronze",
            "gold",
        ]
        assert all(0.0 < t.quota_fraction <= 1.0 for t in tenants)

    def test_tier_ordering_and_classes(self):
        gold, silver, bronze = (
            SLO_TIERS["gold"],
            SLO_TIERS["silver"],
            SLO_TIERS["bronze"],
        )
        assert gold.deadline_slack_s < silver.deadline_slack_s
        assert silver.deadline_slack_s < bronze.deadline_slack_s
        # lower tiers cap out earlier, so they shed first
        assert gold.admission_factor > silver.admission_factor
        assert silver.admission_factor > bronze.admission_factor
        assert bronze.request_class is RequestClass.DEFERRABLE

    def test_validation(self):
        with pytest.raises(ValueError, match="admission_factor"):
            SLOTier("bad", 1.0, 1.5, RequestClass.REALTIME)
        with pytest.raises(ValueError, match="weight"):
            TenantSpec("t", 0.0, SLO_TIERS["gold"], 0.5)
        with pytest.raises(ValueError, match="quota_fraction"):
            TenantSpec("t", 1.0, SLO_TIERS["gold"], 0.0)


class TestAdmissionController:
    def test_budget_tracks_up_nodes(self):
        controller, _ = make_controller(window_s=10.0)
        assert controller.budget_s(4) == 40.0
        assert controller.budget_s(1) == 10.0
        # a fully-down fleet still budgets one node
        assert controller.budget_s(0) == 10.0

    def test_tier_cap_sheds_lower_tiers_first(self):
        # equal quotas so only the tier factor differentiates
        tiers = ["gold", "silver", "bronze"]
        tenants = [
            TenantSpec(f"tenant-{i}", 1.0, SLO_TIERS[t], 1.0)
            for i, t in enumerate(tiers)
        ]
        controller, _ = make_controller(
            cost=1.0, up_nodes=1, window_s=10.0, tenants=tenants
        )
        # fill fleet-wide outstanding to 8s: bronze caps at 7.0,
        # silver at 8.5, gold at 10.0
        for job_id in range(8):
            assert controller.admit(stub_job(job_id, "tenant-0"))
        assert not controller.admit(stub_job(101, "tenant-2"))  # 9 > 7.0
        assert not controller.admit(stub_job(102, "tenant-1"))  # 9 > 8.5
        assert controller.admit(stub_job(103, "tenant-0"))  # 9 <= 10
        assert controller.shed_by_tenant == {
            "tenant-0": 0,
            "tenant-1": 1,
            "tenant-2": 1,
        }

    def test_quota_caps_one_tenant_inside_its_tier(self):
        tenants = [
            TenantSpec("big", 1.0, SLO_TIERS["gold"], 1.0),
            TenantSpec("small", 1.0, SLO_TIERS["gold"], 0.2),
        ]
        controller, _ = make_controller(
            cost=1.0, up_nodes=1, window_s=10.0, tenants=tenants
        )
        assert controller.admit(stub_job(0, "small"))
        assert controller.admit(stub_job(1, "small"))
        # small's quota is 2.0s; the fleet budget still has 8s of room
        assert not controller.admit(stub_job(2, "small"))
        assert controller.admit(stub_job(3, "big"))

    def test_settle_releases_and_is_idempotent(self):
        controller, _ = make_controller(cost=2.0, up_nodes=4)
        job = stub_job(0, "tenant-0")
        assert controller.admit(job)
        assert controller.outstanding_s == 2.0
        controller.settle(job)
        assert controller.outstanding_s == 0.0
        controller.settle(job)  # idempotent
        controller.settle(stub_job(99, "tenant-0"))  # never admitted
        assert controller.outstanding_s == 0.0

    def test_unknown_tenant_rejected(self):
        controller, _ = make_controller()
        with pytest.raises(KeyError, match="unknown tenant"):
            controller.admit(stub_job(0, "nobody"))
        with pytest.raises(KeyError, match="unknown tenant"):
            controller.admit(stub_job(0, None))

    def test_backpressure_when_budget_collapses(self):
        controller, nodes = make_controller(
            cost=1.0, up_nodes=4, window_s=10.0
        )
        jobs = [stub_job(i, "tenant-0") for i in range(20)]
        for job in jobs:
            assert controller.admit(job)
        assert not controller.overloaded(nodes[0])  # 20s of a 40s budget
        nodes[0] = 1  # the fleet crashes down to one node
        assert controller.overloaded(nodes[0])  # 20s > 1.5 x 10s
        assert not controller.relieved(nodes[0])
        for job in jobs[:13]:
            controller.settle(job)
        assert controller.relieved(nodes[0])  # 7s < 0.75 x 10s

    def test_as_dict_reports_policy_and_counters(self):
        controller, _ = make_controller(cost=100.0, up_nodes=1)
        controller.admit(stub_job(0, "tenant-0"))
        doc = controller.as_dict()
        assert doc["policy"]["window_s"] == 10.0
        assert doc["offered"] == 1
        assert doc["shed"] == 1
        assert doc["shed_rate"] == 1.0


class TestOpenLoopEngine:
    def test_runs_are_deterministic(self):
        first = traffic_summary(run_open_loop(with_admission=True))
        second = traffic_summary(run_open_loop(with_admission=True))
        assert first == second

    def test_conservation_offered_equals_shed_plus_resolved(self):
        for with_admission in (False, True):
            engine = run_open_loop(with_admission=with_admission)
            summary = traffic_summary(engine)
            assert summary["offered"] == 1_000
            assert (
                summary["offered"]
                == summary["shed"]
                + summary["completed"]
                + summary["failed"]
            )
            assert engine.admitted == summary["completed"] + summary["failed"]

    def test_admission_beats_no_admission_on_goodput(self):
        protected = traffic_summary(run_open_loop(with_admission=True))
        unprotected = traffic_summary(run_open_loop(with_admission=False))
        assert protected["shed"] > 0
        assert unprotected["shed"] == 0
        assert (
            protected["model"]["goodput_jobs_per_s"]
            > unprotected["model"]["goodput_jobs_per_s"]
        )
        assert (
            protected["model"]["latency_s"]["p99"]
            < unprotected["model"]["latency_s"]["p99"]
        )
        assert protected["jain_fairness"] > unprotected["jain_fairness"]

    def test_shed_events_logged_per_tenant(self):
        engine = run_open_loop(with_admission=True)
        shed_events = [e for e in engine.events if e.kind == "job_shed"]
        assert len(shed_events) == traffic_summary(engine)["shed"]
        by_tenant = {}
        for event in shed_events:
            by_tenant[event.detail["tenant"]] = (
                by_tenant.get(event.detail["tenant"], 0) + 1
            )
        assert by_tenant == engine.admission.shed_by_tenant

    def test_churn_triggers_backpressure_and_lag(self):
        # crash half the fleet mid-stream: the budget halves, the pump
        # pauses, and resumed arrivals carry the accumulated lag
        churn = (
            ChurnEvent(2.0, 0, "crash"),
            ChurnEvent(20.0, 0, "recover"),
        )
        engine = run_open_loop(
            with_admission=True,
            jobs=800,
            nodes=2,
            window_s=4.0,
            churn=churn,
        )
        summary = traffic_summary(engine)
        assert engine.pauses >= 1
        assert engine.lag_s > 0.0
        assert (
            summary["offered"]
            == summary["shed"] + summary["completed"] + summary["failed"]
        )

    def test_untenanted_jobs_need_no_admission(self):
        # a bare trace with no admission controller: tenancy is still
        # stamped by the stream, but nothing reads it
        engine = run_open_loop(with_admission=False, jobs=50)
        assert engine.offered == 50
        assert {r.tenant for r in engine.records} <= {
            t.name for t in engine.traffic.tenants
        }


def observed_run(
    *,
    jobs: int,
    nodes: int,
    churn: tuple,
    window_s: float = 10.0,
    max_retries: int = 2,
):
    """An admitted open-loop run that counts every ledger settlement and
    notes each resolution that resumed a paused pump as
    ``(events fired, job id)``; returns ``(engine, settled, resumes)``."""
    traffic = OpenLoopTraffic(SCENARIO, seed=0, max_jobs=jobs, rate_rps=OVERLOAD_RPS)
    cluster = ProvingCluster(
        ClusterConfig(
            num_nodes=nodes,
            policy="least_loaded",
            max_retries=max_retries,
            node=NodeConfig(max_vars=traffic.max_vars()),
        )
    )
    admission = make_admission(
        cluster, AdmissionPolicy(window_s=window_s), traffic.tenants
    )
    engine = OpenLoopEngine(cluster, traffic, admission=admission)
    settled: list[int] = []
    resumes: list[tuple[int, int]] = []
    settle, observer = admission.settle, engine._resolved

    def counting_settle(job):
        settled.append(job.job_id)
        settle(job)

    def watching_observer(job):
        paused = engine._paused
        observer(job)
        if paused and not engine._paused:
            resumes.append((engine.sim.fired, job.job_id))

    admission.settle = counting_settle
    engine._resolved = watching_observer
    engine.run_open_loop(churn=churn)
    return engine, settled, resumes


def assert_settled_once_per_resolved_job(engine, settled):
    resolved = [r.job_id for r in engine.records]
    resolved += [job.job_id for job in engine.failed_jobs]
    assert sorted(settled) == sorted(resolved)
    assert len(set(settled)) == len(settled)
    assert engine.admission.outstanding_s == pytest.approx(0.0, abs=1e-9)


class TestAdmissionObserver:
    """Admission settles on the dispatcher's ``_resolved`` hook, not on
    overrides of the engine's finish / fail steps."""

    def test_open_loop_engine_overrides_no_resolution_step(self):
        assert "_finish" not in OpenLoopEngine.__dict__
        assert "_fail" not in OpenLoopEngine.__dict__
        assert "_resolved" in OpenLoopEngine.__dict__

    def test_completed_jobs_settle_once(self):
        engine, settled, _ = observed_run(jobs=300, nodes=2, churn=())
        assert engine.records and not engine.failed_jobs
        assert_settled_once_per_resolved_job(engine, settled)

    def test_job_failed_after_max_retries_settles_once(self):
        churn = (
            ChurnEvent(1.0, 0, "crash"),
            ChurnEvent(1.5, 0, "recover"),
            ChurnEvent(2.0, 1, "crash"),
            ChurnEvent(2.6, 1, "recover"),
        )
        engine, settled, _ = observed_run(jobs=300, nodes=2, churn=churn, max_retries=0)
        crashed = {e.job_id for e in engine.events if e.kind == "job_crashed"}
        failed = {job.job_id for job in engine.failed_jobs}
        assert failed and failed <= crashed
        assert_settled_once_per_resolved_job(engine, settled)

    def test_job_stranded_at_finalize_settles_once(self):
        # the only node crashes for good: parked jobs fail at finalize
        churn = (ChurnEvent(1.0, 0, "crash"),)
        engine, settled, _ = observed_run(jobs=300, nodes=1, churn=churn)
        assert engine.stats.parked > 0
        assert len(engine.failed_jobs) == engine.stats.parked
        assert_settled_once_per_resolved_job(engine, settled)

    def test_job_parked_then_routed_settles_once(self):
        churn = (ChurnEvent(1.0, 0, "crash"), ChurnEvent(3.0, 0, "recover"))
        engine, settled, _ = observed_run(jobs=300, nodes=1, churn=churn)
        assert engine.stats.parked > 0 and not engine.failed_jobs
        # the recovery routes every parked job at once
        parked = {
            e.job_id
            for e in engine.events
            if e.kind == "job_assigned" and e.at_s == 3.0
        }
        assert len(parked) == engine.stats.parked
        assert parked <= {r.job_id for r in engine.records}
        assert_settled_once_per_resolved_job(engine, settled)

    def test_paused_pump_resumes_on_the_same_events(self):
        # recorded when admission settled through finish / fail
        # overrides: the observer must resume the pump at the same
        # resolution, after the same number of fired events
        churn = trace_for_downtime(2, 1_500 / 40.0, downtime_fraction=0.2, seed=0)
        engine, settled, resumes = observed_run(
            jobs=1_500, nodes=2, churn=tuple(churn), window_s=4.0
        )
        assert engine.pauses == 6
        assert resumes == [
            (411, 238),
            (636, 325),
            (1453, 940),
            (1460, 946),
            (1791, 1172),
            (1921, 1265),
        ]
        assert engine.sim.fired == 2241
        assert_settled_once_per_resolved_job(engine, settled)


class TestTrafficMetrics:
    def test_jain_fairness_bounds(self):
        assert jain_fairness([]) == 1.0
        assert jain_fairness([0.0, 0.0]) == 1.0
        assert jain_fairness([5.0, 5.0, 5.0]) == pytest.approx(1.0)
        assert jain_fairness([1.0, 0.0, 0.0]) == pytest.approx(1 / 3)
        assert 0.0 < jain_fairness([3.0, 1.0]) < 1.0

    def test_latency_tail_sorts_once_matches_percentile(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0]
        qs = {"p50": 50, "p95": 95, "p99": 99, "p99_9": 99.9, "max": 100}
        assert latency_tail(values) == {
            key: round(percentile(values, q), 6) for key, q in qs.items()
        }
        assert latency_tail([]) == dict.fromkeys(qs, 0.0)
        assert latency_tail([2.5]) == dict.fromkeys(qs, 2.5)
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 9.0

    def test_summary_tenant_rows_join_records(self):
        engine = run_open_loop(with_admission=True)
        summary = traffic_summary(engine)
        rows = {row["tenant"]: row for row in summary["tenants"]}
        assert sum(r["offered"] for r in rows.values()) == summary["offered"]
        assert sum(r["shed"] for r in rows.values()) == summary["shed"]
        assert (
            sum(r["completed"] for r in rows.values()) == summary["completed"]
        )
        for row in rows.values():
            assert row["slo_met"] <= row["completed"]
        assert 0.0 < summary["jain_fairness"] <= 1.0


class TestOpenLoopCli:
    def test_open_loop_flags_parse(self):
        args = build_parser().parse_args(
            [
                "--open-loop",
                "--rate-rps",
                "12.5",
                "--tenants",
                "5",
                "--admission",
                "--admission-window",
                "2.0",
                "--diurnal-amplitude",
                "0.25",
                "--burst-mult",
                "2.0",
            ]
        )
        assert args.open_loop and args.admission
        assert args.rate_rps == 12.5
        assert args.tenants == 5
        assert math.isclose(args.diurnal_amplitude, 0.25)

    def test_carbon_flags_parse(self):
        args = build_parser().parse_args(
            [
                "--carbon-trace",
                "diurnal:300:0.8:240",
                "--carbon-policy",
                "carbon_waiting",
                "--power-cap",
                "600",
                "--carbon-threshold",
                "180",
            ]
        )
        assert args.carbon_trace == {
            "base_g_per_kwh": 300.0,
            "amplitude": 0.8,
            "period_s": 240.0,
        }
        assert args.carbon_policy == "carbon_waiting"
        assert args.power_cap == 600.0
        assert args.carbon_threshold == 180.0
        # bare "diurnal" means the trace defaults
        assert build_parser().parse_args(
            ["--carbon-trace", "diurnal"]
        ).carbon_trace == {}

    @pytest.mark.parametrize(
        "argv",
        [
            ["--admission"],  # requires --open-loop
            ["--open-loop", "--autoscale"],
            ["--open-loop", "--tenants", "0"],
            ["--open-loop", "--rate-rps", "0"],
            ["--open-loop", "--horizon-s", "-1"],
            ["--open-loop", "--diurnal-amplitude", "1.0"],
            ["--open-loop", "--burst-mult", "0.9"],
            ["--open-loop", "--admission-window", "nan"],
            # carbon flags require --carbon-trace
            ["--carbon-policy", "carbon_waiting"],
            ["--power-cap", "500"],
            ["--carbon-threshold", "180"],
            # malformed trace specs
            ["--carbon-trace", "sinusoid"],
            ["--carbon-trace", "diurnal:300:0.8"],
            ["--carbon-trace", "diurnal:300:1.5:240"],
            ["--carbon-trace", "diurnal:-5:0.5:240"],
            ["--carbon-trace", "diurnal:300:0.5:nan"],
            # cap below one busy node's draw / non-positive cap
            ["--carbon-trace", "diurnal", "--power-cap", "100"],
            ["--carbon-trace", "diurnal", "--power-cap", "0"],
            ["--carbon-trace", "diurnal", "--carbon-policy", "bogus"],
        ],
    )
    def test_bad_values_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cluster_main(argv)
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_small_open_loop_run_end_to_end(self, capsys):
        code = cluster_main(
            [
                "--open-loop",
                "--jobs",
                "60",
                "--nodes",
                "2",
                "--policies",
                "least_loaded",
                "--admission",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "open loop" in out
        assert "goodput" in out
