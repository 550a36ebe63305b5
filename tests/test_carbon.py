"""Carbon subsystem contracts: trace, power, policies, suspend/resume.

The :mod:`repro.carbon` stack must be deterministic under seeds (same
trace and job stream → bit-identical schedules and gram totals),
restartable (two iterations of one trace agree), and *conservative*:
parking a deferrable job at a phase boundary and resuming it later must
never change the work a job does, only when — the suspend/resume
end-to-end tests here pin records, event kinds and counters.
"""

import math
import random

import pytest

from repro.carbon import (
    CARBON_POLICIES,
    CarbonConfig,
    CarbonIntensityTrace,
    CarbonRuntime,
    JOULES_PER_KWH,
    NodePowerModel,
    node_watts,
)
from repro.cluster import (
    ClusterConfig,
    ClusterEngine,
    FleetTimeModel,
    NodeConfig,
    ProvingCluster,
)
from repro.cluster.nodes import ProverNode
from repro.fleet.scenario import Scenario, run
from repro.service.jobs import RequestClass
from repro.service.traffic import TrafficGenerator
from repro.sim.events import EventLog


def make_trace(**kwargs) -> CarbonIntensityTrace:
    kwargs.setdefault("base_g_per_kwh", 300.0)
    kwargs.setdefault("amplitude", 0.5)
    kwargs.setdefault("period_s", 240.0)
    kwargs.setdefault("noise", 0.05)
    kwargs.setdefault("seed", 3)
    return CarbonIntensityTrace(**kwargs)


class TestCarbonIntensityTrace:
    def test_events_restart_identically(self):
        """The EventSource contract: every iteration restarts from the
        seed, and an identically-configured trace agrees sample-for-
        sample."""
        trace = make_trace(horizon_s=60.0)
        first = list(trace.events())
        second = list(trace.events())
        assert first == second
        assert first == list(make_trace(horizon_s=60.0).events())
        assert len(first) == 13  # windows 0..12 cover [0, 60]

    def test_events_match_point_queries(self):
        trace = make_trace(horizon_s=50.0)
        for at_s, intensity in trace.events():
            assert intensity == trace.intensity_at(at_s)
        times = [at_s for at_s, _ in trace.events()]
        assert times == sorted(times)

    @pytest.mark.parametrize("noise", [0.0, 0.07])
    def test_memoised_windows_are_order_independent(self, noise):
        """A window's intensity is computed once and remembered; the
        O(1)-random-access contract says the value cannot depend on
        what was asked before, so a shuffled, repeated and iterated
        trace must agree with one fresh trace per query."""
        kwargs = dict(
            noise=noise, seed=9, horizon_s=300.0, grid_events=[(60.0, 1.5), (200.0, 0.5)]
        )
        fresh = {
            at_s: make_trace(**kwargs).intensity_at(at_s)
            for at_s in [w * 5.0 + 1.25 for w in range(80)] + [-3.0, 0.0, 4.999]
        }
        trace = make_trace(**kwargs)
        order = list(fresh)
        random.Random(1).shuffle(order)
        for at_s in order + order[::-1]:
            assert trace.intensity_at(at_s) == fresh[at_s]
        for at_s, intensity in trace.events():
            assert intensity == fresh[at_s + 1.25]
            assert intensity == make_trace(**kwargs).intensity_at(at_s)
        assert trace.integral_g_s_per_kwh(3.0, 287.0) == make_trace(
            **kwargs
        ).integral_g_s_per_kwh(3.0, 287.0)

    def test_noise_generator_seeded_once_per_window(self, monkeypatch):
        trace = make_trace(seed=4)
        seeded = []
        real = trace._noise_factor
        monkeypatch.setattr(
            trace, "_noise_factor", lambda w: seeded.append(w) or real(w)
        )
        for _ in range(3):
            trace.integral_g_s_per_kwh(0.0, 42.0)
            trace.next_low_start(0.0, 1.0, 42.0)
        assert sorted(seeded) == list(range(9))  # windows 0..8, once each

    def test_signal_parameters_are_read_only(self):
        """What the memo depends on cannot change under it."""
        trace = make_trace()
        for name in (
            "base_g_per_kwh", "amplitude", "period_s", "noise", "step_s",
            "seed", "grid_events",
        ):
            with pytest.raises(AttributeError, match="read-only"):
                setattr(trace, name, getattr(trace, name))
        trace.horizon_s = 10.0  # bounds events() only; not part of the signal
        assert len(list(trace.events())) == 3

    def test_events_require_horizon(self):
        with pytest.raises(ValueError):
            list(make_trace().events())

    def test_seed_moves_noise_only(self):
        a = make_trace(seed=1, horizon_s=40.0)
        b = make_trace(seed=2, horizon_s=40.0)
        assert list(a.events()) != list(b.events())
        # noiseless traces are seed-independent pure sinusoids
        a0 = make_trace(seed=1, noise=0.0)
        b0 = make_trace(seed=2, noise=0.0)
        assert a0.intensity_at(17.0) == b0.intensity_at(17.0)

    def test_noiseless_sinusoid_exact(self):
        trace = make_trace(noise=0.0)
        window_mid = 7.5  # window [5, 10) at step 5
        expected = 300.0 * (
            1.0 + 0.5 * math.sin(2.0 * math.pi * window_mid / 240.0)
        )
        assert trace.intensity_at(6.0) == pytest.approx(expected)
        # piecewise constant: any query inside the window agrees
        assert trace.intensity_at(5.0) == trace.intensity_at(9.999)

    def test_grid_events_step_intensity(self):
        plain = make_trace(seed=5)
        stepped = make_trace(seed=5, grid_events=[(20.0, 2.0)])
        assert stepped.intensity_at(10.0) == plain.intensity_at(10.0)
        assert stepped.intensity_at(30.0) == pytest.approx(
            2.0 * plain.intensity_at(30.0)
        )

    def test_integral_exact_and_additive(self):
        trace = make_trace()
        # exact piecewise-constant integral over partial windows
        manual = (
            trace.intensity_at(0.0) * 2.0  # [3, 5) of window 0
            + trace.intensity_at(5.0) * 5.0  # [5, 10)
            + trace.intensity_at(10.0) * 2.0  # [10, 12)
        )
        assert trace.integral_g_s_per_kwh(3.0, 12.0) == pytest.approx(manual)
        whole = trace.integral_g_s_per_kwh(0.0, 100.0)
        split = trace.integral_g_s_per_kwh(
            0.0, 37.3
        ) + trace.integral_g_s_per_kwh(37.3, 100.0)
        assert whole == pytest.approx(split)
        assert trace.integral_g_s_per_kwh(10.0, 10.0) == 0.0

    def test_carbon_g_prices_constant_draw(self):
        trace = make_trace(noise=0.0, amplitude=0.0)
        # flat 300 g/kWh at 1000 W for one hour = 300 g
        assert trace.carbon_g(0.0, 3600.0, 1000.0) == pytest.approx(300.0)
        assert JOULES_PER_KWH == 3.6e6

    def test_next_low_start_finds_the_trough(self):
        trace = make_trace(noise=0.0)
        start = trace.next_low_start(0.0, 200.0, 240.0)
        # 300·(1+0.5·sin) ≤ 200 needs sin ≤ -2/3: mid-trough, ~148 s in
        assert start is not None and 140.0 <= start <= 160.0
        assert trace.intensity_at(start) <= 200.0
        # already-low instants are returned as-is
        assert trace.next_low_start(start + 1.0, 200.0, 240.0) == start + 1.0
        # no qualifying window before until_s
        assert trace.next_low_start(0.0, 200.0, 30.0) is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_g_per_kwh": 0.0},
            {"amplitude": 1.0},
            {"amplitude": -0.1},
            {"period_s": 0.0},
            {"noise": 1.0},
            {"step_s": 0.0},
            {"horizon_s": -1.0},
            {"grid_events": [(-1.0, 2.0)]},
            {"grid_events": [(5.0, 0.0)]},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            make_trace(**kwargs)


class TestNodePowerModel:
    def test_accelerator_preset_prices_the_paper_rollup(self):
        power = NodePowerModel.accelerator()
        assert power.name == "accelerator"
        # Table V total accelerator power plus host-side install watts
        assert power.prove_w == pytest.approx(200.738953)
        assert power.install_w == 250.0
        assert power.idle_w == pytest.approx(30.0)
        assert power.busy_w == 250.0

    def test_functional_preset(self):
        power = NodePowerModel.functional()
        assert (power.prove_w, power.install_w) == (350.0, 350.0)
        assert power.idle_w == pytest.approx(42.0)
        assert power.busy_w == 350.0

    def test_busy_rail_is_the_larger_phase_draw(self):
        power = NodePowerModel(prove_w=100.0, install_w=200.0, idle_w=10.0)
        assert power.busy_w == 200.0

    def test_node_watts_resolves_presets(self):
        assert node_watts("accelerator").name == "accelerator"
        assert node_watts(FleetTimeModel.preset("functional")).name == (
            "functional"
        )
        with pytest.raises(ValueError):
            node_watts("bogus")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"prove_w": 0.0, "install_w": 1.0, "idle_w": 0.0},
            {"prove_w": 1.0, "install_w": -1.0, "idle_w": 0.0},
            {"prove_w": 1.0, "install_w": 1.0, "idle_w": -0.1},
        ],
    )
    def test_bad_watts_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NodePowerModel(**kwargs)


class TestCarbonConfig:
    def test_policy_registry(self):
        assert CARBON_POLICIES == ("none", "carbon_waiting", "edd")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"policy": "greedy"},
            {"power_cap_w": 0.0},
            {"low_threshold_g_per_kwh": 0.0},
            {"max_wait_s": 0.0},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CarbonConfig(trace=make_trace(), **kwargs)

    def test_runtime_defaults_and_passive(self):
        time_model = FleetTimeModel.preset("functional")
        runtime = CarbonRuntime(CarbonConfig(trace=make_trace()), time_model)
        assert runtime.passive
        assert runtime.threshold_g_per_kwh == 300.0
        assert runtime.max_wait_s == 240.0
        assert runtime.power.name == "functional"
        active = CarbonRuntime(
            CarbonConfig(trace=make_trace(), policy="edd"), time_model
        )
        assert not active.passive

    def test_cap_below_one_busy_node_rejected(self):
        config = CarbonConfig(trace=make_trace(), power_cap_w=100.0)
        with pytest.raises(ValueError):
            CarbonRuntime(config, FleetTimeModel.preset("functional"))


def _node() -> ProverNode:
    return ProverNode("node-0", NodeConfig(max_vars=6))


def _queued_jobs(node: ProverNode, count: int = 6) -> list:
    jobs = TrafficGenerator("uniform-small", seed=9).jobs(count)
    for job_id, job in enumerate(jobs):
        job.job_id = job_id
        node.submit(job)
    return jobs


class TestSelectJob:
    def _runtime(self, policy: str) -> CarbonRuntime:
        return CarbonRuntime(
            CarbonConfig(trace=make_trace(noise=0.0), policy=policy),
            FleetTimeModel.preset("functional"),
        )

    def test_edd_orders_by_deadline(self):
        node = _node()
        jobs = _queued_jobs(node, 3)
        jobs[0].deadline_s = 9.0
        jobs[1].deadline_s = 2.0
        jobs[2].deadline_s = None
        job, hold = self._runtime("edd").select_job(node, now_s=0.0)
        assert job is jobs[1] and hold is None

    def test_carbon_waiting_serves_realtime_first(self):
        """A drained low-window backlog of deferrable work must never
        starve realtime jobs, whatever the queue (arrival) order."""
        node = _node()
        jobs = _queued_jobs(node, 3)
        jobs[0].request_class = RequestClass.DEFERRABLE
        jobs[1].request_class = RequestClass.DEFERRABLE
        jobs[2].request_class = RequestClass.REALTIME
        job, hold = self._runtime("carbon_waiting").select_job(node, now_s=0.0)
        assert job is jobs[2] and hold is None

    def test_carbon_waiting_holds_deferrable_at_high_intensity(self):
        node = _node()
        jobs = _queued_jobs(node, 1)
        jobs[0].request_class = RequestClass.DEFERRABLE
        jobs[0].deadline_s = 500.0
        runtime = CarbonRuntime(
            CarbonConfig(
                trace=make_trace(noise=0.0),
                policy="carbon_waiting",
                low_threshold_g_per_kwh=200.0,
            ),
            FleetTimeModel.preset("functional"),
        )
        job, hold = runtime.select_job(node, now_s=0.0)
        assert job is jobs[0]
        assert hold is not None and 140.0 <= hold <= 160.0
        assert runtime.trace.intensity_at(hold) <= 200.0


def _suspend_jobs() -> list:
    """A long deferrable job then a realtime one: the cap-preemption
    fixture (fresh objects per call — runs stamp ids in place)."""
    pool = TrafficGenerator("uniform-small", seed=1).jobs(50)
    deferrable = next(j for j in pool if j.circuit.num_vars == 4)
    realtime = next(j for j in pool if j.circuit.num_vars == 3)
    deferrable.request_class = RequestClass.DEFERRABLE
    deferrable.arrival_s = 0.0
    deferrable.deadline_s = None
    realtime.request_class = RequestClass.REALTIME
    realtime.arrival_s = 0.02
    realtime.deadline_s = 10.0
    return [deferrable, realtime]


def _cap_config(*, carbon: bool = True) -> ClusterConfig:
    return ClusterConfig(
        num_nodes=2,
        policy="round_robin",
        time_model="functional",
        node=NodeConfig(max_vars=6),
        carbon=(
            CarbonConfig(trace=make_trace(), power_cap_w=400.0)
            if carbon
            else None
        ),
    )


class TestSuspendResume:
    def test_cap_parks_deferrable_at_phase_boundary(self):
        """A realtime start blocked by the cap parks the running
        deferrable job at its next checkpoint, then it resumes and both
        proofs complete with no busy seconds lost."""
        with ProvingCluster(_cap_config()) as cluster:
            records = cluster.run_scenario(_suspend_jobs())
            events = cluster.events
            carbon = cluster.carbon
        assert len(records) == 2 and not cluster.failed_jobs
        by_id = {r.job_id: r for r in records}
        parked = by_id[0]
        assert parked.suspensions == 1
        assert parked.suspended_s > 0.0
        assert by_id[1].suspensions == 0
        # the realtime job ran inside the suspension window
        assert by_id[1].finish_s < parked.finish_s
        assert carbon.suspends == 1 and carbon.resumes == 1
        assert carbon.cap_deferrals >= 1 and carbon.cap_breaches == 0
        kinds = events.kinds()
        assert kinds["job_suspend"] == 1
        assert kinds["job_resume"] == 1
        assert kinds["power_cap"] >= 1
        suspend = next(e for e in events if e.kind == "job_suspend")
        assert suspend.job_id == 0
        assert suspend.detail["done_s"] > 0.0
        assert suspend.detail["remaining_s"] > 0.0
        # banked + resumed segments add up to the full job cost
        assert parked.suspended_s == pytest.approx(
            parked.finish_s
            - parked.start_s
            - parked.install_model_s
            - parked.prove_model_s
        )

    def test_suspend_schedule_is_deterministic(self):
        runs = []
        for _ in range(2):
            with ProvingCluster(_cap_config()) as cluster:
                records = cluster.run_scenario(_suspend_jobs())
                runs.append(
                    (records, cluster.events.events, cluster.summary())
                )
        assert runs[0][0] == runs[1][0]
        assert EventLog.replay_identical(runs[0][1], runs[1][1])
        assert runs[0][2] == runs[1][2]

    def test_parking_does_not_change_the_work(self):
        """A parked-and-resumed job is placed, cached and priced exactly
        as in the carbon-free run of the same stream: parking moves
        work in time, never changes it."""

        def work(carbon: bool) -> tuple[int, dict]:
            with ProvingCluster(_cap_config(carbon=carbon)) as cluster:
                records = cluster.run_scenario(_suspend_jobs())
                suspends = cluster.carbon.suspends if carbon else 0
            return suspends, {
                r.job_id: (
                    r.circuit_key,
                    r.node_id,
                    r.cache_hit,
                    r.install_model_s,
                    r.prove_model_s,
                )
                for r in records
            }

        capped_suspends, capped = work(carbon=True)
        _, free = work(carbon=False)
        assert capped_suspends == 1
        assert capped == free and len(capped) == 2

    def test_cap_floor_keeps_the_fleet_live(self):
        """A cap that cannot admit even one busy node breaches (counted)
        instead of deadlocking."""
        jobs = _suspend_jobs()[:1]
        config = _cap_config()
        # 2 nodes: one busy draws 350 + 42 = 392 W > 360 W cap
        config.carbon.power_cap_w = 360.0
        with ProvingCluster(config) as cluster:
            records = cluster.run_scenario(jobs)
            carbon = cluster.carbon
            events = cluster.events
        assert len(records) == 1 and not cluster.failed_jobs
        assert carbon.cap_breaches >= 1
        floor = next(e for e in events if e.kind == "power_cap")
        assert floor.detail["reason"] == "floor"

    def test_held_start_lands_in_a_low_window(self):
        """carbon_waiting moves a deferrable start into the trough and
        leaves realtime starts untouched."""
        jobs = _suspend_jobs()
        jobs[0].deadline_s = 500.0  # slack to reach the trough
        config = ClusterConfig(
            num_nodes=2,
            policy="round_robin",
            time_model="functional",
            node=NodeConfig(max_vars=6),
            carbon=CarbonConfig(
                trace=make_trace(noise=0.0),
                policy="carbon_waiting",
                low_threshold_g_per_kwh=200.0,
            ),
        )
        with ProvingCluster(config) as cluster:
            records = cluster.run_scenario(jobs)
            carbon = cluster.carbon
            events = cluster.events
        by_id = {r.job_id: r for r in records}
        trace = carbon.trace
        assert by_id[0].start_s >= 140.0
        assert trace.intensity_at(by_id[0].start_s) <= 200.0
        assert by_id[1].start_s == pytest.approx(0.02)
        assert carbon.held_starts >= 1
        hold = next(
            e
            for e in events
            if e.kind == "scheduler_choice" and e.detail["action"] == "hold"
        )
        assert hold.job_id == 0
        assert hold.detail["policy"] == "carbon_waiting"

    def test_summary_carries_the_carbon_block(self):
        with ProvingCluster(_cap_config()) as cluster:
            cluster.run_scenario(_suspend_jobs())
            summary = cluster.summary()
        carbon = summary["carbon"]
        assert carbon["policy"] == "none"
        assert carbon["power_cap_w"] == 400.0
        assert carbon["energy_j"] > 0.0
        assert carbon["carbon_g"] > 0.0
        assert carbon["carbon_per_proof_g"] > 0.0
        assert carbon["suspends"] == 1 and carbon["resumes"] == 1
        assert carbon["energy_lost_j"] == 0.0


class TestClosedBatchUnderTheGate:
    """Regression: a closed batch (every ``arrival_s`` zero) under a
    power cap or carbon-waiting holds once computed a start from the
    node clock alone, behind the model time it fired at, and the run
    died with "cannot schedule into the past"."""

    def _run(self, monkeypatch, scenario: Scenario):
        """Run ``scenario``; returns its result and each job's model
        time at the (last) moment the engine started it."""
        fired: dict[int, float] = {}
        begin = ClusterEngine.begin

        def spy(engine, node, job):
            if job is not None:
                fired[job.job_id] = engine.sim.now
            begin(engine, node, job)

        monkeypatch.setattr(ClusterEngine, "begin", spy)
        result = run(scenario)
        assert len(result.records) == scenario.jobs
        for record in result.records:
            assert record.arrival_s == 0.0
            assert record.start_s >= fired[record.job_id]
        return result

    @pytest.mark.parametrize("policy", ["none", "edd"])
    def test_capped_batch_runs_to_completion(self, monkeypatch, policy):
        carbon = CarbonConfig(CarbonIntensityTrace(seed=0), policy, power_cap_w=375.0)
        result = self._run(
            monkeypatch,
            Scenario("uniform-small", 24, nodes=2, policy="round_robin", carbon=carbon),
        )
        assert result.summary["carbon"]["cap_deferrals"] >= 1

    def test_held_batch_starts_no_job_before_its_hold_lifts(self, monkeypatch):
        carbon = CarbonConfig(CarbonIntensityTrace(seed=1), "carbon_waiting")
        result = self._run(
            monkeypatch, Scenario("zipf-mixed", 64, nodes=3, carbon=carbon)
        )
        start = {record.job_id: record.start_s for record in result.records}
        holds = [
            event
            for event in result.events
            if event.kind == "scheduler_choice" and event.detail["action"] == "hold"
        ]
        assert holds
        for hold in holds:
            # until_s is rounded to 6 places in the event
            assert start[hold.job_id] >= hold.detail["until_s"] - 1e-6

    def test_edd_sees_the_whole_burst_before_a_node_starts(self, monkeypatch):
        """Every job of the batch arrives at t=0: the gate must see each
        node's whole share queued, so ``edd`` starts the earliest
        deadline first on every node, not the first job routed there."""
        carbon = CarbonConfig(CarbonIntensityTrace(seed=1), "edd")
        result = self._run(
            monkeypatch, Scenario("zipf-mixed", 64, nodes=3, carbon=carbon)
        )
        by_node: dict[str, list] = {}
        for record in result.records:
            by_node.setdefault(record.node_id, []).append(record)
        assert len(by_node) == 3
        for records in by_node.values():
            first = min(records, key=lambda r: (r.start_s, r.job_id))
            earliest = min(
                records,
                key=lambda r: (
                    r.deadline_s if r.deadline_s is not None else math.inf,
                    r.job_id,
                ),
            )
            assert first.start_s == 0.0
            assert first.job_id == earliest.job_id
