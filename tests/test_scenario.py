"""One ``Scenario``, one ``run()``: pins, recorded cells, and the rules.

:class:`TestClusterCliOutput` pins the stdout of every ``repro-cluster``
invocation in CI's "Cluster CLI smoke" steps, each as ``--json`` and as
the printed tables, by sha256 recorded before the CLI became a shell
over :mod:`repro.fleet.scenario` (``cli/`` in ``tests/goldens.json``).
:class:`TestRecordedCells` builds the :class:`Scenario` equal to each
recorded lifecycle and open-loop cell and checks that
:func:`run` reproduces their digests.  The rest covers the cross-field
rules ``Scenario`` owns and what each runtime rejects, and
:class:`TestAsDict` the record :meth:`Scenario.as_dict` makes of every
scenario built here.
"""

import json
import random
from dataclasses import fields, is_dataclass, replace
from inspect import signature

import pytest
from goldens import CLI_ARGVS, LIFECYCLE, OPEN_LOOP, cli_stdout, pinned
from goldens import sha256, summary_text

from repro.carbon import CarbonConfig, CarbonIntensityTrace, NodePowerModel
from repro.cluster.__main__ import build_parser, parse_scenario
from repro.cluster.admission import AdmissionPolicy
from repro.cluster.autoscale import AutoscalePolicy
from repro.cluster.engine import ClusterEngine
from repro.cluster.nodes import NodeConfig
from repro.cluster.routing import ROUTING_POLICIES
from repro.fields import Fr
from repro.fleet.core import ProvingFleet
from repro.fleet.scenario import SIM_ONLY, Scenario, run
from repro.fleet.validation import reference_proofs
from repro.hyperplonk import (
    HyperPlonkVerifier,
    MultilinearKZG,
    TrapdoorSRS,
    preprocess,
)
from repro.traffic import OpenLoopTraffic, default_tenants
from repro.workloads import SCENARIOS


def lifecycle_cell(policy: str, max_retries: int) -> Scenario:
    return Scenario(
        "zipf-mixed",
        120,
        1,
        nodes=3,
        policy=policy,
        time_model="functional",
        max_retries=max_retries,
        churn_rate=0.3,
        churn_mttr=2.0,
        churn_seed=101,
        burst_mult=1.0,
        autoscale=AutoscalePolicy(
            scale_out_threshold_s=0.5,
            scale_in_threshold_s=0.05,
            interval_s=0.25,
            min_nodes=1,
            max_nodes=6,
            provision_s=0.25,
        ),
    )


def open_loop_cell(seed: int) -> Scenario:
    jobs, rate_rps = 2_000, 40.0
    return Scenario(
        "zipf-mixed",
        jobs,
        seed,
        nodes=4,
        policy="least_loaded",
        max_retries=64,
        churn_rate=0.1,
        churn_seed=seed,
        carbon=CarbonConfig(CarbonIntensityTrace(seed=seed), policy="none"),
        rate_rps=rate_rps,
        # sizes the churn trace; every job arrives well before it
        horizon_s=jobs / rate_rps,
        admission=AdmissionPolicy(window_s=10.0),
    )


class TestClusterCliOutput:
    @pytest.mark.parametrize("argv", CLI_ARGVS)
    def test_stdout_digests(self, argv):
        as_json = sha256(cli_stdout(f"{argv} --json"))
        assert as_json == pinned(f"cli/{argv} --json")
        assert sha256(cli_stdout(argv)) == pinned(f"cli/{argv}")


class TestRecordedCells:
    @pytest.mark.parametrize(
        "cell", sorted(LIFECYCLE), ids=lambda cell: f"{cell[0]}-{cell[1]}"
    )
    def test_lifecycle_golden(self, cell):
        """The cluster blocks of the summary are the pinned
        ``ProvingCluster.summary``; ``traffic`` rides beside them."""
        result = run(lifecycle_cell(*cell))
        summary = dict(result.summary)
        assert summary.pop("traffic")["offered"] == 120
        assert sha256(summary_text(summary)) == pinned(f"{LIFECYCLE[cell]}/summary")
        assert sha256(result.events.to_jsonl()) == pinned(f"{LIFECYCLE[cell]}/events")

    @pytest.mark.parametrize("seed", sorted(OPEN_LOOP))
    def test_open_loop_golden(self, seed):
        """The ``traffic`` block, with the carbon block the cluster's
        summary carries, is the pinned ``traffic_summary``."""
        result = run(open_loop_cell(seed))
        assert sha256(result.events.to_jsonl()) == pinned(f"{OPEN_LOOP[seed]}/events")
        stream = {**result.summary["traffic"], "carbon": result.summary["carbon"]}
        assert sha256(summary_text(stream)) == pinned(f"{OPEN_LOOP[seed]}/summary")


def carbon(**kwargs) -> CarbonConfig:
    return CarbonConfig(CarbonIntensityTrace(seed=0), **kwargs)


def calm_fleet_run(cell: Scenario):
    """``cell`` on the real fleet, with no worker declared dead: a worker
    may miss 5 s of heartbeats (the default 0.3 s kills one a loaded
    2-vCPU host starves), and a death would fail here by name."""
    fleet = run(cell, runtime="fleet", run_timeout_s=120.0, heartbeat_misses=100.0)
    downs = [event for event in fleet.events if event.kind == "node_down"]
    assert not downs, f"a worker was declared dead in a calm run: {downs}"
    return fleet


SMALL_POWER = NodePowerModel(prove_w=50.0, install_w=60.0, idle_w=5.0)

#: every scenario this module builds: the CI argvs, the recorded cells,
#: and the rule cell that sets a power model
CELLS = {
    **{
        argv: parse_scenario(build_parser().parse_args(argv.split()))
        for argv in CLI_ARGVS
    },
    **{LIFECYCLE[cell]: lifecycle_cell(*cell) for cell in sorted(LIFECYCLE)},
    **{OPEN_LOOP[seed]: open_loop_cell(seed) for seed in sorted(OPEN_LOOP)},
    "power-model rule": Scenario(carbon=carbon(power=SMALL_POWER, power_cap_w=100.0)),
}

#: a second valid value for a field that is not a number in some cell;
#: the first that differs from the cell's value is used
ALTERNATIVES = {
    "scenario": ("uniform-small", "zipf-mixed"),
    "jobs": (5,),
    "policy": ("round_robin", "affinity"),
    "time_model": ("functional", "accelerator"),
    "cache_capacity": (8,),
    "autoscale": (AutoscalePolicy(),),
    "carbon": (carbon(),),
    "rate_rps": (5.0,),
    "horizon_s": (30.0,),
    "admission": (AdmissionPolicy(),),
    "carbon.policy": ("edd", "none"),
    "carbon.power": (SMALL_POWER,),
    "carbon.power.name": ("other",),
    "carbon.power_cap_w": (5000.0,),
    "carbon.low_threshold_g_per_kwh": (100.0,),
    "carbon.max_wait_s": (60.0,),
    "carbon.trace.grid_events": ([(1.0, 2.0)],),
    "carbon.trace.horizon_s": (60.0,),
}


def other(path: str, value):
    """Another value for the field at ``path``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 0.25
    return next(v for v in ALTERNATIVES[path] if v != value)


def variants(obj, path: str = ""):
    """``(path, obj with the field at path changed)`` for every field of
    ``obj`` (a dataclass or a carbon trace), nested ones included; the
    object is None where the change breaks a rule."""
    trace = isinstance(obj, CarbonIntensityTrace)
    if trace:
        names = list(signature(CarbonIntensityTrace).parameters)
    else:
        names = [f.name for f in fields(obj)]
    current = {name: getattr(obj, name) for name in names}

    def rebuilt(name, value):
        try:
            if trace:
                return CarbonIntensityTrace(**{**current, name: value})
            return replace(obj, **{name: value})
        except ValueError:
            return None

    for name, value in current.items():
        here = f"{path}{name}"
        if is_dataclass(value) or isinstance(value, CarbonIntensityTrace):
            for sub_path, sub in variants(value, f"{here}."):
                yield sub_path, None if sub is None else rebuilt(name, sub)
        else:
            yield here, rebuilt(name, other(here, value))


class TestAsDict:
    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_every_field_in_order_as_plain_json(self, name):
        record = CELLS[name].as_dict()
        assert list(record) == [f.name for f in fields(Scenario)]
        assert json.loads(json.dumps(record)) == record

    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_changing_any_field_changes_the_record(self, name):
        record = CELLS[name].as_dict()
        for path, changed in variants(CELLS[name]):
            if changed is not None:
                assert changed.as_dict() != record, path

    def test_every_field_is_changed_in_some_cell(self):
        tried, changed = set(), set()
        for cell in CELLS.values():
            for path, variant in variants(cell):
                tried.add(path)
                if variant is not None:
                    changed.add(path)
        assert changed == tried
        assert {path.split(".")[0] for path in changed} == {
            f.name for f in fields(Scenario)
        }
        trace = signature(CarbonIntensityTrace).parameters
        assert {f"carbon.trace.{name}" for name in trace} <= changed


class TestRules:
    @pytest.mark.parametrize(
        "kwargs, flag",
        [
            (
                {"admission": AdmissionPolicy(), "autoscale": AutoscalePolicy()},
                "--autoscale",
            ),
            ({"carbon": CarbonConfig(None, "carbon_waiting")}, "--carbon-trace"),
            ({"carbon": CarbonConfig(None, power_cap_w=900.0)}, "--carbon-trace"),
            ({"carbon": carbon(power_cap_w=100.0)}, "--power-cap"),
            ({"jobs": None}, "jobs=None"),
            ({"jobs": None, "rate_rps": 5.0}, "jobs=None"),
        ],
    )
    def test_conflicts_raise_naming_the_flag(self, kwargs, flag):
        with pytest.raises(ValueError, match=flag):
            Scenario(**kwargs)

    @pytest.mark.parametrize("argv", [["--execute"], ["--wave-s", "1.0"]])
    def test_removed_execute_flags_exit_2(self, argv, capsys):
        """The simulator proves nothing, so its old execute-mode flags
        are unknown arguments, never silently ignored."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_power_cap_checks_the_configured_power_model(self):
        Scenario(carbon=carbon(power=SMALL_POWER, power_cap_w=100.0))
        with pytest.raises(ValueError, match="--power-cap"):
            Scenario(carbon=carbon(power=SMALL_POWER, power_cap_w=59.0))

    def test_open_loop_churn_is_sized_past_the_last_arrival(self):
        """Without a horizon, an open loop's churn trace runs to the last
        arrival plus the slack, as a closed batch's does."""
        cell = Scenario(jobs=40, nodes=2, rate_rps=8.0, churn_rate=0.2)
        stream = run(cell).summary["traffic"]
        assert stream["offered"] == 40
        assert stream["completed"] + stream["failed"] == 40

    def test_autoscale_ceiling_is_raised_to_the_starting_fleet(self):
        def cell(max_nodes):
            policy = AutoscalePolicy(max_nodes=max_nodes)
            return Scenario(jobs=24, nodes=3, autoscale=policy)

        assert run(cell(1)).summary == run(cell(3)).summary


class TestRuntimes:
    @pytest.mark.parametrize("name", sorted(SIM_ONLY))
    def test_fleet_rejects_each_sim_only_setting_by_name(self, name):
        settings = {
            "autoscale": AutoscalePolicy(),
            "carbon": carbon(),
            "admission": AdmissionPolicy(),
        }
        with pytest.raises(ValueError, match=f"Scenario.{name} is a sim-only"):
            run(Scenario(**{name: settings[name]}), runtime="fleet")

    def test_unknown_runtime_and_stray_fleet_settings(self):
        with pytest.raises(ValueError, match="unknown runtime"):
            run(Scenario(), runtime="cloud")
        with pytest.raises(ValueError, match="heartbeat_s"):
            run(Scenario(), heartbeat_s=0.1)

    def test_sim_result_carries_records_and_no_proofs(self):
        model = run(Scenario("uniform-small", 3, nodes=1))
        assert len(model.records) == 3 and model.proofs == {}
        assert len(model.events) > 0

    @pytest.mark.parametrize("cache_capacity", [1, 2, 3])
    @pytest.mark.parametrize("policy", ROUTING_POLICIES)
    def test_fleet_measures_the_hit_rate_the_sim_predicts(
        self, policy, cache_capacity
    ):
        """Under caches small enough that eviction costs hits, the
        workers' real LRU caches hit on exactly the jobs the sim's model
        caches hit on, and a fleet job pays install seconds exactly when
        it misses."""
        cell = Scenario(
            "zipf-mixed",
            16,
            7,
            nodes=2,
            policy=policy,
            time_model="functional",
            cache_capacity=cache_capacity,
        )
        fleet = calm_fleet_run(cell)
        sim = run(cell)
        model = sim.summary["cache"]["sim"]
        unbounded = run(replace(cell, cache_capacity=None)).summary["cache"]["sim"]
        assert model["hits"] < unbounded["hits"]
        assert fleet.summary["cache"] == {
            key: model[key] for key in ("hits", "misses", "hit_rate")
        }

        def hits(result):
            return {r.job_id: r.cache_hit for r in result.records}

        assert hits(fleet) == hits(sim)
        assert all((r.install_model_s > 0) != r.cache_hit for r in fleet.records)

    def test_one_scenario_on_both_runtimes(self):
        """Failure-free, the real fleet places every job on the node the
        sim places it on; its proofs are one sync service's, byte for
        byte, and each verifies against an index built here on a
        same-seed SRS."""
        cell = Scenario("uniform-small", 4, 3, nodes=2, time_model="functional")
        fleet = calm_fleet_run(cell)
        sim = run(cell)
        assert fleet.proofs == reference_proofs(cell) and len(fleet.proofs) == 4
        traffic = cell.traffic()
        # the runtimes stamp job ids in stream order
        circuits = dict(enumerate(job.circuit for job in traffic.jobs()))
        srs = TrapdoorSRS(traffic.max_vars(), random.Random(NodeConfig.srs_seed))
        kzg = MultilinearKZG(srs)
        for job_id, proof in fleet.proofs.items():
            _, vidx = preprocess(circuits[job_id], kzg)
            HyperPlonkVerifier(Fr, vidx, kzg).verify(proof)

        def placement(result):
            return sorted((r.job_id, r.node_id) for r in result.records)

        assert placement(fleet) == placement(sim)
        assert fleet.summary["nodes"] == 2 and len(fleet.events) > 0

    @pytest.mark.parametrize(
        "cell, blocks",
        [
            (
                Scenario("uniform-small", 4, 3, nodes=2, time_model="functional"),
                ["resilience"],
            ),
            # both nodes crash before the last arrival (0.344 s), while
            # the run is still live on either runtime
            (
                Scenario(
                    "uniform-small",
                    6,
                    3,
                    nodes=2,
                    time_model="functional",
                    churn_rate=0.3,
                    churn_mttr=0.5,
                    churn_seed=3,
                ),
                ["resilience", "deadlines", "retries"],
            ),
        ],
        ids=["calm", "churn"],
    )
    def test_both_runtimes_emit_the_same_optional_blocks(self, cell, blocks):
        """One rule decides the optional summary blocks on both
        runtimes: ``resilience`` always, ``retries`` only after a crash,
        ``deadlines`` only once arrivals are paced.  The ``resilience``
        block has one key set, and a record names the same tenant and
        request class for a job on either runtime: its stream job's."""
        fleet = run(cell, runtime="fleet", run_timeout_s=120.0, heartbeat_misses=100.0)
        sim = run(cell)
        for result in (sim, fleet):
            summary = result.summary
            optional = ("deadlines", "retries", "resilience")
            assert [name for name in summary if name in optional] == blocks
            assert ("retries" in summary) == (summary["resilience"]["crashes"] > 0)
            assert ("deadlines" in summary) == cell.paced
        assert sim.summary["resilience"].keys() == fleet.summary["resilience"].keys()

        # the runtimes stamp job ids in stream order
        stream = {
            job_id: (job.tenant, job.request_class)
            for job_id, job in enumerate(cell.traffic().jobs())
        }
        assert None not in {tenant for tenant, _ in stream.values()}
        for result in (sim, fleet):
            owners = {r.job_id: (r.tenant, r.request_class) for r in result.records}
            assert owners and owners.items() <= stream.items()


class Handed(Exception):
    """Raised by a patched runtime with the arrival times it was handed."""


class TestPacing:
    """:func:`run` decides pacing once for both runtimes: the arrival
    times the fleet would honour are the ones the sim engine routes at.
    Both runtimes are stopped at their entry point, so no worker starts
    and no event fires."""

    @staticmethod
    def handed(cell: Scenario, runtime: str, monkeypatch) -> list[float]:
        def engine_run(self, jobs, *, churn=()):
            raise Handed([job.arrival_s for job in jobs])

        def fleet_run(self, jobs, *, churn=(), actions=()):
            # no FleetConfig field can switch arrivals off: the fleet
            # honours each arrival_s it is handed, scaled to wall seconds
            assert not [f for f in fields(self.config) if "arrival" in f.name]
            raise Handed([job.arrival_s * self.config.time_scale for job in jobs])

        monkeypatch.setattr(ClusterEngine, "run", engine_run)
        monkeypatch.setattr(ProvingFleet, "run", fleet_run)
        with pytest.raises(Handed) as handed:
            run(cell, runtime=runtime)
        return handed.value.args[0]

    @pytest.mark.parametrize("churn_rate", [0.0, 0.2], ids=["calm", "churn"])
    @pytest.mark.parametrize("respect", [False, True], ids=["saturated", "paced"])
    def test_fleet_honours_the_arrivals_the_sim_routes_at(
        self, respect, churn_rate, monkeypatch
    ):
        cell = Scenario(
            jobs=8, nodes=2, respect_arrivals=respect, churn_rate=churn_rate
        )
        sim = self.handed(cell, "sim", monkeypatch)
        assert self.handed(cell, "fleet", monkeypatch) == sim
        # only a calm batch that does not respect arrivals runs saturated
        assert any(sim) == (respect or churn_rate > 0)

    @pytest.mark.parametrize(
        "shape",
        [
            {"respect_arrivals": True},
            {"horizon_s": 60.0},
            {"admission": AdmissionPolicy()},
        ],
        ids=["respect", "horizon", "admission"],
    )
    def test_a_paced_stream_keeps_its_arrivals(self, shape, monkeypatch):
        cell = Scenario(jobs=8, nodes=2, **shape)
        assert cell.paced
        stream = [job.arrival_s for job in cell.traffic().jobs()]
        assert self.handed(cell, "sim", monkeypatch) == stream and any(stream)

    def test_the_rate_shapes_the_stream_and_does_not_pace_it(self, monkeypatch):
        """Naming the scenario's own rate draws the same stream and runs
        it the same way as leaving the rate unset."""
        default = Scenario(jobs=8, nodes=2)
        named = replace(default, rate_rps=SCENARIOS[default.scenario].rate_rps)
        assert not named.paced
        assert run(named).summary == run(default).summary
        assert self.handed(named, "sim", monkeypatch) == [0.0] * 8


class TestOneStream:
    """A closed batch is the job stream bounded by its job count: the
    jobs :func:`run` hands the engine and the records it returns carry
    the first ``n`` stream jobs' tenants, tags, classes and deadlines,
    in stream order (job ids are stamped in that order)."""

    @staticmethod
    def check(name: str, seed: int, monkeypatch, n: int = 12) -> None:
        handed = []
        engine_run = ClusterEngine.run

        def capture(self, jobs, *, churn=()):
            jobs = list(jobs)
            handed.extend(
                (j.tenant, j.tag, j.request_class, j.deadline_s) for j in jobs
            )
            return engine_run(self, jobs, churn=churn)

        monkeypatch.setattr(ClusterEngine, "run", capture)
        result = run(Scenario(name, n, seed, nodes=2))
        stream = list(OpenLoopTraffic(name, seed=seed, max_jobs=n).jobs())
        assert handed == [
            (j.tenant, j.tag, j.request_class, j.deadline_s) for j in stream
        ]
        records = sorted(result.records, key=lambda r: r.job_id)
        assert [(r.job_id, r.tag, r.deadline_s) for r in records] == [
            (i, j.tag, j.deadline_s) for i, j in enumerate(stream)
        ]
        tiers = {t.name: t.tier for t in default_tenants(Scenario.tenants)}
        for j in stream:
            tier = tiers[j.tenant]
            assert j.request_class is tier.request_class
            assert j.deadline_s - j.arrival_s == pytest.approx(tier.deadline_slack_s)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_closed_batch_is_the_bounded_stream(self, name, seed, monkeypatch):
        self.check(name, seed, monkeypatch)
