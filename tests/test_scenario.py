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
from dataclasses import fields, is_dataclass, replace
from inspect import signature

import pytest
from goldens import CLI_ARGVS, LIFECYCLE, OPEN_LOOP, cli_stdout, pinned
from goldens import sha256, summary_text

from repro.carbon import CarbonConfig, CarbonIntensityTrace, NodePowerModel
from repro.cluster.__main__ import build_parser, parse_scenario
from repro.cluster.admission import AdmissionPolicy
from repro.cluster.autoscale import AutoscalePolicy
from repro.fleet.scenario import SIM_ONLY, Scenario, run


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
        open_loop=True,
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
        result = run(lifecycle_cell(*cell))
        assert sha256(summary_text(result.summary)) == pinned(
            f"{LIFECYCLE[cell]}/summary"
        )
        assert sha256(result.events.to_jsonl()) == pinned(f"{LIFECYCLE[cell]}/events")

    @pytest.mark.parametrize("seed", sorted(OPEN_LOOP))
    def test_open_loop_golden(self, seed):
        result = run(open_loop_cell(seed))
        assert sha256(result.events.to_jsonl()) == pinned(f"{OPEN_LOOP[seed]}/events")
        assert sha256(summary_text(result.summary)) == pinned(
            f"{OPEN_LOOP[seed]}/summary"
        )


def carbon(**kwargs) -> CarbonConfig:
    return CarbonConfig(CarbonIntensityTrace(seed=0), **kwargs)


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
    "wave_s": (1.0,),
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
            ({"admission": AdmissionPolicy()}, "--admission"),
            ({"open_loop": True, "execute": True}, "--execute"),
            ({"open_loop": True, "autoscale": AutoscalePolicy()}, "--autoscale"),
            ({"open_loop": True, "churn_rate": 0.2}, "--horizon-s"),
            ({"carbon": CarbonConfig(None, "carbon_waiting")}, "--carbon-trace"),
            ({"carbon": CarbonConfig(None, power_cap_w=900.0)}, "--carbon-trace"),
            ({"carbon": carbon(power_cap_w=100.0)}, "--power-cap"),
            ({"jobs": None}, "jobs=None"),
            ({"jobs": None, "open_loop": True}, "jobs=None"),
        ],
    )
    def test_conflicts_raise_naming_the_flag(self, kwargs, flag):
        with pytest.raises(ValueError, match=flag):
            Scenario(**kwargs)

    def test_power_cap_checks_the_configured_power_model(self):
        Scenario(carbon=carbon(power=SMALL_POWER, power_cap_w=100.0))
        with pytest.raises(ValueError, match="--power-cap"):
            Scenario(carbon=carbon(power=SMALL_POWER, power_cap_w=59.0))

    def test_open_loop_settings_are_inert_in_a_closed_batch(self):
        closed = Scenario(jobs=12, nodes=2, rate_rps=5.0, horizon_s=3.0)
        assert run(closed).summary == run(Scenario(jobs=12, nodes=2)).summary

    def test_autoscale_ceiling_is_raised_to_the_starting_fleet(self):
        def cell(max_nodes):
            policy = AutoscalePolicy(max_nodes=max_nodes)
            return Scenario(jobs=24, nodes=3, autoscale=policy)

        assert run(cell(1)).summary == run(cell(3)).summary


class TestRuntimes:
    @pytest.mark.parametrize("name", sorted(SIM_ONLY))
    def test_fleet_rejects_each_sim_only_setting_by_name(self, name):
        settings = {
            "execute": True,
            "wave_s": None,
            "autoscale": AutoscalePolicy(),
            "carbon": carbon(),
            "open_loop": True,
        }
        with pytest.raises(ValueError, match=f"Scenario.{name} is a sim-only"):
            run(Scenario(**{name: settings[name]}), runtime="fleet")

    def test_unknown_runtime_and_stray_fleet_settings(self):
        with pytest.raises(ValueError, match="unknown runtime"):
            run(Scenario(), runtime="cloud")
        with pytest.raises(ValueError, match="heartbeat_s"):
            run(Scenario(), heartbeat_s=0.1)

    def test_result_carries_records_and_execute_mode_proofs(self):
        model = run(Scenario("uniform-small", 3, nodes=1))
        assert len(model.records) == 3 and model.proofs == {}
        assert len(model.events) > 0
        executed = run(Scenario("uniform-small", 3, nodes=1, execute=True))
        assert sorted(executed.proofs) == sorted(r.job_id for r in model.records)

    def test_one_scenario_on_both_runtimes(self):
        """Failure-free, the sim and the real fleet place every job on
        the same node and produce byte-identical proofs."""
        cell = Scenario("uniform-small", 4, 3, nodes=2, time_model="functional")
        fleet = run(cell, runtime="fleet", run_timeout_s=120.0)
        sim = run(replace(cell, execute=True))
        assert fleet.proofs == sim.proofs and len(fleet.proofs) == 4

        def placement(result):
            return sorted((r.job_id, r.node_id) for r in result.records)

        assert placement(fleet) == placement(sim)
        assert fleet.summary["nodes"] == 2 and len(fleet.events) > 0
