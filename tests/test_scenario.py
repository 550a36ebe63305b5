"""One ``Scenario``, one ``run()``: pins, recorded cells, and the rules.

:class:`TestClusterCliOutput` pins the stdout of every ``repro-cluster``
invocation in CI's "Cluster CLI smoke" steps, each as ``--json`` and as
the printed tables, by sha256 recorded before the CLI became a shell
over :mod:`repro.fleet.scenario` (identical on Python 3.10 to 3.13).
:class:`TestRecordedCells` builds the :class:`Scenario` equal to each
cell of the lifecycle and open-loop golden tables and checks that
:func:`run` reproduces their digests.  The rest covers the cross-field
rules ``Scenario`` owns and what each runtime rejects.
"""

import contextlib
import hashlib
import io
import json
from dataclasses import replace

import pytest
from test_carbon_parity import OPEN_LOOP_GOLDEN
from test_lifecycle_pin import SCENARIO_GOLDEN

from repro.carbon import CarbonConfig, CarbonIntensityTrace, NodePowerModel
from repro.cluster.__main__ import main as cluster_main
from repro.cluster.admission import AdmissionPolicy
from repro.cluster.autoscale import AutoscalePolicy
from repro.fleet.scenario import SIM_ONLY, Scenario, run


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


#: CI's repro-cluster smoke argv -> sha256 of stdout (with --json, without)
CLI_GOLDEN = {
    "--scenario zipf-mixed --jobs 24 --nodes 1,2,4": (
        "d28fc6f6dd795dc5e398e8dcf73463c00bd016f453aaf9d1e17e461893f1ff5e",
        "d9bcd249edea5f937a1f13182e90fb67ee0e60dff2a9b167696dac7b013ab408",
    ),
    "--scenario zipf-mixed --jobs 24 --nodes 2,4 --churn-rate 0.2 --max-retries 3": (
        "7f58d7be58845af83e4cf26584a46ada8def7eafee5ebf81cdfcc1e7a25fd6ee",
        "890da84a96f965e7b206566e43d2e58cfd45bd5e87b75323d76d2b6eaea3673e",
    ),
    "--scenario jellyfish-heavy --time-model functional --jobs 24 --nodes 1 "
    "--autoscale --scale-out-s 1.0 --scale-in-s 0.1": (
        "2559ed7f53bd3bf7bddd67142a179b552ef7fe5678d579400c27cf4c492be081",
        "d7c587a940ee34fc80cd0c1451d73f14106d8d23bdcf60ea01b03246d0d04771",
    ),
    "--open-loop --scenario zipf-mixed --jobs 400 --rate-rps 40 --tenants 3 "
    "--nodes 2,4 --admission": (
        "7ca219cd689576d8feaec1aa5b7cee251f5e0df8d66eb8d52d0112cf221222a1",
        "527f361d06a15b582bcc4d775b0da9928c2ffad221ad4e03f27089974edd6402",
    ),
    "--open-loop --scenario zipf-mixed --jobs 200 --rate-rps 20 --nodes 2": (
        "13792ffe66b65e3b4699846853d6eb397df9a88e2e5282845ed01d40bb7e99e1",
        "d018844f3897c9d710fc0b67cc244b9859317563b7db70e7449457fea3660b72",
    ),
    "--open-loop --scenario uniform-small --jobs 200 --rate-rps 10 --nodes 2 "
    "--time-model functional --carbon-trace diurnal:300:0.8:240 "
    "--carbon-policy carbon_waiting --carbon-threshold 180 --power-cap 700": (
        "b7ccfece4b5209ed30946042bab0713240aca8d9320a7197879faa6769dd8896",
        "f2bed120239b13d0ca87741e20a0a940f95500e85bd07ba9ae764c82eb0f1bda",
    ),
    "--scenario uniform-small --jobs 24 --nodes 2 --carbon-trace diurnal": (
        "a993024855e751ffc137bcc680131b724ab9355a178a410c0872cc0cc53bf74f",
        "12359344e99373b7cc455fcbb9cb3307cc615d28931ce58ce87b30c8afd4f13d",
    ),
}


def cli_stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cluster_main(argv) == 0
    return out.getvalue()


class TestClusterCliOutput:
    @pytest.mark.parametrize("argv", list(CLI_GOLDEN))
    def test_stdout_digests(self, argv):
        as_json, as_tables = CLI_GOLDEN[argv]
        assert sha256(cli_stdout([*argv.split(), "--json"])) == as_json
        assert sha256(cli_stdout(argv.split())) == as_tables


class TestRecordedCells:
    @pytest.mark.parametrize(
        "cell", sorted(SCENARIO_GOLDEN), ids=lambda cell: f"{cell[0]}-{cell[1]}"
    )
    def test_lifecycle_golden(self, cell):
        policy, max_retries = cell
        result = run(
            Scenario(
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
        )
        assert (
            sha256(json.dumps(result.summary, sort_keys=True)),
            sha256(result.events.to_jsonl()),
        ) == SCENARIO_GOLDEN[cell]

    @pytest.mark.parametrize("seed", sorted(OPEN_LOOP_GOLDEN))
    def test_open_loop_golden(self, seed):
        jobs, rate_rps = 2_000, 40.0
        result = run(
            Scenario(
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
        )
        golden = OPEN_LOOP_GOLDEN[seed]
        assert sha256(result.events.to_jsonl()) == golden["events"]
        assert sha256(json.dumps(result.summary, sort_keys=True)) == golden["summary"]


def carbon(**kwargs) -> CarbonConfig:
    return CarbonConfig(CarbonIntensityTrace(seed=0), **kwargs)


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
        small = NodePowerModel(prove_w=50.0, install_w=60.0, idle_w=5.0)
        Scenario(carbon=carbon(power=small, power_cap_w=100.0))
        with pytest.raises(ValueError, match="--power-cap"):
            Scenario(carbon=carbon(power=small, power_cap_w=59.0))

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
