"""One ``Scenario``, one ``run()``: pins, recorded cells, and the rules.

:class:`TestClusterCliOutput` pins the stdout of every ``repro-cluster``
invocation in CI's "Cluster CLI smoke" steps, each as ``--json`` and as
the printed tables, by sha256 recorded before the CLI became a shell
over :mod:`repro.fleet.scenario` (``cli/`` in ``tests/goldens.json``).
:class:`TestRecordedCells` builds the :class:`Scenario` equal to each
recorded lifecycle and open-loop cell and checks that
:func:`run` reproduces their digests.  The rest covers the cross-field
rules ``Scenario`` owns and what each runtime rejects.
"""

from dataclasses import replace

import pytest
from goldens import CLI_ARGVS, LIFECYCLE, OPEN_LOOP, cli_stdout, pinned
from goldens import sha256, summary_text

from repro.carbon import CarbonConfig, CarbonIntensityTrace, NodePowerModel
from repro.cluster.admission import AdmissionPolicy
from repro.cluster.autoscale import AutoscalePolicy
from repro.fleet.scenario import SIM_ONLY, Scenario, run


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
        assert sha256(summary_text(result.summary)) == pinned(
            f"{LIFECYCLE[cell]}/summary"
        )
        assert sha256(result.events.to_jsonl()) == pinned(f"{LIFECYCLE[cell]}/events")

    @pytest.mark.parametrize("seed", sorted(OPEN_LOOP))
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
        assert sha256(result.events.to_jsonl()) == pinned(f"{OPEN_LOOP[seed]}/events")
        assert sha256(summary_text(result.summary)) == pinned(
            f"{OPEN_LOOP[seed]}/summary"
        )


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
