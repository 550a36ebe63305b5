"""A process pays only for the layers it runs.

Module-set assertions from fresh interpreters (never wall clock): the
functional stack imports without the serving / cluster layers, no layer
loads a layer above it, and ``repro``'s re-exports resolve lazily.
The probes are ``tools/cold_start.py``'s, which also prints the timings.
"""

import importlib.util
from pathlib import Path

import pytest

import repro

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "cold_start.py"
_spec = importlib.util.spec_from_file_location("cold_start", _TOOL)
cold_start = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cold_start)

REPORT = """
import json
print(json.dumps(facts))
"""


class TestImportsLoadOnlyTheirLayer:
    @pytest.mark.parametrize(
        "layer", ["repro.hyperplonk", "repro.curves", "repro.sumcheck"]
    )
    def test_functional_stack_loads_nothing_above_it(self, layer):
        report = cold_start.fresh(cold_start.IMPORT, layer)
        loaded = set(report["modules"])
        assert layer in loaded
        for name in ("repro.cluster", "repro.fleet", "repro.carbon",
                     "repro.experiments", "repro.service"):
            assert name not in loaded

    def test_the_tool_check_holds(self):
        """Every layer loads only itself and the layers below it."""
        assert cold_start.failures() == []

    def test_the_tool_check_can_fail(self, monkeypatch):
        monkeypatch.setattr(cold_start, "NOT_FOR_A_PROOF", ("repro.fields",))
        assert "import repro.curves loads repro.fields" in cold_start.failures()

    def test_a_double_srs_build_fails_the_check(self, monkeypatch):
        """The SRS count is read off the recorder's ``srs_bases`` G1
        tally; a build that runs twice doubles it."""
        twice = (
            "import repro.hyperplonk.commitment as c\n"
            "once = c.TrapdoorSRS._build_bases\n"
            "c.TrapdoorSRS._build_bases = lambda self: (once(self), once(self))\n"
        )
        monkeypatch.setattr(cold_start, "SRS_MULS", twice + cold_start.SRS_MULS)
        bad = cold_start.failures()
        for mu in cold_start.COUNTED_SRS_SIZES:
            assert (f"TrapdoorSRS({mu}) asked in prover order makes "
                    f"{2 << mu} generator multiplications, not {1 << mu}") in bad

    def test_cluster_loads_nothing_above_it(self):
        """The simulated fleet is used by traffic, carbon and the real
        fleet, never the reverse (through PR 20 it imported all three)."""
        loaded = cold_start.fresh(cold_start.IMPORT, "repro.cluster")["modules"]
        assert "repro.sim.events" in loaded
        for name in loaded:
            assert not name.startswith(
                ("repro.traffic", "repro.carbon", "repro.fleet")
            ), name

    def test_a_layer_reaching_up_fails_the_check(self, monkeypatch):
        layers = list(cold_start.LAYERS)
        layers.remove("repro.sim")
        layers.insert(layers.index("repro.cluster") + 1, "repro.sim")
        monkeypatch.setattr(cold_start, "LAYERS", tuple(layers))
        bad = cold_start.failures()
        assert "import repro.cluster loads repro.sim" in bad
        assert any(line.startswith("README.md module map") for line in bad)


class TestBadFlags:
    @pytest.mark.parametrize(
        "argv, flag",
        [(["--repeats", "0"], "--repeats"), (["--against", "."], "--against")],
    )
    def test_exit_2_naming_the_flag_before_any_probe(
        self, argv, flag, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cold_start, "fresh", None)  # a probe would TypeError
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as raised:
            cold_start.main(argv)
        assert raised.value.code == 2 and flag in capsys.readouterr().err


class TestLazyPackageExports:
    def test_every_exported_name_resolves(self):
        assert len(repro.__all__) == 15 and "__version__" in repro.__all__
        for name in repro.__all__:
            assert getattr(repro, name) is not None
        assert repro.ProvingService.__module__ == "repro.service.core"
        assert repro.Fr.modulus.bit_length() == 255

    def test_dir_lists_them_before_they_load(self):
        facts = cold_start.fresh("""
import sys
import repro
listed = dir(repro)
facts = {
    "missing": sorted(set(repro.__all__) - set(listed)),
    "loaded": sorted(m for m in sys.modules if m.startswith("repro.")),
}
""" + REPORT)
        assert facts == {"missing": [], "loaded": []}

    def test_star_import_and_first_access(self):
        facts = cold_start.fresh("""
import sys
import repro
plan = repro.ProofPlan
only_plan = "repro.service" not in sys.modules
namespace = {}
exec("from repro import *", namespace)
facts = {
    "only_plan": only_plan,
    "cached": "ProofPlan" in vars(repro),
    "missing": sorted(set(repro.__all__) - set(namespace)),
    "same": namespace["ProofPlan"] is plan,
}
""" + REPORT)
        assert facts == {"only_plan": True, "cached": True,
                         "missing": [], "same": True}

    def test_unknown_attribute_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'turbo'"):
            repro.turbo
        assert not hasattr(repro, "turbo")
