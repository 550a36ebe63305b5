"""A process pays only for the layers it runs.

Module-set assertions from fresh interpreters (never wall clock): the
functional stack imports without numpy or the serving / cluster layers,
the optional field-vector backends load on first request and degrade by
name when numpy is missing, and ``repro``'s re-exports resolve lazily.
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

HAVE_NUMPY = importlib.util.find_spec("numpy") is not None

REPORT = """
import json, sys
print(json.dumps({"numpy": "numpy" in sys.modules, **facts}))
"""


class TestImportsLoadOnlyTheirLayer:
    @pytest.mark.parametrize(
        "layer", ["repro.hyperplonk", "repro.curves", "repro.sumcheck"]
    )
    def test_functional_stack_loads_nothing_above_it(self, layer):
        report = cold_start.fresh(cold_start.IMPORT, layer)
        loaded = set(report["modules"])
        assert layer in loaded and not report["numpy"]
        for name in ("repro.cluster", "repro.fleet", "repro.carbon",
                     "repro.experiments", "repro.service"):
            assert name not in loaded

    def test_the_tool_check_holds(self):
        """Every layer, the three serving parsers at their default
        backend, and a whole fused proof: no numpy anywhere."""
        assert cold_start.failures() == []

    def test_the_tool_check_can_fail(self, monkeypatch):
        monkeypatch.setattr(cold_start, "NOT_FOR_A_PROOF", ("repro.fields",))
        assert "import repro.curves loads repro.fields" in cold_start.failures()

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


class TestOptionalBackendsLoadOnFirstRequest:
    def test_builtin_names_never_touch_numpy(self):
        facts = cold_start.fresh("""
from repro.fields import Fr, get_backend
from repro.fields.vector import backend_name, set_default_backend
facts = {
    "names": [get_backend(None).name, get_backend("fused").name,
              backend_name("reference"), set_default_backend("fused")],
    "sum": get_backend("fused").add(Fr, [1, 2], [3, 4]),
}
""" + REPORT)
        assert facts == {
            "numpy": False,
            "names": ["reference", "fused", "reference", "fused"],
            "sum": [4, 6],
        }

    def test_without_numpy_array_is_unavailable_by_name(self):
        """The contract CI's no-numpy leg relies on, checked on every
        box: ``None`` in ``sys.modules`` makes ``import numpy`` fail."""
        facts = cold_start.fresh("""
import sys
sys.modules["numpy"] = None
from repro.fields import get_backend, list_backends, unavailable_backends
from repro.fields.vector import BackendUnavailable
facts = {"listed": list_backends(), "reasons": unavailable_backends()}
try:
    get_backend("array")
except BackendUnavailable as exc:
    facts["error"] = str(exc)
try:
    get_backend("turbo")
except ValueError as exc:
    facts["unknown"] = str(exc)
facts["fused"] = get_backend("fused").name
""" + REPORT)
        assert facts["listed"] == ["fused", "reference"]
        assert set(facts["reasons"]) == {"array"}
        assert "pip install repro-zkphire[fast]" in facts["reasons"]["array"]
        assert "numpy" in facts["error"] and "[fast]" in facts["error"]
        assert "unknown vector backend 'turbo'" in facts["unknown"]
        assert facts["fused"] == "fused"

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
    def test_array_loads_when_asked_for(self):
        facts = cold_start.fresh("""
import sys
from repro.fields import Fr, get_backend
before = "numpy" in sys.modules
backend = get_backend("array")
from repro.fields import list_backends, unavailable_backends
facts = {
    "before": before,
    "name": backend.name,
    "product": list(backend.mul(Fr, [3, Fr.modulus - 1], [5, 2])),
    "listed": list_backends(),
    "unavailable": sorted(unavailable_backends()),
}
""" + REPORT)
        assert facts["before"] is False and facts["numpy"] is True
        assert facts["name"] == "array"
        assert facts["product"] == [15, repro.Fr.modulus - 2]
        assert {"array", "fused", "reference"} <= set(facts["listed"])
        assert "array" not in facts["unavailable"]

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
    def test_differential_suites_still_cover_array(self):
        """They parametrize over ``list_backends()`` at collection."""
        from repro.fields import list_backends

        assert "array" in list_backends()

    def test_a_backend_registered_by_hand_is_kept(self):
        facts = cold_start.fresh("""
from repro.fields.vector import (FusedBackend, get_backend, list_backends,
                                 register_backend, unavailable_backends)
mine = FusedBackend()
register_backend("array", mine)
facts = {"listed": list_backends(), "kept": get_backend("array") is mine,
         "unavailable": sorted(unavailable_backends())}
""" + REPORT)
        assert facts["kept"] and "array" in facts["listed"]
        assert "array" not in facts["unavailable"]


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
        assert facts == {"numpy": False, "missing": [], "loaded": []}

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
        assert facts == {"numpy": False, "only_plan": True, "cached": True,
                         "missing": [], "same": True}

    def test_unknown_attribute_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'turbo'"):
            repro.turbo
        assert not hasattr(repro, "turbo")
