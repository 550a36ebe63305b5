"""The numpy ``array`` backend's own surface: LimbVector semantics,
plan invariants, registry degradation, and CLI choice sourcing.

The cross-backend *semantics* (bit-identical kernels, counter parity)
live in ``test_fastpath_differential.py`` / ``test_vector_fuzz.py``;
this file covers what those matrices cannot: the lazy list-like wrapper
type, the limb-plan preconditions, how the registry degrades when numpy
is missing, and that every ``--backend`` CLI sources its
choices from the live registry.
"""

import random

import pytest

from repro.fields import (
    BackendUnavailable,
    Fq,
    Fr,
    get_backend,
    list_backends,
    set_default_backend,
    unavailable_backends,
)
from repro.fields import vector as vector_mod

SEED = 0xA44A1
P = Fr.modulus

np = pytest.importorskip("numpy")
HAVE_ARRAY = "array" in list_backends()


@pytest.mark.skipif(not HAVE_ARRAY, reason="array backend not registered")
class TestLimbVector:
    def make(self, n=17):
        from repro.fields.array_backend import LimbVector, get_plan, to_planes

        rng = random.Random(SEED + n)
        vals = [rng.randrange(P) for _ in range(n)]
        plan = get_plan(Fr)
        return vals, LimbVector(plan, to_planes(plan, vals))

    def test_sequence_protocol(self):
        vals, vec = self.make()
        assert len(vec) == len(vals)
        assert list(vec) == vals
        assert vec.to_list() == vals
        assert vec[0] == vals[0]
        assert vec[-1] == vals[-1]
        assert vec[3:9] == vals[3:9]
        with pytest.raises(IndexError):
            vec[len(vals)]

    def test_indexing_before_and_after_materialization(self):
        vals, vec = self.make()
        # pre-materialization: column reconstruction path
        assert vec[5] == vals[5]
        assert vec._materialized is None
        # slicing materializes; indexing then uses the cached list
        assert vec[:] == vals
        assert vec._materialized is not None
        assert vec[5] == vals[5]

    def test_equality(self):
        vals, vec = self.make()
        _, same = self.make()
        _, other = self.make(n=5)
        assert vec == vals
        assert vec == tuple(vals)
        assert vec == same
        assert not vec == other
        assert vec.__eq__(42) is NotImplemented

    def test_repr_mentions_shape(self):
        _, vec = self.make(n=17)
        assert "17" in repr(vec)

    def test_plan_invariants(self):
        from repro.fields.array_backend import get_plan

        for field in (Fr, Fq):
            plan = get_plan(field)
            assert plan.r == 1 << (30 * plan.limbs)
            assert 4 * field.modulus < plan.r  # cond-sub headroom
            assert plan.mont_scalar(1) == plan.mont_scalar(1)  # cached
            assert get_plan(field) is plan  # plan cache

    def test_wrap_table_passthrough(self):
        be = get_backend("array")
        vals, vec = self.make()
        wrapped = be.wrap_table(Fr, vec)
        assert wrapped is vec  # same-plan LimbVector is not re-converted
        rewrapped = be.wrap_table(Fr, vals)
        assert list(rewrapped) == vals

    def test_fold_tables_matches_per_table_fold(self):
        be = get_backend("array")
        rng = random.Random(SEED)
        tables = {
            name: [rng.randrange(P) for _ in range(16)] for name in "abc"
        }
        r = rng.randrange(P)
        batched = be.fold_tables(Fr, tables, r)
        assert list(batched) == list(tables)  # insertion order kept
        for name, t in tables.items():
            assert list(batched[name]) == list(be.fold(Fr, t, r))

    def test_fold_tables_mixed_lengths_falls_back(self):
        be = get_backend("array")
        rng = random.Random(SEED + 9)
        tables = {
            "a": [rng.randrange(P) for _ in range(16)],
            "b": [rng.randrange(P) for _ in range(8)],
        }
        r = rng.randrange(P)
        batched = be.fold_tables(Fr, tables, r)
        for name, t in tables.items():
            assert list(batched[name]) == list(be.fold(Fr, t, r))


class TestRegistryDegradation:
    def test_unavailable_backend_raises_clean_error(self, monkeypatch):
        monkeypatch.setitem(
            vector_mod._UNAVAILABLE, "phantom", "requires a unicorn"
        )
        with pytest.raises(BackendUnavailable, match="unicorn"):
            get_backend("phantom")
        # unavailable backends are reported but never listed as live
        assert "phantom" in unavailable_backends()
        assert "phantom" not in list_backends()

    def test_unknown_backend_still_a_value_error(self):
        with pytest.raises(ValueError, match="unknown vector backend"):
            get_backend("turbo")

    def test_backend_unavailable_is_a_runtime_error(self):
        assert issubclass(BackendUnavailable, RuntimeError)

    def test_registration_clears_unavailability(self):
        vector_mod._UNAVAILABLE["phantom"] = "requires a unicorn"
        try:
            vector_mod.register_backend("phantom", vector_mod.FusedBackend())
            assert "phantom" not in unavailable_backends()
            assert "phantom" in list_backends()
        finally:
            vector_mod._BACKENDS.pop("phantom", None)
            vector_mod._UNAVAILABLE.pop("phantom", None)

    def test_set_default_backend(self):
        previous = vector_mod.DEFAULT_BACKEND
        try:
            assert set_default_backend("fused") == "fused"
            assert vector_mod.DEFAULT_BACKEND == "fused"
            assert get_backend(None).name == "fused"
        finally:
            set_default_backend(previous)


class TestCliBackendChoices:
    """Every ``--backend`` CLI validates through the registry when the
    value is parsed (``repro.cli.vector_backend``): building a parser,
    and the ``fused`` default, never resolve the optional backends."""

    PARSERS = ["repro.service", "repro.cluster", "repro.fleet"]

    @staticmethod
    def _main(module):
        import importlib

        return importlib.import_module(f"{module}.__main__")

    def test_helper_accepts_exactly_the_registry(self):
        import argparse

        from repro.cli import vector_backend

        for name in list_backends():
            assert vector_backend(name) == name
        for name in ["nope", *unavailable_backends()]:
            with pytest.raises(argparse.ArgumentTypeError):
                vector_backend(name)

    @pytest.mark.parametrize("module", PARSERS)
    def test_parsers_accept_every_live_backend(self, module):
        parser = self._main(module).build_parser()
        assert parser.parse_args([]).backend == "fused"
        for name in list_backends():
            assert parser.parse_args(["--backend", name]).backend == name

    @pytest.mark.parametrize("module", PARSERS)
    def test_bad_backend_exits_2(self, module, capsys):
        with pytest.raises(SystemExit) as exc:
            self._main(module).main(["--backend", "nope"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown vector backend 'nope'" in err
        assert all(name in err for name in list_backends())

    @pytest.mark.parametrize("module", PARSERS)
    def test_unavailable_backend_exits_2_with_the_reason(
        self, module, capsys, monkeypatch
    ):
        monkeypatch.setitem(
            vector_mod._UNAVAILABLE, "phantom",
            "requires a unicorn (pip install repro-zkphire[unicorn])",
        )
        with pytest.raises(SystemExit) as exc:
            self._main(module).main(["--backend", "phantom"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "pip install repro-zkphire[unicorn]" in err
        assert "invalid choice" not in err

    def test_experiments_bad_backend_exits_2(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--backend", "nope"]) == 2
        assert "unknown vector backend 'nope'" in capsys.readouterr().err
        assert main(["--backend"]) == 2  # missing value

    def test_experiments_backend_sets_default(self):
        from repro.experiments.__main__ import _extract_backend

        rest, backend, err = _extract_backend(["--backend", "fused", "x"])
        assert (rest, backend, err) == (["x"], "fused", "")
        rest, backend, err = _extract_backend(["--backend=fused"])
        assert (rest, backend, err) == ([], "fused", "")
