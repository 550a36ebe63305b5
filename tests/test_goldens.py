"""The registry of pinned artefacts and ``tools/goldens.py``."""

import importlib.util
import json
import re
from pathlib import Path

import goldens
import pytest

REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("tool", REPO / "tools" / "goldens.py")
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)


class TestRegistry:
    def test_no_digest_bypasses_the_record(self):
        """A 64-hex-digit literal outside the record is a pin that the
        registry can neither check nor re-record."""
        found = [
            f"{path.relative_to(REPO)}: {hit}"
            for top in ("tests", "tools", "benchmarks")
            for path in (REPO / top).rglob("*")
            if path.is_file()
            and path != goldens.RECORD
            and path.suffix != ".pyc"
            and not path.is_relative_to(REPO / "benchmarks" / "e2e")
            for hit in re.findall("[0-9a-fA-F]{64}", path.read_text(errors="replace"))
        ]
        assert found == []

    def test_record_names_are_the_builder_names(self):
        assert list(goldens.read_record(goldens.RECORD)) == list(goldens.BUILDERS)


@pytest.fixture
def record(tmp_path, monkeypatch):
    """A copy of the record that the tool reads and writes instead."""
    path = tmp_path / "goldens.json"
    path.write_text(goldens.RECORD.read_text())
    monkeypatch.setattr(goldens, "RECORD", path)
    return path


class TestTool:
    @pytest.mark.parametrize("content", [None, "{not json", '{"traffic/x": "abc"}'])
    def test_unreadable_record_exits_2_naming_it(self, record, content, capsys):
        if content is None:
            record.unlink()
        else:
            record.write_text(content)
        with pytest.raises(SystemExit) as raised:
            tool.main(["--check", "--only", "traffic/"])
        assert raised.value.code == 2
        assert str(record) in capsys.readouterr().err

    def test_check_names_a_tampered_entry(self, record, capsys):
        assert tool.main(["--check", "--only", "traffic/"]) == 0
        record.write_text(json.dumps({"traffic/zipf-mixed": "0" * 64}))
        assert tool.main(["--check", "--only", "traffic/"]) == 1
        assert "traffic/zipf-mixed" in capsys.readouterr().err

    def test_record_refuses_when_interpreters_disagree(
        self, record, monkeypatch, capsys
    ):
        before = record.read_bytes()
        monkeypatch.setattr(tool, "INTERPRETERS", ("3.10.1", "3.12.2"))
        monkeypatch.setattr(
            tool, "digests_under", lambda v, _: {"traffic/zipf-mixed": v[-1] * 64}
        )
        assert tool.main(["--record", "--only", "traffic/"]) != 0
        assert "traffic/zipf-mixed: interpreters disagree" in capsys.readouterr().err
        assert record.read_bytes() == before

    def test_record_rewrites_only_the_selected_entries(self, record, monkeypatch):
        before, built = record.read_bytes(), {}
        monkeypatch.setattr(tool, "digests_under", lambda version, prefixes: built)
        built["srs/seed1"] = goldens.pinned("srs/seed1")
        assert tool.main(["--record", "--only", "srs/seed1"]) == 0
        assert record.read_bytes() == before
        built["srs/seed1"] = "e" * 64
        assert tool.main(["--record", "--only", "srs/seed1"]) == 0
        assert json.loads(record.read_text()) == {**json.loads(before), **built}

    def test_unknown_prefix_exits_2(self, record, capsys):
        with pytest.raises(SystemExit) as raised:
            tool.main(["--check", "--only", "nothing/"])
        assert raised.value.code == 2
        assert "--only nothing/" in capsys.readouterr().err
