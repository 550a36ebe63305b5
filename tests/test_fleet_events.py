"""The shared event-log schema: replay determinism and round-trips.

ISSUE 7 satellite: both runtimes emit one :class:`FleetEvent` schema.
The sim engine's log is stamped in model time, so the determinism
contract is strong — same seed, same churn trace ⇒ **bit-identical**
JSONL, line for line.  These tests lock that down, plus the schema's
serialization round-trip and the emit-time validation.
"""

import dataclasses
from types import SimpleNamespace

import pytest

import repro.fleet.__main__ as fleet_cli
from repro.cluster import ClusterConfig, NodeConfig, ProvingCluster
from repro.cluster.__main__ import main as cluster_main
from repro.service.traffic import TrafficGenerator
from repro.sim.events import EVENT_KINDS, EventLog, FleetEvent
from repro.workloads import ChurnEvent

CHURN = (
    ChurnEvent(0.6, 1, "crash"),
    ChurnEvent(1.2, 1, "recover"),
    ChurnEvent(1.35, 0, "crash"),
    ChurnEvent(2.0, 0, "recover"),
)


def scenario_log(seed: int = 11) -> EventLog:
    generator = TrafficGenerator("zipf-mixed", seed=seed)
    config = ClusterConfig(
        num_nodes=2,
        policy="affinity",
        time_model="functional",
        max_retries=3,
        node=NodeConfig(max_vars=generator.max_vars()),
    )
    with ProvingCluster(config) as cluster:
        cluster.run_scenario(generator.jobs(16), churn=CHURN)
        return cluster.events


class TestSimReplay:
    def test_same_seed_same_churn_replays_bit_identically(self):
        first, second = scenario_log(seed=11), scenario_log(seed=11)
        assert EventLog.replay_identical(first, second)
        assert first.to_jsonl() == second.to_jsonl()

    def test_different_seed_diverges(self):
        assert not EventLog.replay_identical(
            scenario_log(seed=11), scenario_log(seed=12)
        )

    def test_scenario_log_covers_failure_lifecycle(self):
        kinds = scenario_log(seed=11).kinds()
        assert kinds["node_down"] == 2
        assert kinds["node_up"] >= 2  # recoveries (+ initial fleet is sim-up)
        assert kinds["job_crashed"] >= 1
        assert kinds["job_retried"] >= 1
        assert kinds["job_accepted"] == 16
        assert kinds["job_completed"] + kinds.get("job_failed", 0) == 16

    def test_crashed_job_lifecycle_is_ordered(self):
        log = scenario_log(seed=11)
        crashed_ids = {
            e.job_id for e in log if e.kind == "job_crashed"
        }
        for job_id in crashed_ids:
            kinds = [e.kind for e in log.for_job(job_id)]
            assert kinds[0] == "job_accepted"
            assert kinds[-1] in ("job_completed", "job_failed")
            assert "job_crashed" in kinds


class TestSchema:
    def test_jsonl_round_trip(self):
        log = EventLog()
        log.emit("job_accepted", job_id=0, tag="t")
        log.emit("job_assigned", job_id=0, node_id="node-1", attempt=1)
        log.emit("node_down", node_id="node-1", reason="crash")
        replayed = EventLog.loads(log.to_jsonl())
        assert EventLog.replay_identical(log, replayed)
        assert replayed[1].detail == {}
        assert replayed[2].detail == {"reason": "crash"}

    def test_write_and_load(self, tmp_path):
        log = EventLog(clock=lambda: 2.5)
        log.emit("job_completed", job_id=3, node_id="node-0", cache_hit=True)
        path = tmp_path / "events.jsonl"
        log.write(path)
        (event,) = EventLog.load(path)
        assert event == FleetEvent(
            seq=0,
            at_s=2.5,
            kind="job_completed",
            job_id=3,
            node_id="node-0",
            detail={"cache_hit": True},
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            EventLog().emit("job_teleported")

    def test_sequence_numbers_total_order_equal_stamps(self):
        log = EventLog()  # default clock stamps everything 0.0
        for kind in EVENT_KINDS:
            log.emit(kind)
        assert [e.seq for e in log] == list(range(len(EVENT_KINDS)))


    def test_job_shed_is_a_valid_kind(self):
        assert "job_shed" in EVENT_KINDS
        log = EventLog()
        log.emit("job_shed", job_id=7, tenant="tenant-1")
        assert log.events[-1].kind == "job_shed"


class TestRecord:
    """The event record is built without per-field ``object.__setattr__``
    (one per emit on the sim hot path) and must still behave as the
    frozen dataclass it declares itself to be."""

    EVENT = FleetEvent(
        seq=4,
        at_s=1.25,
        kind="job_completed",
        job_id=9,
        node_id="node-2",
        attempt=1,
        detail={"cache_hit": False},
    )

    def test_rejects_attribute_assignment(self):
        for name in ("seq", "at_s", "kind", "job_id", "node_id", "detail", "new"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(self.EVENT, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del self.EVENT.kind

    def test_fields_defaults_and_equality(self):
        names = [f.name for f in dataclasses.fields(FleetEvent)]
        assert names == [
            "seq", "at_s", "kind", "job_id", "node_id", "attempt", "detail",
        ]
        bare = FleetEvent(0, 0.0, "node_up")
        assert (bare.job_id, bare.node_id, bare.attempt) == (None, None, 0)
        assert bare.detail == {} and bare.detail is not FleetEvent(0, 0.0, "node_up").detail
        assert bare == FleetEvent(seq=0, at_s=0.0, kind="node_up", detail={})
        assert bare != dataclasses.replace(bare, seq=1)
        assert "kind='node_up'" in repr(bare)

    def test_line_round_trip(self):
        line = self.EVENT.to_line()
        assert line == (
            '{"at_s":1.25,"attempt":1,"detail":{"cache_hit":false},'
            '"job_id":9,"kind":"job_completed","node_id":"node-2","seq":4}'
        )
        assert FleetEvent.from_line(line) == self.EVENT
        assert FleetEvent.from_line(line).to_line() == line

    def test_emit_builds_the_same_record(self):
        log = EventLog(clock=lambda: 1.25)
        for _ in range(4):
            log.emit("node_up")
        log.emit(
            "job_completed", job_id=9, node_id="node-2", attempt=1, cache_hit=False
        )
        assert log.events[-1] == self.EVENT and log.events[-1] is log.events[-1]


def eager_records(log: EventLog) -> list[FleetEvent]:
    """The records of ``log`` built one by one from its emitted rows."""
    return [FleetEvent(seq, *row) for seq, row in enumerate(log._rows)]


class TestRowStore:
    """``emit`` appends a row; records are built when the log is read."""

    def test_records_built_on_read_equal_eager_ones(self):
        log = scenario_log(seed=11)
        eager = eager_records(log)
        built = log.events
        assert len(built) == len(eager) == len(log)
        for lazy, early in zip(built, eager):
            assert lazy == early
            assert dataclasses.asdict(lazy) == dataclasses.asdict(early)
            assert lazy.to_line() == early.to_line()

    def test_emit_after_read_extends_the_built_list(self):
        log = EventLog(clock=lambda: 0.5)
        log.emit("node_up", node_id="node-0")
        first = log.events
        assert [e.seq for e in first] == [0]
        log.emit("job_accepted", job_id=0, tag="t")
        log.emit("job_assigned", job_id=0, node_id="node-0")
        again = log.events
        assert again is first
        assert [e.seq for e in again] == [0, 1, 2]
        assert again[1:] == eager_records(log)[1:]
        assert [e.kind for e in log] == ["node_up", "job_accepted", "job_assigned"]

    def test_len_builds_no_records(self, monkeypatch):
        built = []
        original = FleetEvent.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        log = EventLog()
        for _ in range(5):
            log.emit("node_up")
        monkeypatch.setattr(FleetEvent, "__init__", counting_init)
        assert len(log) == 5
        assert built == []
        assert log.kinds() == {"node_up": 5}
        assert len(built) == 5
        log.to_jsonl()
        assert len(built) == 5  # read once, built once

    def test_emit_returns_none_and_unknown_kind_raises_at_emit(self):
        log = EventLog()
        assert log.emit("node_up") is None
        with pytest.raises(ValueError, match="unknown event kind"):
            log.emit("job_teleported", job_id=1)
        assert len(log) == 1

    def test_wall_clock_log_round_trips(self, tmp_path):
        stamps = iter([0.0125, 0.5, 1.75])
        log = EventLog(clock=lambda: next(stamps))
        log.emit("node_up", node_id="node-0", pid=4242)
        log.emit("job_accepted", job_id=0, tag="zipf/vanilla-mu4")
        log.emit("job_completed", job_id=0, node_id="node-0", cache_hit=False)
        path = tmp_path / "fleet.jsonl"
        log.write(path)
        assert path.read_text() == log.to_jsonl()
        loaded = EventLog.load(path)
        assert EventLog.replay_identical(log, loaded)
        assert [e.at_s for e in loaded] == [0.0125, 0.5, 1.75]
        assert loaded == log.events


class TestClusterCliEvents:
    """``repro-cluster --events PATH`` writes one cell's log."""

    @pytest.fixture
    def written(self, monkeypatch):
        """Every log the CLI writes, as its ``to_jsonl()`` at write time."""
        logs: list[str] = []
        write = EventLog.write

        def recording_write(self, path):
            logs.append(self.to_jsonl())
            write(self, path)

        monkeypatch.setattr(EventLog, "write", recording_write)
        return logs

    @pytest.mark.parametrize(
        "argv",
        [
            ["--nodes", "2", "--policies", "affinity", "--jobs", "16"],
            ["--nodes", "2", "--policies", "affinity", "--jobs", "16"]
            + ["--churn-rate", "0.2", "--max-retries", "3"],
            ["--open-loop", "--admission", "--nodes", "2"]
            + ["--policies", "least_loaded", "--jobs", "60"],
        ],
        ids=["closed", "scenario", "open-loop"],
    )
    def test_file_is_the_engine_log(self, argv, tmp_path, written, capsys):
        path = tmp_path / "events.jsonl"
        assert cluster_main([*argv, "--json", "--events", str(path)]) == 0
        text = path.read_text()
        assert written == [text]
        events = EventLog.loads(text)
        assert len(events) == len(text.splitlines()) > 0
        assert [e.seq for e in events] == list(range(len(events)))
        assert "job_completed" in {e.kind for e in events}

    @pytest.mark.parametrize(
        "extra",
        [
            ["--nodes", "1,2", "--policies", "affinity"],
            ["--nodes", "2"],
            ["--nodes", "2", "--policies", "affinity,round_robin"],
        ],
    )
    def test_more_than_one_cell_exits_2(self, extra, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        with pytest.raises(SystemExit) as exc:
            cluster_main([*extra, "--jobs", "8", "--events", str(path)])
        assert exc.value.code == 2
        assert "one --nodes value" in capsys.readouterr().err
        assert not path.exists()

    def test_later_argument_error_leaves_no_file(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        with pytest.raises(SystemExit) as exc:
            cluster_main(
                ["--nodes", "2", "--policies", "affinity", "--events", str(path)]
                + ["--carbon-trace", "diurnal", "--power-cap", "1"]
            )
        assert exc.value.code == 2
        assert "--power-cap" in capsys.readouterr().err
        assert not path.exists()

    def test_unwritable_path_exits_2(self, tmp_path, capsys):
        for path in (tmp_path / "missing" / "events.jsonl", tmp_path):
            with pytest.raises(SystemExit) as exc:
                cluster_main(
                    ["--nodes", "2", "--policies", "affinity", "--events", str(path)]
                )
            assert exc.value.code == 2
            assert "cannot write" in capsys.readouterr().err


class TestFleetCliEvents:
    """``repro-fleet --events PATH``: checked before any worker starts,
    written after the run."""

    @pytest.fixture
    def runs(self, monkeypatch):
        """Every ``run`` the CLI makes; none spawns a worker."""
        calls = []

        def fake_run(scenario, **kwargs):
            calls.append((scenario, kwargs))
            return SimpleNamespace(summary={"jobs": 16}, events=scenario_log())

        def no_validation(*args, **kwargs):
            raise AssertionError("--validate must exit 2 before running")

        monkeypatch.setattr(fleet_cli, "run", fake_run)
        monkeypatch.setattr(fleet_cli, "run_validation", no_validation)
        return calls

    def test_unwritable_path_exits_2_before_the_run(self, runs, tmp_path, capsys):
        for path in (tmp_path / "missing" / "events.jsonl", tmp_path):
            with pytest.raises(SystemExit) as exc:
                fleet_cli.main(["--jobs", "1", "--nodes", "1", "--events", str(path)])
            assert exc.value.code == 2
            assert "cannot write" in capsys.readouterr().err
        assert runs == []

    def test_validate_with_events_exits_2(self, runs, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        with pytest.raises(SystemExit) as exc:
            fleet_cli.main(["--validate", "--events", str(path)])
        assert exc.value.code == 2
        assert "drop --events" in capsys.readouterr().err
        assert not path.exists()

    def test_run_mode_writes_the_fleet_log(self, runs, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        argv = ["--nodes", "2", "--policy", "round_robin", "--timeout-s", "9"]
        assert fleet_cli.main([*argv, "--json", "--events", str(path)]) == 0
        assert path.read_text() == scenario_log().to_jsonl()
        [(scenario, kwargs)] = runs
        assert (scenario.nodes, scenario.policy, scenario.seed) == (2, "round_robin", 7)
        assert kwargs["runtime"] == "fleet" and kwargs["job_timeout_s"] == 9.0

    def test_validate_hands_every_shared_flag_to_the_scenario(
        self, monkeypatch, capsys
    ):
        bases = []

        def record_base(base, **kwargs):
            bases.append(base)
            return {"policies": {}}

        monkeypatch.setattr(fleet_cli, "run_validation", record_base)
        argv = ["--validate", "--replicas", "7", "--max-retries", "0"]
        assert fleet_cli.main([*argv, "--respect-arrivals", "--json"]) == 0
        [base] = bases
        assert (base.replicas, base.max_retries, base.respect_arrivals) == (7, 0, True)
        assert '"policies"' in capsys.readouterr().out
