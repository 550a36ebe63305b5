"""Real-fleet contracts: parity with the sim, and the hard async paths.

ISSUE 7 coverage:

* **placement parity** — failure-free fleet runs route every job to the
  same node the cluster sim routes it to, for every policy (the
  foundation the predicted-vs-measured validation rests on);
* **byte identity** — proofs from N worker processes equal a single
  sync service's proofs bit for bit, under every routing policy and for
  a job retried after its node was killed;
* **failure detection** — a frozen (wedged) worker misses heartbeats,
  is killed, and its in-flight job retries elsewhere;
* **cancellation** — killing a node mid-prove crashes the in-flight
  job, excludes the loser, and completes the retry on a peer;
* **double crash** — the same node killed twice (respawn between)
  keeps handles, monitor state, and the router coherent;
* **churn recovery** — a recovery event never spawns a second worker
  beside a replacement that is still starting;
* **graceful drain** — a run cut off by ``run_timeout_s`` stops its
  workers cleanly with jobs still queued, no crash accounting;
* **build-once SRS** — a worker's final probe shows exactly one SRS
  construction however many jobs it proved;
* **start-up failure** — a worker that exits before ``ready`` fails the
  run at once with its node id and exit code.

Everything is seeded and event-driven — no sleeps in assertions; chaos
is injected through the fleet's deterministic action hooks.
"""

import asyncio
import functools
import json
import os
import sys
import threading
import time
from types import SimpleNamespace

import pytest
from goldens import canonical_text

from repro.cluster.core import ClusterConfig, ProvingCluster
from repro.cluster.nodes import NodeConfig
from repro.cluster.records import JobRecord
from repro.cluster.routing import ROUTING_POLICIES
from repro.fleet.core import (
    FleetConfig,
    FleetStalledError,
    ProvingFleet,
    WorkerStartupError,
    _Handle,
)
from repro.fleet.__main__ import print_run
from repro.fleet.scenario import Scenario
from repro.fleet.validation import significant_pairs
from repro.fleet.worker import worker_main
from repro.service.core import ProvingService, ServiceConfig
from repro.service.jobs import ProofJob
from repro.service.traffic import synthesize_circuit
from repro.sim.events import EventLog
from repro.traffic import OpenLoopTraffic
from repro.workloads import scenario_by_name
from repro.workloads.churn import ChurnEvent

SCENARIO = "zipf-mixed"
SEED = 7
#: heartbeats a worker may miss before it is declared dead in a calm
#: parity run: 5 s at the default 0.05 s period (the default 0.3 s kills
#: a worker a loaded 2-vCPU host starves)
CALM_HEARTBEAT_MISSES = 100.0


def make_fleet(**kwargs) -> ProvingFleet:
    defaults = dict(
        num_nodes=2,
        policy="round_robin",
        time_model="functional",
        node=NodeConfig(max_vars=scenario_by_name(SCENARIO).max_log2_gates),
        run_timeout_s=180.0,
    )
    defaults.update(kwargs)
    return ProvingFleet(FleetConfig(**defaults))


def stream(n: int):
    """``n`` jobs that all arrive at t=0, each with its own witness: the
    fleet takes each job at its ``arrival_s``, and these tests drive a
    saturated batch.  The stream's jobs of one shape share one circuit,
    so their proofs would be equal; own witnesses keep a proof filed
    under another job's id from passing the byte oracle."""
    jobs = list(OpenLoopTraffic(SCENARIO, seed=SEED, max_jobs=n).jobs())
    for witness_seed, job in enumerate(jobs, 1):
        job.arrival_s = 0.0
        job.circuit = synthesize_circuit(
            job.circuit.gate_type, job.circuit.num_vars, witness_seed=witness_seed
        )
    return jobs


@functools.cache
def reference(n: int) -> dict[int, object]:
    """One sync service's proofs of ``stream(n)``, by job id; pairwise
    distinct."""
    config = ServiceConfig(
        max_vars=scenario_by_name(SCENARIO).max_log2_gates,
        srs_seed=NodeConfig.srs_seed,
        executor="sync",
    )
    with ProvingService(config) as service:
        proofs = {r.job_id: r.proof for r in service.run(stream(n))}
    assert len({canonical_text(proof) for proof in proofs.values()}) == n
    return proofs


def exit_3(spec, inbox, outbox):
    """A worker target that dies during start-up (module level so the
    forkserver child can import it)."""
    sys.exit(3)


def wedge_node_1(spec, inbox, outbox):
    """node-1 reports ready, then goes silent holding its outbox's write
    lock — what a worker SIGKILLed inside ``put`` leaves behind; every
    other node serves as usual."""
    if spec.node_id != "node-1":
        return worker_main(spec, inbox, outbox)
    outbox.put((spec.node_id, "ready", os.getpid()))
    outbox.close()
    outbox.join_thread()
    outbox._wlock.acquire()
    time.sleep(60)


def threads_left(before: set) -> list[str]:
    """Threads started since ``before`` still alive after a grace period
    (a closed queue's feeder exits on its own)."""
    deadline = time.monotonic() + 30.0
    while set(threading.enumerate()) - before and time.monotonic() < deadline:
        time.sleep(0.01)
    return [thread.name for thread in set(threading.enumerate()) - before]


class TestParity:
    @pytest.mark.parametrize("policy", ROUTING_POLICIES)
    def test_failure_free_placement_matches_sim(self, policy):
        traffic = OpenLoopTraffic(SCENARIO, seed=SEED, max_jobs=8)
        config = ClusterConfig(
            num_nodes=3,
            policy=policy,
            time_model="functional",
            node=NodeConfig(max_vars=traffic.max_vars()),
        )
        jobs = list(traffic.jobs())
        for job in jobs:
            job.arrival_s = 0.0  # the same saturated batch as stream()
        with ProvingCluster(config) as cluster:
            sim_records = cluster.run(jobs)
        fleet = make_fleet(
            num_nodes=3, policy=policy, heartbeat_misses=CALM_HEARTBEAT_MISSES
        )
        fleet_records = fleet.run(stream(8))
        downs = [event for event in fleet.events if event.kind == "node_down"]
        assert not downs, f"a worker was declared dead in a calm run: {downs}"
        sim_placement = {r.job_id: r.node_id for r in sim_records}
        fleet_placement = {r.job_id: r.node_id for r in fleet_records}
        assert fleet_placement == sim_placement
        # same placement must also mean same cache behavior per job
        assert {r.job_id: r.cache_hit for r in fleet_records} == {
            r.job_id: r.cache_hit for r in sim_records
        }
        # sharding moves work, never changes it
        assert fleet.proofs == reference(8)

    def test_fleet_proofs_byte_identical_to_service(self):
        fleet = make_fleet(num_nodes=2, policy="affinity")
        fleet.run(stream(6))
        assert fleet.proofs == reference(6)

    def test_significant_pairs_orders_and_filters(self):
        pairs = significant_pairs(
            {"a": 1.0, "b": 1.05, "c": 2.0}, significance=0.10
        )
        assert pairs == [("a", "c"), ("b", "c")]


class TestFailurePaths:
    def test_frozen_worker_misses_heartbeats_and_job_retries(self):
        """Asserts on what was detected and how it was handled (event
        kinds, the ``node_down`` reason), never on who proved what how
        fast: on a loaded host a stalled survivor may be declared dead
        too, and respawning (the default) absorbs that."""
        fleet = make_fleet(
            num_nodes=2,
            policy="round_robin",
            heartbeat_s=0.05,
            heartbeat_misses=4.0,
        )
        actions = [(0.0, lambda f: f.freeze("node-0", 30.0))]
        records = fleet.run(stream(4), actions=actions)
        assert len(records) + len(fleet.failed_jobs) == 4
        kinds = fleet.events.kinds()
        assert kinds["job_crashed"] >= 1
        assert kinds["job_retried"] >= 1
        assert fleet.stats.crashes == kinds["node_down"] >= 1
        downs = [e for e in fleet.events if e.kind == "node_down"]
        assert downs[0].node_id == "node-0"
        assert {e.detail["reason"] for e in downs} == {"heartbeat"}

    def test_every_node_down_without_respawn_fails_fast_by_name(self):
        """One node, killed with a job in flight and three parked behind
        it: nothing can finish them, so the run ends now, by name, not
        after ``run_timeout_s`` (180 s here)."""
        fleet = make_fleet(num_nodes=1, auto_respawn=False)
        ended: list[float] = []
        real_shutdown = fleet._shutdown

        async def timed_shutdown():
            ended.append(fleet._now())
            await real_shutdown()

        fleet._shutdown = timed_shutdown
        actions = [(0.05, lambda f: f.kill("node-0"))]
        with pytest.raises(FleetStalledError, match=r"node-0.*'kill'.*jobs still owed"):
            fleet.run(stream(4), actions=actions)
        # from the kill to the end of the run: a few heartbeats, not the
        # timeout (run-relative clock, so worker start-up is not in it)
        assert ended and ended[0] < 2.0
        assert fleet.stats.crashes == 1
        assert len(fleet.records) + len(fleet.failed_jobs) < 4
        assert not any(h.process.is_alive() for h in fleet._handles.values())

    def test_kill_cancels_in_flight_job_and_excludes_loser(self):
        fleet = make_fleet(
            num_nodes=2, policy="round_robin", auto_respawn=False
        )
        actions = [(0.02, lambda f: f.kill("node-0"))]
        records = fleet.run(stream(4), actions=actions)
        assert len(records) == 4
        assert not fleet.failed_jobs
        assert fleet.stats.crashes == 1
        # round_robin sent job 0 to node-0; the kill caught it in flight
        crashed = [e for e in fleet.events if e.kind == "job_crashed"]
        assert [e.job_id for e in crashed] == [0]
        record = {r.job_id: r for r in records}[0]
        assert record.attempt == 1
        assert record.node_id == "node-1"
        assert fleet.stats.lost_model_s > 0.0
        # retried job 0 proves exactly the bytes an uninterrupted run does
        assert fleet.proofs == reference(4)

    def test_double_crash_of_same_node(self):
        fleet = make_fleet(
            num_nodes=2, policy="round_robin", max_retries=3
        )

        def kill_again(f):
            # wait for the respawned generation, then kill it for good
            if f._handles["node-0"].up:
                f.kill("node-0", respawn=False)
            elif not f._shutting_down:
                f._loop.call_later(0.05, kill_again, f)

        actions = [
            (0.02, lambda f: f.kill("node-0")),
            (0.1, kill_again),
        ]
        records = fleet.run(stream(10), actions=actions)
        assert len(records) == 10
        assert not fleet.failed_jobs
        assert fleet.stats.crashes == 2
        downs = [e for e in fleet.events if e.kind == "node_down"]
        assert [e.node_id for e in downs] == ["node-0", "node-0"]
        # two generations of node-0 came up: initial + one respawn
        pids = [
            e.detail["pid"]
            for e in fleet.events
            if e.kind == "node_up" and e.node_id == "node-0"
        ]
        assert len(pids) == 2
        assert len(set(pids)) == 2

    def test_run_timeout_drains_gracefully_with_queued_jobs(self):
        fleet = make_fleet(num_nodes=1, run_timeout_s=0.25)
        # asyncio.TimeoutError: the builtin alias on 3.11+, its own
        # class on 3.10 — name the asyncio one so both match
        with pytest.raises(asyncio.TimeoutError):
            fleet.run(stream(16))
        # cut off early: work remained, but the stop was a drain, not a
        # crash — worker exited cleanly and reported its final snapshot
        assert len(fleet.records) < 16
        assert fleet.stats.crashes == 0
        assert all(
            not h.process.is_alive() for h in fleet._handles.values()
        )
        assert fleet.worker_probes
        final = fleet.worker_probes[-1]
        assert final.srs_builds == 1
        assert final.jobs_proved >= len(fleet.records)

    def test_worker_dying_before_ready_fails_fast_by_name(self, monkeypatch):
        monkeypatch.setattr("repro.fleet.core.worker_main", exit_3)
        fleet = make_fleet(num_nodes=2)
        started = time.monotonic()
        with pytest.raises(WorkerStartupError, match=r"node-\d exited with code 3"):
            fleet.run(stream(2))
        assert time.monotonic() - started < 60.0  # not the 120 s ready wait
        assert not any(h.process.is_alive() for h in fleet._handles.values())

    def test_a_run_leaves_no_thread_behind(self):
        """Each worker generation's reader and queue feeders end with the
        run, a killed and respawned one's included."""
        before = set(threading.enumerate())
        fleet = make_fleet(num_nodes=2, policy="round_robin")
        fleet.run(stream(4), actions=[(0.02, lambda f: f.kill("node-0"))])
        assert len(fleet._spawned) == 3
        assert threads_left(before) == []

    def test_a_worker_killed_holding_its_outbox_lock_blocks_no_thread(
        self, monkeypatch
    ):
        """The coordinator never writes to a dead worker's outbox: a
        wakeup sent there would wait forever on the lock the worker died
        holding, and the interpreter, which joins that queue's feeder at
        exit, would never exit."""
        monkeypatch.setattr("repro.fleet.core.worker_main", wedge_node_1)
        before = set(threading.enumerate())
        fleet = make_fleet(num_nodes=2, policy="round_robin", auto_respawn=False)
        records = fleet.run(stream(4))
        assert len(records) == 4
        assert fleet.stats.crashes == 1
        down = [e for e in fleet.events if e.kind == "node_down"]
        assert [(e.node_id, e.detail["reason"]) for e in down] == [
            ("node-1", "heartbeat")
        ]
        assert threads_left(before) == []

    def test_single_run_guard(self):
        fleet = make_fleet(num_nodes=1)
        fleet.run(stream(1))
        with pytest.raises(RuntimeError):
            fleet.run(stream(1))


class TestChurnRecovery:
    """A churn recovery spawns a worker only for a node that has none up
    or starting.  The fleet never runs and ``_spawn`` is replaced, so no
    process starts."""

    @staticmethod
    def recover(*, ready: bool, exitcode: int | None) -> list[str]:
        fleet = ProvingFleet(FleetConfig(num_nodes=1))
        handle = _Handle("node-0", SimpleNamespace(exitcode=exitcode), None, None)
        if ready:
            handle.ready.set()
        fleet._handles["node-0"] = handle
        spawned: list[str] = []
        fleet._spawn = spawned.append
        fleet._on_churn(ChurnEvent(at_s=1.0, node_index=0, kind="recover"))
        return spawned

    def test_replacement_still_starting_is_not_spawned_twice(self):
        # a heartbeat or timeout respawn is under way: not ready, alive
        assert self.recover(ready=False, exitcode=None) == []

    def test_dead_node_is_spawned(self):
        assert self.recover(ready=True, exitcode=-9) == ["node-0"]
        assert self.recover(ready=False, exitcode=3) == ["node-0"]


class TestWorkerState:
    def test_worker_probe_shows_build_once_srs(self):
        fleet = make_fleet(num_nodes=1, policy="affinity")
        actions = [(0.1, lambda f: f.probe_workers())]
        records = fleet.run(stream(5), actions=actions)
        assert len(records) == 5
        # mid-run probe plus the final stop snapshot, same process
        assert len(fleet.worker_probes) >= 2
        assert {p.srs_builds for p in fleet.worker_probes} == {1}
        assert {p.pid for p in fleet.worker_probes} == {
            fleet.worker_probes[0].pid
        }
        final = fleet.worker_probes[-1]
        assert final.jobs_proved == 5
        assert final.cache_capacity == fleet.config.node.cache_capacity

    def test_node_srs_of_max_vars_proves_a_max_vars_job(self):
        """``NodeConfig.max_vars`` is the worker's SRS size: the stream's
        first job is μ=4 and proves on a 4-variable SRS (nothing in a
        proof is committed at arity μ+1), to the service's very proof."""
        (job,) = stream(1)
        assert job.circuit.num_vars == 4
        fleet = make_fleet(num_nodes=1, node=NodeConfig(max_vars=4))
        (record,) = fleet.run([job])
        with ProvingService(ServiceConfig(
            max_vars=4, srs_seed=fleet.config.node.srs_seed,
        )) as service:
            assert service.kzg.srs.max_vars == 4
            (expected,) = service.run(stream(1))
        assert fleet.proofs[record.job_id] == expected.proof

    def test_fleet_event_log_is_structurally_complete(self):
        fleet = make_fleet(num_nodes=2, policy="round_robin")
        records = fleet.run(stream(4))
        kinds = fleet.events.kinds()
        assert kinds["node_up"] == 2
        assert kinds["job_accepted"] == 4
        assert kinds["job_assigned"] == 4
        assert kinds["job_completed"] == 4
        # per-job lifecycle is ordered accept -> assign -> complete
        for record in records:
            lifecycle = [
                e.kind for e in fleet.events.for_job(record.job_id)
            ]
            assert lifecycle == [
                "job_accepted",
                "job_assigned",
                "job_completed",
            ]
        # the log round-trips through JSONL
        replayed = EventLog.loads(fleet.events.to_jsonl())
        assert EventLog.replay_identical(fleet.events, replayed)


def summary_fixture() -> ProvingFleet:
    """A two-node fleet with five hand-built records, one of them a
    crash retry, and one failed deadline job; ``run`` is never called,
    so no worker process starts."""
    fleet = ProvingFleet(FleetConfig(num_nodes=2))
    rows = [
        # job, node, arrival, start, finish, prove, install, hit, deadline, attempt
        (0, "node-0", 0.0, 0.0, 1.0, 0.75, 0.25, False, 2.0, 0),
        (1, "node-1", 0.0, 0.0, 1.5, 1.0, 0.5, False, None, 0),
        (2, "node-0", 0.5, 1.0, 2.0, 1.0, 0.0, True, 1.5, 0),
        (3, "node-1", 1.0, 1.5, 3.5, 2.0, 0.0, True, None, 1),
        (4, "node-0", 2.0, 2.0, 4.0, 1.5, 0.5, False, 3.0, 0),
    ]
    fleet.records = [
        JobRecord(
            job_id=job_id, tag=f"t{job_id}", circuit_key="k",
            node_id=node_id, arrival_s=arrival, start_s=start,
            finish_s=finish, prove_model_s=prove, install_model_s=install,
            cache_hit=hit, deadline_s=deadline, attempt=attempt,
        )
        for (job_id, node_id, arrival, start, finish, prove, install, hit,
             deadline, attempt) in rows
    ]
    fleet.failed_jobs = [
        ProofJob(job_id=5, circuit=None, circuit_key="k", deadline_s=5.0)
    ]
    fleet.stats.crashes, fleet.stats.retries, fleet.stats.requeues = 1, 1, 2
    fleet.stats.exclusion_waivers, fleet.stats.lost_model_s = 1, 0.3
    fleet.stats.failed = len(fleet.failed_jobs)
    return fleet


class TestSummary:
    def test_summary_values_and_key_order(self):
        expected = {
            "policy": "affinity",
            "time_model": "functional",
            "nodes": 2,
            "jobs": 5,
            "measured": {
                "makespan_s": 4.0,
                "throughput_jobs_per_s": 1.25,
                # sorted latencies 1.0, 1.5, 1.5, 2.0, 2.5
                "latency_s": {"p50": 1.5, "p95": 2.4, "max": 2.5},
                "install_s": 1.25,
                "prove_s": 6.25,
                "install_share": 0.1667,
                "busy_s": {"node-0": 4.0, "node-1": 3.5},
                "load_imbalance": 1.0667,
            },
            "cache": {"hits": 2, "misses": 3, "hit_rate": 0.4},
            "routing": {"jobs_per_node": {"node-0": 3, "node-1": 2}},
            # the sim's block: lost_model_s holds wall seconds here
            "resilience": {
                "crashes": 1,
                "recoveries": 0,
                "retries": 1,
                "requeues": 2,
                "parked": 0,
                "exclusion_waivers": 1,
                "failed_jobs": 1,
                "lost_model_s": 0.3,
                "autoscale": {"scale_outs": 0, "scale_ins": 0, "actions": []},
            },
            # jobs 0, 2, 4 and the failed job carry deadlines; 2 and 4
            # finish 0.5 s and 1.0 s late
            "deadlines": {
                "jobs": 4,
                "met": 1,
                "missed": 3,
                "missed_by_failure": 1,
                "miss_rate": 0.75,
                "max_lateness_s": 1.0,
                "mean_lateness_s": 0.75,
            },
            "retries": {
                "jobs_retried": 1,
                "attempts": 1,
                "max_attempt": 1,
                "mean_latency_first_try_s": 1.5,
                "mean_latency_retried_s": 2.5,
                "p95_latency_retried_s": 2.5,
            },
        }
        summary = summary_fixture().summary()
        assert summary == expected
        # the JSON a run prints, key order included
        assert json.dumps(summary) == json.dumps(expected)

    def test_print_run_renders_the_summary(self, capsys):
        print_run(Scenario(SCENARIO, seed=0), summary_fixture().summary())
        out = capsys.readouterr().out
        assert "makespan 4.000s" in out
        assert "install share 16.7%" in out
        assert "failed 1  lost 0.300s (wall)" in out
