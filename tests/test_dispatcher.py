"""The shared job lifecycle and node work loop, driven directly.

:class:`~repro.cluster.records.Dispatcher` is the one copy of accept /
route / park / unpark / requeue / retry / fail that both the simulated
cluster (:class:`~repro.cluster.engine.ClusterEngine`, model time) and
the real fleet (:class:`~repro.fleet.core.ProvingFleet`, wall time)
inherit, together with a node's loss (``_node_lost``) and return
(``_node_back``) and the work loop that picks, starts and finishes each
job (``_arrive`` / ``kick`` / ``_finished``).  These tests run it under
a fake runtime whose hooks only record, over a real
:class:`~repro.cluster.routing.ClusterRouter`, so the parking, waiver,
retry-budget, requeue, node-lifecycle and pick-order rules are checked
without a simulator, a clock or a worker process — and, because neither
runtime overrides a lifecycle or loop method, for both runtimes at once.
"""

import pytest

from repro.cluster import ClusterEngine, ClusterRouter, Dispatcher, FleetTimeModel
from repro.cluster.records import JobQueue, JobRecord, arrival_order
from repro.fleet import ProvingFleet
from repro.service.traffic import TrafficGenerator
from repro.sim.events import EventLog
from repro.traffic import OpenLoopEngine

NODES = ("node-0", "node-1")
LIFECYCLE = (
    "_accept",
    "_route",
    "_unpark",
    "_requeue",
    "_lose",
    "_fail",
    "_node_lost",
    "_node_back",
    "_arrive",
    "kick",
    "_finished",
    "_check_done",
)


class FakeNode:
    """What the work loop reads of a runtime's node."""

    def __init__(self, node_id: str):
        self.node_id = node_id
        self.down = False
        self.in_flight = None
        self.queue = JobQueue()


class FakeRuntime(Dispatcher):
    """A runtime whose hooks record instead of running jobs: a launch
    only marks the node busy, and nothing finishes unless a test calls
    :meth:`~repro.cluster.records.Dispatcher._finished`."""

    def __init__(self, *, policy: str = "round_robin", max_retries: int = 2):
        time_model = FleetTimeModel.functional()
        router = ClusterRouter(policy, NODES, cost_model=time_model.prove_model)
        super().__init__(router, time_model, EventLog(), max_retries)
        self.nodes = {node_id: FakeNode(node_id) for node_id in NODES}
        self.calls: list[tuple] = []
        self.on_resolved = lambda job: self.calls.append(("resolved", job.job_id))

    def _enqueue(self, node_id, job):
        self.calls.append(("enqueue", node_id, job.job_id))
        node = self.nodes[node_id]
        node.queue.push(job)
        return node

    def _launch(self, node, job):
        self.calls.append(("launch", node.node_id, job.job_id))
        node.queue.remove(job)
        node.in_flight = job

    def _all_resolved(self):
        self.calls.append(("all_resolved",))

    def enqueued(self) -> list[tuple[str, int]]:
        return [call[1:] for call in self.calls if call[0] == "enqueue"]

    def launched(self) -> list[tuple[str, int]]:
        return [call[1:] for call in self.calls if call[0] == "launch"]

    def finish(self, node_id: str) -> None:
        """Report the node's in-flight job done, as a runtime would."""
        node = self.nodes[node_id]
        job, node.in_flight = node.in_flight, None
        record = JobRecord(
            job_id=job.job_id,
            tag=job.tag,
            circuit_key=job.circuit_key,
            node_id=node_id,
            arrival_s=job.arrival_s,
            start_s=0.0,
            finish_s=1.0,
            prove_model_s=1.0,
            install_model_s=0.0,
            cache_hit=False,
        )
        self._finished(node, job, record, self.time_model.price(job)[1])


def make_jobs(arrivals: list[float]) -> list:
    jobs = TrafficGenerator("uniform-small", seed=3).jobs(len(arrivals))
    for job, arrival in zip(jobs, arrivals):
        job.arrival_s = arrival
    return jobs


def kinds(runtime: FakeRuntime) -> list[str]:
    return [event.kind for event in runtime.events]


def trail(runtime: FakeRuntime) -> list[tuple]:
    """Each event as (kind, job_id, node_id)."""
    return [(e.kind, e.job_id, e.node_id) for e in runtime.events]


class TestLifecycle:
    def test_whole_fleet_down_parks_then_unparks_in_arrival_order(self):
        runtime = FakeRuntime()
        for node_id in NODES:
            runtime.router.mark_down(node_id)
        jobs = make_jobs([2.0, 1.0, 1.0])
        for job_id, job in enumerate(jobs):
            runtime._accept(job, job_id)
        assert runtime.stats.parked == 3
        assert runtime.calls == []
        assert kinds(runtime) == ["job_accepted"] * 3
        runtime.router.mark_up("node-1")
        runtime._unpark()
        assert runtime._parked == []
        # (arrival, job_id): the two 1.0 s arrivals by id, then the 2.0 s one
        assert runtime.enqueued() == [("node-1", 1), ("node-1", 2), ("node-1", 0)]
        assert runtime.calls[:2] == [("enqueue", "node-1", 1), ("launch", "node-1", 1)]
        assert runtime.stats.exclusion_waivers == 0

    def test_waiver_counted_when_only_the_loser_is_up(self):
        runtime = FakeRuntime()
        (job,) = make_jobs([0.0])
        runtime._accept(job, 0)
        assert runtime.enqueued() == [("node-0", 0)]
        runtime.router.mark_down("node-1")
        runtime._lose(job, "node-0")
        assert job.excluded_node_ids == ("node-0",)
        assert runtime.stats.exclusion_waivers == 1
        assert runtime.stats.parked == 0
        # the waived exclusion sends the retry back to the only up node
        assert runtime.enqueued() == [("node-0", 0), ("node-0", 0)]
        assert runtime.stats.retries == 1

    def test_loss_after_last_retry_fails_once(self):
        runtime = FakeRuntime(max_retries=1)
        (job,) = make_jobs([0.0])
        runtime._accept(job, 0)
        runtime._lose(job, "node-0")
        assert job.attempt == 1
        runtime._lose(job, "node-1")
        assert job.attempt == 2
        assert runtime.stats.retries == 1
        assert runtime.stats.failed == 1
        assert runtime.failed_jobs == [job]
        assert [c for c in runtime.calls if c[0] == "resolved"] == [("resolved", 0)]
        assert kinds(runtime) == [
            "job_accepted",
            "job_assigned",
            "job_crashed",
            "job_retried",
            "job_assigned",
            "job_crashed",
            "job_failed",
        ]

    def test_requeue_never_bumps_attempt(self):
        runtime = FakeRuntime(policy="least_loaded")
        jobs = make_jobs([0.5, 0.25, 0.75])
        for job_id, job in enumerate(jobs):
            runtime._accept(job, job_id)
        runtime.calls.clear()
        runtime.router.mark_down("node-0")
        runtime._requeue(jobs)
        assert runtime.stats.requeues == 3
        assert [job.attempt for job in jobs] == [0, 0, 0]
        assert [job.excluded_node_ids for job in jobs] == [(), (), ()]
        assert runtime.enqueued() == [("node-1", 1), ("node-1", 0), ("node-1", 2)]
        assert "job_retried" not in kinds(runtime)


class TestNodeLifecycle:
    @staticmethod
    def lose_node_0(max_retries: int) -> tuple[FakeRuntime, list]:
        """Round robin puts jobs 0, 2 and 4 on node-0; node-0 goes down
        proving job 0 with 2 and 4 queued (handed over unsorted)."""
        runtime = FakeRuntime(max_retries=max_retries)
        jobs = make_jobs([0.0, 0.0, 0.75, 0.0, 0.25])
        for job_id, job in enumerate(jobs):
            runtime._accept(job, job_id)
        assert runtime.enqueued()[::2] == [
            ("node-0", 0),
            ("node-0", 2),
            ("node-0", 4),
        ]
        start = len(runtime.events)
        runtime._node_lost("node-0", "kill", [jobs[2], jobs[4]], (jobs[0], 0.5))
        return runtime, trail(runtime)[start:]

    def test_node_lost_requeues_in_arrival_order_then_retries(self):
        runtime, events = self.lose_node_0(max_retries=2)
        assert events == [
            ("node_down", None, "node-0"),
            ("job_assigned", 4, "node-1"),
            ("job_assigned", 2, "node-1"),
            ("job_crashed", 0, "node-0"),
            ("job_retried", 0, None),
            ("job_assigned", 0, "node-1"),
        ]
        down = [e for e in runtime.events if e.kind == "node_down"]
        assert down[0].detail == {"reason": "kill"}
        assert runtime.router.down_node_ids == ["node-0"]
        stats = runtime.stats
        counts = (stats.crashes, stats.requeues, stats.retries, stats.failed)
        assert counts == (1, 2, 1, 0)
        assert stats.lost_model_s == 0.5

    def test_node_lost_fails_the_job_once_the_budget_is_spent(self):
        runtime, events = self.lose_node_0(max_retries=0)
        assert [kind for kind, _, _ in events] == [
            "node_down",
            "job_assigned",
            "job_assigned",
            "job_crashed",
            "job_failed",
        ]
        stats = runtime.stats
        counts = (stats.crashes, stats.requeues, stats.retries, stats.failed)
        assert counts == (1, 2, 0, 1)
        assert [c for c in runtime.calls if c[0] == "resolved"] == [("resolved", 0)]

    def test_idle_node_lost_counts_a_crash_and_no_lost_seconds(self):
        runtime = FakeRuntime()
        runtime._node_lost("node-1", "churn", [], None)
        assert kinds(runtime) == ["node_down"]
        assert (runtime.stats.crashes, runtime.stats.lost_model_s) == (1, 0.0)

    def test_node_back_marks_up_logs_then_unparks(self):
        runtime = FakeRuntime()
        for node_id in NODES:
            runtime._node_lost(node_id, "crash", [], None)
        jobs = make_jobs([1.0, 0.5])
        for job_id, job in enumerate(jobs):
            runtime._accept(job, job_id)
        assert runtime.stats.parked == 2
        start = len(runtime.events)
        runtime._node_back("node-1", reason="recover")
        assert trail(runtime)[start:] == [
            ("node_up", None, "node-1"),
            ("job_assigned", 1, "node-1"),
            ("job_assigned", 0, "node-1"),
        ]
        assert list(runtime.events)[start].detail == {"reason": "recover"}
        assert runtime.router.down_node_ids == ["node-0"]
        # a node that never went down (an instant scale-out) is only logged
        runtime._node_back("node-1", pid=42)
        assert runtime.router.down_node_ids == ["node-0"]
        assert kinds(runtime)[-1] == "node_up"


class RecordingGate:
    """A start gate that only records when the loop consults it."""

    def __init__(self, calls: list):
        self.calls = calls

    def arm(self, node):
        self.calls.append(("arm", node.node_id))

    def capacity_changed(self):
        self.calls.append(("capacity_changed",))


class TestWorkLoop:
    def test_an_instant_is_routed_whole_then_each_node_kicked_once(self):
        runtime = FakeRuntime()
        (first,) = make_jobs([0.0])
        runtime._arrive([first])
        runtime.finish("node-0")
        runtime.calls.clear()
        # round robin now starts at node-1, but the kicks go in node-id
        # order, after every job of the instant is queued
        runtime._arrive(make_jobs([0.0, 0.0, 0.0]))
        assert runtime.calls == [
            ("enqueue", "node-1", 1),
            ("enqueue", "node-0", 2),
            ("enqueue", "node-1", 3),
            ("launch", "node-0", 2),
            ("launch", "node-1", 1),
        ]
        assert kinds(runtime)[-6:] == ["job_accepted", "job_assigned"] * 3

    def test_a_node_starts_its_jobs_in_arrival_order(self):
        runtime = FakeRuntime()
        runtime._total_jobs = 6
        jobs = make_jobs([0.5, 0.25, 0.75, 0.0, 0.25, 0.5])
        runtime._arrive(jobs)
        for _ in range(2):
            for node_id in NODES:
                runtime.finish(node_id)
        for node_id in NODES:
            started = [jobs[job_id] for n, job_id in runtime.launched() if n == node_id]
            mine = [jobs[job_id] for n, job_id in runtime.enqueued() if n == node_id]
            assert started == sorted(mine, key=arrival_order)
        assert runtime.launched()[:2] == [("node-0", 4), ("node-1", 3)]
        assert ("all_resolved",) not in runtime.calls
        for node_id in NODES:
            runtime.finish(node_id)
        assert runtime.calls[-3:] == [
            ("resolved", 2),
            ("all_resolved",),
            ("resolved", 5),
        ]
        assert len(runtime.records) == 6

    def test_finished_books_releases_logs_then_restarts_the_node(self):
        runtime = FakeRuntime()
        runtime._total_jobs = 3
        jobs = make_jobs([0.0, 0.0, 0.0])
        runtime._arrive(jobs)
        charged = runtime.router.outstanding_s["node-0"]
        runtime.calls.clear()
        runtime.finish("node-0")
        assert [r.job_id for r in runtime.records] == [0]
        price = runtime.time_model.price(jobs[0])[1]
        assert runtime.router.outstanding_s["node-0"] == pytest.approx(charged - price)
        assert trail(runtime)[-1] == ("job_completed", 0, "node-0")
        assert runtime.calls == [("launch", "node-0", 2), ("resolved", 0)]

    def test_a_gate_is_armed_instead_of_a_launch(self):
        runtime = FakeRuntime()
        runtime._total_jobs = 3
        runtime.gate = RecordingGate(runtime.calls)
        runtime._arrive(make_jobs([0.0, 0.0, 0.0]))
        assert runtime.calls[3:] == [("arm", "node-0"), ("arm", "node-1")]
        assert runtime.launched() == []
        # the gate starts a job its own way; its end re-arms, then tells
        # the gate capacity changed, then the observer
        node = runtime.nodes["node-0"]
        job = node.queue.peek()
        node.queue.remove(job)
        node.in_flight = job
        runtime.calls.clear()
        runtime.finish("node-0")
        assert runtime.calls == [
            ("arm", "node-0"),
            ("capacity_changed",),
            ("resolved", 0),
        ]

    def test_a_down_or_busy_node_is_not_started(self):
        runtime = FakeRuntime()
        runtime.nodes["node-1"].down = True
        runtime._arrive(make_jobs([0.0, 0.0, 0.0]))
        assert runtime.launched() == [("node-0", 0)]
        runtime.kick(runtime.nodes["node-0"])
        assert runtime.launched() == [("node-0", 0)]


@pytest.mark.parametrize("runtime", [ClusterEngine, OpenLoopEngine, ProvingFleet])
def test_runtimes_inherit_the_lifecycle_unchanged(runtime):
    assert issubclass(runtime, Dispatcher)
    for name in LIFECYCLE:
        assert getattr(runtime, name) is getattr(Dispatcher, name), name
