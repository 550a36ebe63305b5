"""ProvingService end-to-end: differential bit-equality, batching,
executors, traffic, scheduling order, metrics, and the demo CLI.

The core contract (ISSUE 2): every proof produced through the service —
any executor, batched or sequential — is bit-identical to a
direct ``HyperPlonkProver.prove()`` call against the same SRS, and
verifies with the stock verifier.
"""

import gc
import random
import re
import tracemalloc

import pytest

from repro.fields import Fr, ReferenceBackend
from repro.hyperplonk import (
    HyperPlonkProver,
    HyperPlonkVerifier,
    MultilinearKZG,
    TrapdoorSRS,
    preprocess,
)
from repro.hyperplonk.commitment import FIXED_BASE_MAX_VARS
from repro.service import (
    DRAIN_POLICIES,
    JobCostModel,
    ProofJob,
    ProvingService,
    RequestClass,
    ServiceConfig,
    order_jobs,
    plan_batches,
    synthesize_circuit,
)
from repro.service.__main__ import main as service_cli
from repro.service.metrics import percentile
from repro.service.traffic import GATE_TYPES
from repro.traffic import OpenLoopTraffic
from repro.workloads import SCENARIOS, scenario_by_name

MAX_VARS = 3
SRS_SEED = 0x5EED  # ServiceConfig default; direct provers must match


def direct_prove(circuit):
    """The one-shot path the service must match bit-for-bit."""
    srs = TrapdoorSRS(MAX_VARS, random.Random(SRS_SEED))
    kzg = MultilinearKZG(srs)
    pidx, vidx = preprocess(circuit, kzg)
    proof = HyperPlonkProver(circuit, pidx, kzg).prove()
    return proof, vidx, kzg


@pytest.fixture(scope="module")
def circuits():
    return [
        synthesize_circuit(GATE_TYPES["vanilla"], MAX_VARS, witness_seed=1),
        synthesize_circuit(GATE_TYPES["vanilla"], MAX_VARS, witness_seed=2),
        synthesize_circuit(GATE_TYPES["jellyfish"], MAX_VARS, witness_seed=3),
    ]


class TestDifferential:
    def test_sync_service_matches_direct_both_backends(self, circuits, on_kernel):
        """Jobs through one service on the field-vector kernel == direct
        proofs on its reference oracle, with the fixed-base MSM path
        enabled (the service default)."""
        with ProvingService(ServiceConfig(max_vars=MAX_VARS)) as svc:
            for circuit in circuits:
                svc.submit(circuit)
            results = {r.job_id: r for r in svc.drain()}
        on_kernel(ReferenceBackend())
        for i, circuit in enumerate(circuits):
            expected, vidx, kzg = direct_prove(circuit)
            assert results[i].proof == expected, f"service proof {i} diverged"
            HyperPlonkVerifier(Fr, vidx, kzg).verify(results[i].proof)

    def test_batched_vs_sequential_runs(self, circuits):
        cfg = dict(max_vars=MAX_VARS)
        with ProvingService(ServiceConfig(**cfg)) as batched:
            for c in circuits:
                batched.submit(c)
            batch_proofs = [r.proof for r in batched.drain()]
            assert batched.metrics.drains == 1
        with ProvingService(ServiceConfig(**cfg)) as sequential:
            seq_proofs = []
            for c in circuits:
                sequential.submit(c)
                seq_proofs.extend(r.proof for r in sequential.drain())
        # drain order may differ from submit order; compare as sets via
        # deterministic pairing on (num_vars, gate type, witness commits)
        assert len(batch_proofs) == len(seq_proofs)
        for proof in batch_proofs:
            assert proof in seq_proofs

    def test_process_executor_matches_direct(self, circuits):
        cfg = ServiceConfig(max_vars=MAX_VARS, executor="process",
                            num_workers=2)
        try:
            service = ProvingService(cfg)
        except (OSError, PermissionError) as exc:  # pragma: no cover
            pytest.skip(f"process pools unavailable: {exc}")
        with service:
            for c in circuits[:2]:
                service.submit(c)
            results = {r.job_id: r for r in service.drain()}
        for i, c in enumerate(circuits[:2]):
            expected, vidx, kzg = direct_prove(c)
            assert results[i].proof == expected
            HyperPlonkVerifier(Fr, vidx, kzg).verify(results[i].proof)
        assert all(r.worker_id.startswith("pid-") for r in results.values())


class TestSchedulingAndBatching:
    def _job(self, jid, circuit, request_class, priority=0, arrival=0.0):
        return ProofJob(job_id=jid, circuit=circuit,
                        request_class=request_class, priority=priority,
                        arrival_s=arrival)

    def test_plan_batches_groups_and_orders(self):
        rt = RequestClass.REALTIME
        df = RequestClass.DEFERRABLE
        small = synthesize_circuit(GATE_TYPES["vanilla"], 2, witness_seed=1)
        small2 = synthesize_circuit(GATE_TYPES["vanilla"], 2, witness_seed=9)
        big = synthesize_circuit(GATE_TYPES["vanilla"], 3, witness_seed=1)
        jobs = [
            self._job(0, small, df, arrival=0.0),
            self._job(1, big, rt, arrival=1.0),
            self._job(2, small2, rt, arrival=2.0),
        ]
        batches = plan_batches(jobs)
        # real-time first: big's batch leads; the deferrable small job
        # rides along in the batch anchored by the real-time small job
        assert [b.circuit_key for b in batches] == [
            jobs[1].circuit_key, jobs[0].circuit_key
        ]
        assert [j.job_id for j in batches[1].jobs] == [2, 0]

    def test_plan_batches_keeps_a_same_circuit_group_whole(self):
        """No size cap: every job of one circuit rides in one batch, in
        drain order."""
        rt = RequestClass.REALTIME
        df = RequestClass.DEFERRABLE
        circuit = synthesize_circuit(GATE_TYPES["vanilla"], 2, witness_seed=1)
        jobs = [
            self._job(i, circuit, rt if i % 2 else df, arrival=float(i))
            for i in range(6)
        ]
        (batch,) = plan_batches(jobs, policy="fifo")
        assert batch.circuit_key == jobs[0].circuit_key
        assert [j.job_id for j in batch.jobs] == [1, 3, 5, 0, 2, 4]

    def test_drain_proves_a_same_circuit_wave_as_one_batch(self):
        circuit = synthesize_circuit(GATE_TYPES["vanilla"], 2, witness_seed=1)
        with ProvingService(ServiceConfig(max_vars=2)) as svc:
            for _ in range(3):
                svc.submit(circuit)
            results = svc.drain()
            stats = svc.cache.stats
        assert [r.batch_size for r in results] == [3, 3, 3]
        assert all(r.proof == results[0].proof for r in results)
        assert (stats.misses, stats.hits) == (1, 0)  # one lookup a batch

    def test_drain_runs_realtime_first(self):
        cfg = ServiceConfig(max_vars=MAX_VARS)
        shapes = [
            synthesize_circuit(GATE_TYPES["vanilla"], 2, witness_seed=1),
            synthesize_circuit(GATE_TYPES["jellyfish"], 2, witness_seed=1),
        ]
        with ProvingService(cfg) as svc:
            j0 = svc.submit(shapes[0],
                            request_class=RequestClass.DEFERRABLE)
            j1 = svc.submit(shapes[1], request_class=RequestClass.REALTIME)
            results = svc.drain()
        assert [r.job_id for r in results] == [j1.job_id, j0.job_id]
        assert all(r.batch_size == 1 for r in results)


class TestCostAwareScheduling:
    """ISSUE 3: plan-cost-driven drain policies (sjf / deadline)."""

    def _job(self, jid, circuit, request_class, arrival=0.0, deadline=None):
        return ProofJob(job_id=jid, circuit=circuit,
                        request_class=request_class, arrival_s=arrival,
                        deadline_s=deadline)

    def _shapes(self):
        return {
            mu: synthesize_circuit(GATE_TYPES["vanilla"], mu, witness_seed=1)
            for mu in (2, 3, 4)
        }

    def test_order_jobs_validation(self):
        with pytest.raises(ValueError, match="unknown drain policy"):
            order_jobs([], policy="lifo")
        with pytest.raises(ValueError, match="needs a cost_fn"):
            order_jobs([], policy="sjf")
        with pytest.raises(ValueError, match="needs a cost_fn"):
            order_jobs([], policy="deadline")

    def test_sjf_orders_cheap_first_within_class(self):
        shapes = self._shapes()
        rt, df = RequestClass.REALTIME, RequestClass.DEFERRABLE
        jobs = [
            self._job(0, shapes[4], rt, arrival=0.0),   # big, arrives first
            self._job(1, shapes[2], rt, arrival=1.0),   # small
            self._job(2, shapes[3], rt, arrival=2.0),   # medium
            self._job(3, shapes[2], df, arrival=0.5),   # small, deferrable
        ]
        cost = JobCostModel()
        ordered = order_jobs(jobs, policy="sjf", cost_fn=cost)
        # realtime cheap->expensive, deferrable after everything realtime
        assert [j.job_id for j in ordered] == [1, 2, 0, 3]
        # fifo would have drained the expensive early arrival first
        fifo = order_jobs(jobs, policy="fifo")
        assert [j.job_id for j in fifo] == [0, 1, 2, 3]

    def test_deadline_policy_edf_for_realtime(self):
        shapes = self._shapes()
        rt, df = RequestClass.REALTIME, RequestClass.DEFERRABLE
        jobs = [
            self._job(0, shapes[2], rt, arrival=0.0, deadline=9.0),
            self._job(1, shapes[4], rt, arrival=1.0, deadline=2.0),
            self._job(2, shapes[3], rt, arrival=2.0),           # no deadline
            self._job(3, shapes[4], df, arrival=0.0),
            self._job(4, shapes[2], df, arrival=3.0),
        ]
        ordered = order_jobs(jobs, policy="deadline", cost_fn=JobCostModel())
        # urgent first, deadline-less realtime last among realtime;
        # deferrable tail is shortest-job-first
        assert [j.job_id for j in ordered] == [1, 0, 2, 4, 3]

    def test_deadline_outranks_priority_for_realtime(self):
        """EDF proper: an imminent deadline drains before a
        higher-priority job with a distant one."""
        shapes = self._shapes()
        rt = RequestClass.REALTIME
        lazy_vip = ProofJob(job_id=0, circuit=shapes[2], request_class=rt,
                            priority=5, deadline_s=100.0)
        urgent = ProofJob(job_id=1, circuit=shapes[2], request_class=rt,
                          priority=0, deadline_s=0.1)
        ordered = order_jobs([lazy_vip, urgent], policy="deadline",
                             cost_fn=JobCostModel())
        assert [j.job_id for j in ordered] == [1, 0]

    def test_job_cost_model_stamps_and_caches(self):
        shapes = self._shapes()
        job_a = self._job(0, shapes[3], RequestClass.REALTIME)
        job_b = self._job(1, shapes[3], RequestClass.REALTIME)
        cost = JobCostModel()
        assert cost(job_a) == cost(job_b) > 0
        assert job_a.predicted_cost_s == job_b.predicted_cost_s

    def test_batch_predicted_cost(self):
        shapes = self._shapes()
        jobs = [self._job(i, shapes[2], RequestClass.REALTIME)
                for i in range(3)]
        (batch,) = plan_batches(jobs, policy="sjf", cost_fn=JobCostModel())
        assert batch.predicted_cost_s == pytest.approx(
            3 * jobs[0].predicted_cost_s)
        fresh = plan_batches([self._job(9, shapes[2],
                                        RequestClass.REALTIME)])[0]
        assert fresh.predicted_cost_s is None  # no cost model ran

    def test_service_sjf_end_to_end_with_prediction_metrics(self):
        shapes = self._shapes()
        cfg = ServiceConfig(max_vars=4, drain_policy="sjf")
        with ProvingService(cfg) as svc:
            big = svc.submit(shapes[4])
            small = svc.submit(shapes[2])
            results = svc.drain()
            summary = svc.summary()
        assert [r.job_id for r in results] == [small.job_id, big.job_id]
        assert all(r.predicted_s is not None and r.predicted_s > 0
                   for r in results)
        assert summary["drain_policy"] == "sjf"
        assert summary["prediction"]["jobs"] == 2
        assert summary["prediction"]["predicted_total_s"] > 0
        cap = summary["estimated_capacity_proofs_per_s"]
        assert cap["actual"] > 0 and cap["predicted"] > 0

    def test_fifo_without_cost_model_has_no_prediction(self):
        c = synthesize_circuit(GATE_TYPES["vanilla"], 2)
        with ProvingService(ServiceConfig(max_vars=2)) as svc:
            svc.submit(c)
            (result,) = svc.drain()
            summary = svc.summary()
        assert result.predicted_s is None
        assert "prediction" not in summary

    def test_predict_costs_flag_without_reordering(self):
        c = synthesize_circuit(GATE_TYPES["vanilla"], 2)
        cfg = ServiceConfig(max_vars=2, predict_costs=True)
        with ProvingService(cfg) as svc:
            svc.submit(c)
            (result,) = svc.drain()
            summary = svc.summary()
        assert summary["drain_policy"] == "fifo"
        assert result.predicted_s is not None
        assert "prediction" in summary

    def test_config_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown drain policy"):
            ProvingService(ServiceConfig(drain_policy="edf2"))

    def test_config_checks_the_policy_when_built(self):
        with pytest.raises(ValueError, match=re.escape(str(DRAIN_POLICIES))):
            ServiceConfig(drain_policy="edf2")

    def test_job_stream_stamps_tier_deadlines(self):
        traffic = OpenLoopTraffic("zipf-mixed", seed=3, max_jobs=12)
        tiers = {t.name: t.tier for t in traffic.tenants}
        for job in traffic.jobs():
            slack = tiers[job.tenant].deadline_slack_s
            assert job.deadline_s == pytest.approx(job.arrival_s + slack)


class TestJobStream:
    def test_deterministic(self):
        a = list(OpenLoopTraffic("zipf-mixed", seed=5, max_jobs=6).jobs())
        b = list(OpenLoopTraffic("zipf-mixed", seed=5, max_jobs=6).jobs())
        assert [j.circuit_key for j in a] == [j.circuit_key for j in b]
        assert [j.arrival_s for j in a] == [j.arrival_s for j in b]
        assert [j.request_class for j in a] == [j.request_class for j in b]

    def test_arrivals_monotonic_and_classes(self):
        for name in SCENARIOS:
            jobs = list(OpenLoopTraffic(name, seed=1, max_jobs=8).jobs())
            arrivals = [j.arrival_s for j in jobs]
            assert arrivals == sorted(arrivals)
            scenario = scenario_by_name(name)
            gate_names = {name for name, _ in scenario.gate_mix}
            sizes = {size for size, _ in scenario.size_weights}
            for j in jobs:
                tag_gate, tag_mu = j.tag.rsplit("/", 1)[1].split("-mu")
                assert tag_gate in gate_names
                assert int(tag_mu) in sizes

    def test_same_shape_draws_share_fingerprint(self):
        jobs = list(OpenLoopTraffic("uniform-small", seed=2, max_jobs=10).jobs())
        keys = {}
        for j in jobs:
            keys.setdefault(j.tag, set()).add(j.circuit_key)
        for tag, tag_keys in keys.items():
            assert len(tag_keys) == 1, f"{tag} produced multiple fingerprints"

    def test_classes_come_from_the_tenants_tiers(self):
        traffic = OpenLoopTraffic("uniform-small", seed=1, max_jobs=16)
        tiers = {t.name: t.tier for t in traffic.tenants}
        classes = [j.request_class for j in traffic.jobs()]
        assert classes == [tiers[j.tenant].request_class for j in traffic.jobs()]
        assert set(classes) == set(RequestClass)  # three tenants, both classes

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            OpenLoopTraffic("no-such-mix", max_jobs=1)


class TestServiceOperations:
    def test_wave_run_hits_cache_and_reports_metrics(self):
        traffic = OpenLoopTraffic("uniform-small", seed=3, max_jobs=5)
        cfg = ServiceConfig(max_vars=traffic.max_vars())
        with ProvingService(cfg) as svc:
            # the five jobs arrive over 0.2 s (a burst window)
            results = svc.run(list(traffic.jobs()), wave_s=0.1)
            summary = svc.summary()
        assert len(results) == 5
        assert summary["jobs"] == 5
        assert summary["drains"] >= 2
        assert summary["cache"]["hits"] >= 1  # later waves reuse indexes
        assert summary["throughput_proofs_per_s"] > 0
        assert summary["latency_s"]["p50"] <= summary["latency_s"]["p95"]
        assert summary["workers"][0]["jobs"] == 5

    def test_metrics_keep_rows_not_proofs(self):
        """A long-lived service keeps each job's numbers, not its proof:
        once a first drain has warmed the caches, four drains whose
        results the caller drops retain at most ``ROW_BYTES`` a job
        (a row costs ~180 B here; a kept μ=2 proof ~15 KB)."""
        jobs, row_bytes = 4, 512
        circuit = synthesize_circuit(GATE_TYPES["vanilla"], 2)
        with ProvingService(ServiceConfig(max_vars=2)) as svc:

            def drain():
                for _ in range(jobs):
                    svc.submit(circuit)
                svc.drain()
                gc.collect()

            drain()
            tracemalloc.start()
            try:
                drain()
                one, _ = tracemalloc.get_traced_memory()
                for _ in range(3):
                    drain()
                four, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert svc.summary()["jobs"] == 5 * jobs
        assert one <= jobs * row_bytes
        assert four - one <= 3 * jobs * row_bytes

    def test_verify_proofs_flag(self):
        cfg = ServiceConfig(max_vars=2, verify_proofs=True, collect_counters=True)
        c = synthesize_circuit(GATE_TYPES["vanilla"], 2)
        with ProvingService(cfg) as svc:
            svc.submit(c)
            (result,) = svc.drain()
            summary = svc.summary()
        assert result.verified
        assert result.counter is not None and result.counter.mul > 0
        assert summary["ops"]["mul"] > 0

    def test_submit_validation(self):
        from repro.fields import PrimeField

        cfg = ServiceConfig(max_vars=2)
        ok_circuit = synthesize_circuit(GATE_TYPES["vanilla"], 2,
                                        witness_seed=1)
        too_big = synthesize_circuit(GATE_TYPES["vanilla"], 3)
        foreign = synthesize_circuit(GATE_TYPES["vanilla"], 2,
                                     field=PrimeField((1 << 61) - 1, "F61"))
        with ProvingService(cfg) as svc:
            # ``max_vars`` is the SRS's size and the largest μ accepted
            assert svc.kzg.srs.max_vars == 2
            with pytest.raises(ValueError,
                               match=r"μ=3 exceeds the service SRS \(max μ=2\)"):
                svc.submit(too_big)
            with pytest.raises(ValueError, match="over Fr only"):
                svc.submit(foreign)
            assert svc.pending == 0
            svc.submit(ok_circuit)  # μ = max_vars proves on that SRS
            (result,) = svc.drain()
            _, vidx = preprocess(ok_circuit, svc.kzg)
            HyperPlonkVerifier(Fr, vidx, svc.kzg).verify(result.proof)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="unknown executor"):
            ProvingService(ServiceConfig(executor="fiber"))
        kzg = MultilinearKZG(TrapdoorSRS(3, random.Random(1)))
        with pytest.raises(ValueError, match="service-owned SRS"):
            ProvingService(ServiceConfig(executor="process"), kzg=kzg)
        with pytest.raises(ValueError, match="unknown vector backend"):
            ProvingService(ServiceConfig(default_backend="bogus"))

    def test_thread_executor_is_rejected(self):
        """One prover per process: a thread pool is not an executor."""
        with pytest.raises(ValueError, match=re.escape("('sync', 'process')")):
            ServiceConfig(executor="thread")

    def test_service_commits_small_arities_through_combs(self):
        """The service KZG is a fixed-base one: every comb it builds is
        for an arity the constant admits."""
        c = synthesize_circuit(GATE_TYPES["vanilla"], 2)
        with ProvingService(ServiceConfig(max_vars=2)) as svc:
            assert svc.kzg.fixed_base
            svc.submit(c)
            (result,) = svc.drain()
            built = set(svc.kzg._fb_tables)
        assert built and max(built) <= FIXED_BASE_MAX_VARS
        assert result.proof == direct_prove(c)[0]

    def test_empty_drain(self):
        with ProvingService(ServiceConfig(max_vars=2)) as svc:
            assert svc.drain() == []

    def test_summary_before_drain_has_zero_wall(self):
        c = synthesize_circuit(GATE_TYPES["vanilla"], 2)
        with ProvingService(ServiceConfig(max_vars=2)) as svc:
            svc.submit(c)
            summary = svc.summary()
        assert summary["wall_s"] == 0.0
        assert summary["throughput_proofs_per_s"] == 0.0

    def test_pool_failure_requeues_jobs(self, monkeypatch):
        c = synthesize_circuit(GATE_TYPES["vanilla"], 2)
        with ProvingService(ServiceConfig(max_vars=2)) as svc:
            svc.submit(c)

            def boom(tasks, kzg):
                raise RuntimeError("worker died")

            monkeypatch.setattr(svc.pool, "run_tasks", boom)
            with pytest.raises(RuntimeError):
                svc.drain()
            assert svc.pending == 1  # the wave survives for a retry
            assert svc.metrics.drains == 0  # failed wave isn't counted


class TestMetricsHelpers:
    def test_percentile(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)
        assert percentile([], 50) == 0.0
        assert percentile([7.0], 95) == 7.0


class TestCLI:
    def test_cli_json_smoke(self, capsys):
        rc = service_cli(["--scenario", "uniform-small", "--jobs", "2",
                          "--no-verify", "--json", "--seed", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert '"throughput_proofs_per_s"' in out

    def test_cli_rejects_thread_executor(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            service_cli(["--executor", "thread", "--jobs", "1"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err

    def test_cli_human_output(self, capsys):
        rc = service_cli(["--scenario", "uniform-small", "--jobs", "2",
                          "--seed", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "index cache" in out and "all proofs verified" in out
