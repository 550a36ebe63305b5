"""Every pinned artefact: one builder per name, one record, one hash.

A pin is the sha256 of an exact text: a proof, an ``OpCounter`` tally or
its phase × G1-count table as ``repr(canonical(...))``, a summary as
:func:`summary_text`, a JSONL event log, a CLI's stdout, SRS points, a
traffic stream, a paper-model summary.
:data:`BUILDERS` maps each pin's name to the function that builds its
text; ``tests/goldens.json`` maps the same names to the recorded digests.
Pin tests run their own cells and compare ``sha256(text) == pinned(name)``;
``tools/goldens.py`` checks or re-records any subset by name prefix.  No
pytest or hypothesis import: the re-record command runs this module on
every supported interpreter, and only one of them has them installed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import re
from dataclasses import fields, is_dataclass
from itertools import islice
from pathlib import Path

from repro.carbon import CarbonConfig, CarbonIntensityTrace
from repro.cluster import AutoscalePolicy, ClusterConfig, NodeConfig, ProvingCluster
from repro.cluster.__main__ import main as cluster_main
from repro.cluster.admission import AdmissionPolicy
from repro.curves.curve import AffinePoint
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.__main__ import run_experiments
from repro.fields import OpCounter
from repro.hyperplonk import HyperPlonkProver, MultilinearKZG, TrapdoorSRS, preprocess
from repro.service import ProvingService, ServiceConfig
from repro.service.jobs import RequestClass
from repro.service.traffic import GATE_TYPES, synthesize_circuit
from repro.traffic import (
    SLO_TIERS,
    OpenLoopEngine,
    OpenLoopTraffic,
    SLOTier,
    TenantSpec,
    make_admission,
    traffic_summary,
)
from repro.workloads import trace_for_downtime

RECORD = Path(__file__).with_name("goldens.json")


def sha256(text: str) -> str:
    """The one hash every pin is taken with."""
    return hashlib.sha256(text.encode()).hexdigest()


def read_record(path: Path) -> dict[str, str]:
    """``{name: digest}`` from ``path``; raises ``OSError`` if it cannot
    be read and ``ValueError`` unless it maps names to sha256 digests."""
    record = json.loads(path.read_text())
    if not isinstance(record, dict) or not all(
        isinstance(digest, str) and re.fullmatch("[0-9a-f]{64}", digest)
        for digest in record.values()
    ):
        raise ValueError("not a JSON object of sha256 hex digests")
    return record


_cached_record = functools.cache(read_record)


def pinned(name: str) -> str:
    """The digest ``tests/goldens.json`` records for ``name``."""
    return _cached_record(RECORD)[name]


def summary_text(summary: dict) -> str:
    """A summary as its pins hash it: JSON with sorted keys."""
    return json.dumps(summary, sort_keys=True)


# -- proofs, tallies and a service batch ------------------------------------

MU = 4
SRS_SEED = 7
GATES = ("vanilla", "jellyfish")


def canonical(value):
    """A proof object as nested tuples of ints and strings: dataclass
    fields in declaration order, dicts in insertion order, and a G1
    point as its ``(x, y)`` integers."""
    if isinstance(value, AffinePoint):
        return ("inf",) if value.inf else (value.x, value.y)
    if is_dataclass(value):
        return tuple((f.name, canonical(getattr(value, f.name))) for f in fields(value))
    if isinstance(value, dict):
        return tuple((k, canonical(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(canonical(v) for v in value)
    return value


def canonical_text(value) -> str:
    return repr(canonical(value))


def make_kzg() -> MultilinearKZG:
    return MultilinearKZG(TrapdoorSRS(MU, random.Random(SRS_SEED)))


def prove(gate: str, kzg, counter=None, **kwargs):
    circuit = synthesize_circuit(GATE_TYPES[gate], MU, witness_seed=11)
    pidx, vidx = preprocess(circuit, kzg)
    proof = HyperPlonkProver(circuit, pidx, kzg, **kwargs).prove(counter)
    return proof, vidx


def service_batch():
    jobs = list(OpenLoopTraffic("uniform-small", seed=3, max_jobs=6).jobs())
    svc = ProvingService(ServiceConfig(max_vars=MU, executor="sync"))
    try:
        for job in jobs:
            svc.submit_job(job)
        results = svc.drain()
    finally:
        svc.close()
    return [
        (r.job_id, r.circuit_key, r.batch_size, r.cache_hit, canonical(r.proof))
        for r in results
    ]


# -- SRS points and the job stream's first jobs -------------------------------

SRS_SEEDS = (0, 1, 7)


def srs_text(seed: int, first: int = 0) -> str:
    """Every arity's points of ``TrapdoorSRS(7, random.Random(seed))``,
    bottom arity first, after asking for arity ``first`` before any other."""
    srs = TrapdoorSRS(7, random.Random(seed))
    srs.bases(first)
    return "".join(
        repr((arity, pt.x, pt.y, pt.inf))
        for arity in range(srs.max_vars + 1)
        for pt in srs.bases(arity)
    )


def closed_stream_text() -> str:
    """The first 64 jobs of the ``zipf-mixed`` stream, seed 0."""
    jobs = OpenLoopTraffic("zipf-mixed", seed=0, max_jobs=64).jobs()
    rows = [
        (
            repr(j.arrival_s),
            j.tag,
            j.request_class.value,
            repr(j.deadline_s),
            j.circuit_key,
            j.tenant,
        )
        for j in jobs
    ]
    return repr(rows)


# -- the closed-batch lifecycle under churn and an autoscaler ----------------

#: (policy, max_retries) -> name prefix of its summary and event-log pins
LIFECYCLE = {
    ("round_robin", 2): "lifecycle/round_robin-2",
    ("least_loaded", 2): "lifecycle/least_loaded-2",
    ("affinity", 2): "lifecycle/affinity-2",
    ("least_loaded", 0): "lifecycle/least_loaded-0",
}


def lifecycle_cell(policy: str, max_retries: int) -> dict:
    """120 ``zipf-mixed`` jobs (seed 1, no burst window) on 3 nodes under
    30% churn with an out-and-in autoscaler.  The churn horizon's slack past
    the last arrival (8 s) is spelled out so a change to the shared default
    cannot move a pin.  With the stream's default 3x burst windows no cell
    of this seed reaches an exclusion waiver."""
    traffic = OpenLoopTraffic("zipf-mixed", seed=1, max_jobs=120, burst_mult=1.0)
    jobs = list(traffic.jobs())
    horizon = max(j.arrival_s for j in jobs) + 8.0
    churn = trace_for_downtime(3, horizon, downtime_fraction=0.3, mttr_s=2.0, seed=101)
    config = ClusterConfig(
        num_nodes=3,
        policy=policy,
        time_model="functional",
        max_retries=max_retries,
        autoscale=AutoscalePolicy(
            scale_out_threshold_s=0.5,
            scale_in_threshold_s=0.05,
            interval_s=0.25,
            min_nodes=1,
            max_nodes=6,
            provision_s=0.25,
        ),
        node=NodeConfig(max_vars=traffic.max_vars()),
    )
    with ProvingCluster(config) as cluster:
        cluster.run(jobs, churn=churn)
        return {"summary": cluster.summary(), "events": cluster.events.to_jsonl()}


# -- the open-loop cell of the ``sim_openloop_5e3`` workload -----------------

#: seed -> name prefix of its summary and event-log pins
OPEN_LOOP = {seed: f"openloop/seed{seed}" for seed in (0, 7)}


def run_open_loop(seed: int, carbon: bool, jobs: int = 2_000) -> dict:
    """``benchmarks/e2e``'s ``sim_openloop_5e3`` configuration, smaller."""
    rate_rps, nodes = 40.0, 4
    traffic = OpenLoopTraffic("zipf-mixed", seed=seed, max_jobs=jobs, rate_rps=rate_rps)
    config = ClusterConfig(
        num_nodes=nodes,
        policy="least_loaded",
        node=NodeConfig(max_vars=traffic.max_vars()),
        max_retries=64,
        carbon=(
            CarbonConfig(CarbonIntensityTrace(seed=seed), policy="none")
            if carbon
            else None
        ),
    )
    churn = trace_for_downtime(nodes, jobs / rate_rps, downtime_fraction=0.1, seed=seed)
    with ProvingCluster(config) as cluster:
        admission = make_admission(
            cluster, AdmissionPolicy(window_s=10.0), traffic.tenants
        )
        engine = OpenLoopEngine(cluster, traffic, admission=admission)
        records = engine.run(traffic.jobs(), churn=churn)
        return {
            "records": records,
            "events": engine.events.to_jsonl(),
            "summary": traffic_summary(engine),
            "resilience": engine.stats.as_dict(),
        }


# -- the carbon-policies benchmark's stream, and its capped cells ------------

SCENARIO = "uniform-small"
TRAFFIC_SEED = 11
TRACE_SEED = 7
RATE_RPS = 2.0
HORIZON_S = 480.0  # two full trace periods
NODES = 2
TIME_MODEL = "functional"
TRACE_BASE = 300.0
TRACE_AMPLITUDE = 0.8
TRACE_PERIOD_S = 240.0
TRACE_NOISE = 0.05
LOW_THRESHOLD = 180.0
#: deadline slack for the deferrable batch tier; generous enough that a
#: held job can always reach a ≤ LOW_THRESHOLD window and still finish
BATCH_SLACK_S = 200.0

GATE_COUNTERS = ("held_starts", "cap_deferrals", "cap_breaches", "suspends", "resumes")

#: (policy, jobs, churn) -> name prefix of its summary and event-log pins
CAPPED = {
    ("carbon_waiting", 400, False): "capped/carbon_waiting-400",
    ("edd", 300, True): "capped/edd-300-churn",
}


def make_trace() -> CarbonIntensityTrace:
    """The shared diurnal trace (same seed in every cell)."""
    return CarbonIntensityTrace(
        base_g_per_kwh=TRACE_BASE,
        amplitude=TRACE_AMPLITUDE,
        period_s=TRACE_PERIOD_S,
        noise=TRACE_NOISE,
        seed=TRACE_SEED,
    )


def make_jobs() -> list:
    """A fresh copy of the seeded gold + bronze-batch job stream."""
    tenants = [
        TenantSpec("gold-rt", weight=0.3, tier=SLO_TIERS["gold"], quota_fraction=1.0),
        TenantSpec(
            "bronze-batch",
            weight=0.7,
            tier=SLOTier(
                name="batch",
                deadline_slack_s=BATCH_SLACK_S,
                admission_factor=0.7,
                request_class=RequestClass.DEFERRABLE,
            ),
            quota_fraction=1.0,
        ),
    ]
    traffic = OpenLoopTraffic(
        SCENARIO,
        seed=TRAFFIC_SEED,
        tenants=tenants,
        rate_rps=RATE_RPS,
        horizon_s=HORIZON_S,
        burst_mult=1.0,
    )
    return list(islice(traffic.jobs(), 10_000))


def capped_cluster(policy: str, jobs: int, churn: bool) -> ProvingCluster:
    """An *active* start gate end to end: ``policy`` under a power cap
    that admits one busy node of the two (350 + 42 W against 400 W),
    over the first ``jobs`` jobs of the shared stream — holds, cap
    deferrals and phase-boundary parking all fire, and with ``churn``
    nodes crash under parked and parking jobs.  Returns the cluster
    after the run."""
    config = ClusterConfig(
        num_nodes=NODES,
        policy="least_loaded",
        time_model=TIME_MODEL,
        node=NodeConfig(max_vars=6),
        max_retries=8,
        carbon=CarbonConfig(
            trace=make_trace(),
            policy=policy,
            low_threshold_g_per_kwh=LOW_THRESHOLD,
            power_cap_w=400.0,
        ),
    )
    trace = (
        trace_for_downtime(NODES, jobs / RATE_RPS, downtime_fraction=0.1, seed=3)
        if churn
        else ()
    )
    with ProvingCluster(config) as cluster:
        cluster.run(make_jobs()[:jobs], churn=trace)
        return cluster


def run_capped_cell(policy: str, jobs: int, churn: bool) -> dict:
    """:func:`capped_cluster`'s summary, JSONL event log and counters."""
    cluster = capped_cluster(policy, jobs, churn)
    summary = cluster.summary()
    carbon = summary["carbon"]
    return {
        "summary": summary,
        "events": cluster.events.to_jsonl(),
        "resilience": {
            key: cluster.resilience[key]
            for key in ("crashes", "retries", "requeues", "failed_jobs")
        },
        "gate": {key: carbon[key] for key in GATE_COUNTERS},
    }


# -- CI's repro-cluster smoke invocations ------------------------------------

#: each is pinned twice: ``cli/<argv>`` (tables) and ``cli/<argv> --json``
CLI_ARGVS = [
    "--scenario zipf-mixed --jobs 24 --nodes 1,2,4",
    "--scenario zipf-mixed --jobs 24 --nodes 2,4 --churn-rate 0.2 --max-retries 3",
    "--scenario jellyfish-heavy --time-model functional --jobs 24 --nodes 1 "
    "--autoscale --scale-out-s 1.0 --scale-in-s 0.1",
    "--open-loop --scenario zipf-mixed --jobs 400 --rate-rps 40 --tenants 3 "
    "--nodes 2,4 --admission",
    "--open-loop --scenario zipf-mixed --jobs 200 --rate-rps 20 --nodes 2",
    "--open-loop --scenario uniform-small --jobs 200 --rate-rps 10 --nodes 2 "
    "--time-model functional --carbon-trace diurnal:300:0.8:240 "
    "--carbon-policy carbon_waiting --carbon-threshold 180 --power-cap 700",
    "--scenario uniform-small --jobs 24 --nodes 2 --carbon-trace diurnal",
]


def cli_stdout(argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cluster_main(argv.split())
    if status != 0:
        raise RuntimeError(f"repro-cluster {argv} exited {status}")
    return out.getvalue()


# -- the paper model ---------------------------------------------------------

#: the experiments pinned on the paper's full Table III grid (~10 s)
FULL_GRID = ("fig06", "fig10", "table04", "fig11")


def paper_text(summary: dict) -> str:
    """An experiment summary's public keys (not starting with ``_``)."""
    return summary_text({k: v for k, v in summary.items() if not k.startswith("_")})


@functools.cache
def paper_texts(fast: bool) -> dict[str, str]:
    """``{experiment: paper_text}``: all 17 on the fast grid, or
    :data:`FULL_GRID` on the full one, run as ``python -m
    repro.experiments`` does (fig10's sweep handed to table04 / fig11)."""
    names = ALL_EXPERIMENTS if fast else FULL_GRID
    return {
        name: paper_text(result.summary)
        for name, result in run_experiments(names, fast)
    }


# -- the table ---------------------------------------------------------------


@functools.cache
def proof_texts(gate: str) -> tuple[str, str, str]:
    """The proof, its field tally, and its phase × G1-count table."""
    counter = OpCounter()
    proof, _ = prove(gate, make_kzg(), counter)
    g1 = {name: row.g1 for name, row in counter.phases.items()}
    return canonical_text(proof), canonical_text(counter), canonical_text(g1)


@functools.cache
def run_texts(run, *args) -> tuple[str, str]:
    """The summary and event-log texts of ``run(*args)``."""
    result = run(*args)
    return summary_text(result["summary"]), result["events"]


def _builders() -> dict:
    table = {}
    for index, kind in enumerate(("proof/", "tally/", "tally/g1-")):
        for gate in GATES:
            table[f"{kind}{gate}"] = lambda g=gate, i=index: proof_texts(g)[i]
    table["service/uniform-small"] = lambda: canonical_text(service_batch())
    for seed in SRS_SEEDS:
        table[f"srs/seed{seed}"] = functools.partial(srs_text, seed)
    table["traffic/zipf-mixed"] = closed_stream_text
    runs = {prefix: (lifecycle_cell, *cell) for cell, prefix in LIFECYCLE.items()}
    runs.update({p: (run_open_loop, seed, True) for seed, p in OPEN_LOOP.items()})
    runs.update({prefix: (run_capped_cell, *cell) for cell, prefix in CAPPED.items()})
    for prefix, run in runs.items():
        for index, part in enumerate(("summary", "events")):
            table[f"{prefix}/{part}"] = lambda r=run, i=index: run_texts(*r)[i]
    for argv in CLI_ARGVS:
        table[f"cli/{argv} --json"] = functools.partial(cli_stdout, f"{argv} --json")
        table[f"cli/{argv}"] = functools.partial(cli_stdout, argv)
    for name in ALL_EXPERIMENTS:
        table[f"paper/fast/{name}"] = lambda name=name: paper_texts(True)[name]
    for name in FULL_GRID:
        table[f"paper/full/{name}"] = lambda name=name: paper_texts(False)[name]
    return table


#: pin name -> the function that builds the exact text its digest hashes
BUILDERS = _builders()


def digests(prefixes=("",)) -> dict[str, str]:
    """``{name: sha256 of its text}`` for every pin whose name starts
    with one of ``prefixes``, in table order."""
    return {
        name: sha256(build())
        for name, build in BUILDERS.items()
        if name.startswith(tuple(prefixes))
    }
