"""One run cell, described once and run on either runtime.

:class:`Scenario` is a frozen description of one run: the seeded job
stream, the fleet, churn, and the settings only the simulator takes
(autoscaling, carbon, admission).  Every cross-field rule is checked in
``__post_init__``, so a library caller gets the checks ``repro-cluster``
and ``repro-fleet`` make; the CLIs only parse their flags into a
scenario and turn its ``ValueError`` into exit status 2.  Messages name
the CLI flag: each flag sets the field of the same name
(``--churn-rate`` → ``churn_rate``), and the carbon flags set the
:class:`~repro.carbon.CarbonConfig` fields.

:func:`run` draws the jobs from one stream,
:class:`~repro.traffic.OpenLoopTraffic` (:meth:`Scenario.traffic`), and
runs them on the simulator — one :class:`~repro.traffic.OpenLoopEngine`,
with the scenario's admission policy or none — or on the real fleet,
:meth:`~repro.fleet.core.ProvingFleet.run` (``runtime="fleet"``), which
rejects the sim-only settings by name and takes the fleet-only
:class:`~repro.fleet.core.FleetConfig` fields (heartbeats, timeouts,
``time_scale``) as keyword arguments.  Only the fleet proves, so only
its result carries proofs.

One pacing rule serves both runtimes (:attr:`Scenario.paced`): the
stream's arrivals are kept when ``respect_arrivals`` is set, the run is
failure-aware, or a horizon or admission policy reads them, and zeroed
otherwise (deadlines untouched).  The rate only shapes the stream.  The
churn trace runs to ``horizon_s``, else past the last arrival.  Every
sim run has one summary: the cluster's blocks
(:meth:`~repro.cluster.core.ProvingCluster.summary`) plus the stream's
offered, shed, goodput and fairness figures under ``traffic``
(:func:`~repro.traffic.traffic_summary`).

:meth:`Scenario.as_dict` is the cell as plain JSON types: the block
each ``BENCH_*`` record keeps next to the numbers one cell produced, and
that ``benchmarks/check_regression.py`` compares field by field.
Nothing reads a scenario back in, so there is no ``from_dict``.

The module sits in :mod:`repro.fleet`, the top runtime layer, so it
reaches both runtimes and :mod:`repro.traffic` downward.  It imports
:mod:`repro.fleet.core` (and with it :mod:`multiprocessing`) only in
the fleet branch.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import TYPE_CHECKING

from repro.cluster.autoscale import AutoscalePolicy
from repro.cluster.core import ClusterConfig, ProvingCluster
from repro.cluster.nodes import DEFAULT_NODE_CACHE_CAPACITY, NodeConfig
from repro.cluster.records import JobRecord
from repro.cluster.routing import DEFAULT_REPLICAS
from repro.sim.events import EventLog
from repro.traffic import (
    OpenLoopEngine,
    OpenLoopTraffic,
    default_tenants,
    make_admission,
    traffic_summary,
)
from repro.workloads import CHURN_HORIZON_SLACK_S, trace_for_downtime

if TYPE_CHECKING:  # pragma: no cover - typing only: built by the caller
    from repro.carbon import CarbonConfig
    from repro.cluster.admission import AdmissionPolicy

#: the settings only the simulator takes, with the value that leaves
#: each one off; ``run(..., runtime="fleet")`` rejects any other value
SIM_ONLY = {
    "autoscale": None,
    "carbon": None,
    "admission": None,
}

#: what :meth:`Scenario.as_dict` keeps of a carbon trace: its signal
#: parameters plus ``horizon_s``
_TRACE_FIELDS = (
    "base_g_per_kwh",
    "amplitude",
    "period_s",
    "noise",
    "step_s",
    "seed",
    "grid_events",
    "horizon_s",
)


@dataclass(frozen=True)
class Scenario:
    """One run cell; see the module docstring."""

    # -- the job stream
    #: named traffic mix (:data:`repro.workloads.SCENARIOS`)
    scenario: str = "zipf-mixed"
    #: the stream stops after this many jobs (None = only ``horizon_s``
    #: bounds it)
    jobs: int | None = 64
    #: traffic seed; also seeds the CLI's carbon trace
    seed: int = 0

    # -- the fleet
    nodes: int = 4
    policy: str = "affinity"
    time_model: str = "accelerator"
    #: LRU entries in each node's index cache (None = unbounded)
    cache_capacity: int | None = DEFAULT_NODE_CACHE_CAPACITY
    replicas: int = DEFAULT_REPLICAS
    max_retries: int = 2
    #: keep arrival times (see :attr:`paced` for when they are kept
    #: anyway)
    respect_arrivals: bool = False

    # -- churn: a seeded crash/recovery trace targeting a downtime
    # fraction, sized to ``horizon_s`` or, without one, to the last
    # arrival plus CHURN_HORIZON_SLACK_S
    churn_rate: float = 0.0
    churn_mttr: float = 2.0
    churn_seed: int = 0

    # -- sim only (see SIM_ONLY)
    #: the autoscaler's ceiling is raised to ``nodes`` when below it
    autoscale: AutoscalePolicy | None = None
    carbon: CarbonConfig | None = None

    # -- the stream's shape
    #: base arrival rate (None = the scenario's)
    rate_rps: float | None = None
    #: model-time end of the stream and of the churn trace (keeps the
    #: arrivals)
    horizon_s: float | None = None
    #: tenants of the stream (Zipf weights, cycling SLO tiers): each
    #: job's request class and deadline come from its tenant's tier
    tenants: int = 3
    diurnal_amplitude: float = 0.5
    burst_mult: float = 3.0
    #: sim only (see SIM_ONLY); gates each arrival, so keeps them
    admission: AdmissionPolicy | None = None

    def __post_init__(self):
        if self.admission is not None and self.autoscale is not None:
            raise ValueError(
                "--admission does not take --autoscale (admission and "
                "backpressure bound the backlog instead)"
            )
        if self.jobs is None and self.horizon_s is None:
            raise ValueError("jobs=None needs a horizon_s to bound the stream")
        carbon = self.carbon
        if carbon is None:
            return
        if carbon.trace is None:
            raise ValueError(
                "--carbon-policy, --power-cap and --carbon-threshold "
                "need --carbon-trace"
            )
        if carbon.power_cap_w is not None:
            from repro.carbon import node_watts

            busy_w = (carbon.power or node_watts(self.time_model)).busy_w
            if carbon.power_cap_w < busy_w:
                raise ValueError(
                    f"--power-cap ({carbon.power_cap_w:g} W) is below one "
                    f"busy node ({busy_w:g} W) for --time-model "
                    f"{self.time_model}; no job could ever start"
                )

    def as_dict(self) -> dict:
        """Every field in field order, as plain JSON types; the nested
        policies and the carbon config become dicts of their own fields."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        for name in ("autoscale", "admission"):
            if out[name] is not None:
                out[name] = asdict(out[name])
        carbon = self.carbon
        if carbon is None:
            return out
        out["carbon"] = {f.name: getattr(carbon, f.name) for f in fields(carbon)}
        if carbon.power is not None:
            out["carbon"]["power"] = asdict(carbon.power)
        trace = {name: getattr(carbon.trace, name) for name in _TRACE_FIELDS}
        trace["grid_events"] = [list(event) for event in trace["grid_events"]]
        out["carbon"]["trace"] = trace
        return out

    @property
    def failure_aware(self) -> bool:
        """Churn or autoscaling: the run keeps its arrivals (:attr:`paced`)
        and the CLI prints its resilience table.  The summary's blocks do
        not read it: they follow the run's own data (``retries`` after a
        crash, ``deadlines`` once paced)."""
        return self.churn_rate > 0 or self.autoscale is not None

    @property
    def paced(self) -> bool:
        """The run keeps the stream's arrival times: asked for, needed by
        churn or autoscaling, or read by a horizon or admission."""
        return (
            self.respect_arrivals
            or self.failure_aware
            or self.horizon_s is not None
            or self.admission is not None
        )

    def traffic(self) -> OpenLoopTraffic:
        """The seeded job stream this scenario runs (a fresh object)."""
        return OpenLoopTraffic(
            self.scenario,
            seed=self.seed,
            tenants=default_tenants(self.tenants),
            rate_rps=self.rate_rps,
            diurnal_amplitude=self.diurnal_amplitude,
            burst_mult=self.burst_mult,
            max_jobs=self.jobs,
            horizon_s=self.horizon_s,
        )


@dataclass
class ScenarioResult:
    """What one :func:`run` leaves behind."""

    #: the runtime's summary (the sim's, see the module docstring, or
    #: the fleet's measured summary)
    summary: dict
    #: the run's structured event log
    events: EventLog
    #: completed records in finish order
    records: list[JobRecord]
    #: proofs by job id (the real fleet; the model-time sim proves none)
    proofs: dict[int, object] = field(default_factory=dict)


def run(scenario: Scenario, *, runtime: str = "sim", **fleet) -> ScenarioResult:
    """Run ``scenario`` on the simulator or (``runtime="fleet"``) on real
    worker processes; ``fleet`` holds fleet-only ``FleetConfig`` fields."""
    if runtime not in ("sim", "fleet"):
        raise ValueError(f"unknown runtime {runtime!r}; choose 'sim' or 'fleet'")
    if runtime == "sim" and fleet:
        raise ValueError(f"{sorted(fleet)} are fleet settings; pass runtime='fleet'")
    sim_only = [n for n, off in SIM_ONLY.items() if getattr(scenario, n) != off]
    if runtime == "fleet" and sim_only:
        raise ValueError(
            f"Scenario.{sim_only[0]} is a sim-only setting; runtime='fleet' "
            "cannot take it"
        )
    traffic = scenario.traffic()
    jobs = traffic.jobs()
    # one pacing rule for both runtimes (module docstring); the sim pulls
    # a paced stream lazily unless the churn trace is sized by its end
    paced = scenario.paced
    sized_by_jobs = scenario.churn_rate > 0 and scenario.horizon_s is None
    if runtime == "fleet" or not paced or sized_by_jobs:
        jobs = list(jobs)
    churn = _churn(scenario, jobs)
    if not paced:
        for job in jobs:
            job.arrival_s = 0.0
    config = dict(
        num_nodes=scenario.nodes,
        policy=scenario.policy,
        time_model=scenario.time_model,
        replicas=scenario.replicas,
        max_retries=scenario.max_retries,
        node=NodeConfig(
            cache_capacity=scenario.cache_capacity, max_vars=traffic.max_vars()
        ),
    )
    if runtime == "fleet":
        from repro.fleet.core import FleetConfig, ProvingFleet

        real = ProvingFleet(FleetConfig(**config, **fleet))
        records = real.run(jobs, churn=churn)
        return ScenarioResult(real.summary(), real.events, records, real.proofs)
    autoscale = scenario.autoscale
    if autoscale is not None and autoscale.max_nodes < scenario.nodes:
        autoscale = replace(autoscale, max_nodes=scenario.nodes)
    cluster = ProvingCluster(
        ClusterConfig(**config, autoscale=autoscale, carbon=scenario.carbon)
    )
    admission = scenario.admission
    if admission is not None:
        admission = make_admission(cluster, admission, traffic.tenants)
    engine = OpenLoopEngine(cluster, traffic, admission=admission)
    records = cluster.run(jobs, churn=churn, engine=engine)
    stream = traffic_summary(engine)
    stream.pop("carbon", None)  # the cluster's block carries the same
    summary = {**cluster.summary(), "traffic": stream}
    return ScenarioResult(summary, engine.events, records)


def _churn(scenario: Scenario, jobs) -> list:
    """The churn trace, to ``horizon_s`` or past the last arrival."""
    if scenario.churn_rate == 0:
        return []
    horizon_s = scenario.horizon_s
    if horizon_s is None:
        horizon_s = max(job.arrival_s for job in jobs) + CHURN_HORIZON_SLACK_S
    return trace_for_downtime(
        scenario.nodes,
        horizon_s,
        downtime_fraction=scenario.churn_rate,
        mttr_s=scenario.churn_mttr,
        seed=scenario.churn_seed,
    )
