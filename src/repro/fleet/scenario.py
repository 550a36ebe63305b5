"""One run cell, described once and run on either runtime.

:class:`Scenario` is a frozen description of one run: the seeded job
stream, the fleet, churn, and the settings only the simulator takes
(execute mode, autoscaling, carbon, open-loop traffic).  Every
cross-field rule is checked in ``__post_init__``, so a library caller
gets the checks ``repro-cluster`` and ``repro-fleet`` make; the CLIs
only parse their flags into a scenario and turn its ``ValueError`` into
exit status 2.  Messages name the CLI flag: each flag sets the field of
the same name (``--churn-rate`` → ``churn_rate``), and the carbon flags
set the :class:`~repro.carbon.CarbonConfig` fields.

:func:`run` takes a scenario down one of four existing paths:

* the closed batch, :meth:`~repro.cluster.core.ProvingCluster.run`;
* the failure-aware batch,
  :meth:`~repro.cluster.core.ProvingCluster.run_scenario`, when churn
  or autoscaling is set;
* the open-loop path, :class:`~repro.traffic.OpenLoopEngine`;
* the real fleet, :meth:`~repro.fleet.core.ProvingFleet.run`
  (``runtime="fleet"``), which rejects the sim-only settings by name
  and takes the fleet-only :class:`~repro.fleet.core.FleetConfig`
  fields (heartbeats, timeouts, ``time_scale``) as keyword arguments.

:meth:`Scenario.as_dict` is the cell as plain JSON types: the block
each ``BENCH_*`` record keeps next to the numbers one cell produced, and
that ``benchmarks/check_regression.py`` compares field by field.
Nothing reads a scenario back in, so there is no ``from_dict``.

The module sits in :mod:`repro.fleet`, the top runtime layer, so it
reaches both runtimes downward.  It imports :mod:`repro.fleet.core`
(and with it :mod:`multiprocessing`) only in the fleet branch, and
:mod:`repro.traffic` only in the open-loop branch.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import TYPE_CHECKING

from repro.cluster.autoscale import AutoscalePolicy
from repro.cluster.core import ClusterConfig, ProvingCluster
from repro.cluster.nodes import DEFAULT_NODE_CACHE_CAPACITY, NodeConfig
from repro.cluster.records import JobRecord
from repro.cluster.routing import DEFAULT_REPLICAS
from repro.service.traffic import TrafficGenerator
from repro.sim.events import EventLog
from repro.workloads import CHURN_HORIZON_SLACK_S, trace_for_downtime

if TYPE_CHECKING:  # pragma: no cover - typing only: built by the caller
    from repro.carbon import CarbonConfig
    from repro.cluster.admission import AdmissionPolicy

#: the settings only the simulator takes, with the value that leaves
#: each one off; ``run(..., runtime="fleet")`` rejects any other value
SIM_ONLY = {
    "execute": False,
    "wave_s": NodeConfig.wave_s,
    "autoscale": None,
    "carbon": None,
    "open_loop": False,
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
    #: jobs to generate; open loop: stop after this many (None = only
    #: ``horizon_s`` bounds the stream)
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
    respect_arrivals: bool = False

    # -- churn: a seeded crash/recovery trace targeting a downtime
    # fraction; the closed batch sizes it to the last arrival plus
    # CHURN_HORIZON_SLACK_S, the open loop to ``horizon_s``
    churn_rate: float = 0.0
    churn_mttr: float = 2.0
    churn_seed: int = 0

    # -- sim only (see SIM_ONLY)
    execute: bool = False
    #: execute-mode drain-wave window (None = one wave)
    wave_s: float | None = NodeConfig.wave_s
    #: the autoscaler's ceiling is raised to ``nodes`` when below it
    autoscale: AutoscalePolicy | None = None
    carbon: CarbonConfig | None = None
    open_loop: bool = False

    # -- open-loop traffic, read only when ``open_loop`` is set
    #: base arrival rate (None = the scenario's)
    rate_rps: float | None = None
    #: model-time end of the stream and of the churn trace
    horizon_s: float | None = None
    tenants: int = 3
    diurnal_amplitude: float = 0.5
    burst_mult: float = 3.0
    admission: AdmissionPolicy | None = None

    def __post_init__(self):
        if self.admission is not None and not self.open_loop:
            raise ValueError("--admission requires --open-loop")
        if self.open_loop:
            if self.execute:
                raise ValueError("--open-loop is a model-time path; drop --execute")
            if self.autoscale is not None:
                raise ValueError(
                    "--open-loop does not take --autoscale (admission and "
                    "backpressure bound the backlog instead)"
                )
            if self.churn_rate > 0 and self.horizon_s is None:
                raise ValueError(
                    "--open-loop with --churn-rate needs --horizon-s "
                    "to size the churn trace"
                )
        if self.jobs is None and (not self.open_loop or self.horizon_s is None):
            raise ValueError("jobs=None needs open_loop with a horizon_s")
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
        """A closed batch with churn or autoscaling runs ``run_scenario``."""
        return self.churn_rate > 0 or self.autoscale is not None


@dataclass
class ScenarioResult:
    """What one :func:`run` leaves behind."""

    #: the runtime's summary (``cluster_summary`` / ``traffic_summary`` /
    #: the fleet's measured summary)
    summary: dict
    #: the run's structured event log
    events: EventLog
    #: completed records in finish order
    records: list[JobRecord]
    #: proofs by job id (execute mode and the real fleet; else empty)
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
    if scenario.open_loop:
        return _run_open_loop(scenario)
    generator = TrafficGenerator(scenario.scenario, seed=scenario.seed)
    jobs = generator.jobs(scenario.jobs)
    config = _config_fields(scenario, generator.max_vars())
    horizon_s = max(job.arrival_s for job in jobs) + CHURN_HORIZON_SLACK_S
    churn = _churn(scenario, horizon_s)
    if runtime == "fleet":
        from repro.fleet.core import FleetConfig, ProvingFleet

        real = ProvingFleet(FleetConfig(**config, **fleet))
        records = real.run(jobs, churn=churn)
        return ScenarioResult(real.summary(), real.events, records, real.proofs)
    with ProvingCluster(_cluster_config(scenario, config)) as cluster:
        if scenario.failure_aware:
            records = cluster.run_scenario(jobs, churn=churn)
        else:
            records = cluster.run(jobs)
        proofs = {result.job_id: result.proof for result in cluster.results}
        return ScenarioResult(cluster.summary(), cluster.events, records, proofs)


def _config_fields(scenario: Scenario, max_vars: int) -> dict:
    """The fields ``ClusterConfig`` and ``FleetConfig`` share."""
    return dict(
        num_nodes=scenario.nodes,
        policy=scenario.policy,
        time_model=scenario.time_model,
        replicas=scenario.replicas,
        max_retries=scenario.max_retries,
        respect_arrivals=scenario.respect_arrivals,
        node=NodeConfig(
            cache_capacity=scenario.cache_capacity,
            max_vars=max_vars,
            wave_s=scenario.wave_s,
        ),
    )


def _cluster_config(scenario: Scenario, config: dict) -> ClusterConfig:
    autoscale = scenario.autoscale
    if autoscale is not None and autoscale.max_nodes < scenario.nodes:
        autoscale = replace(autoscale, max_nodes=scenario.nodes)
    return ClusterConfig(
        **config,
        execute=scenario.execute,
        autoscale=autoscale,
        carbon=scenario.carbon,
    )


def _churn(scenario: Scenario, horizon_s: float | None) -> list:
    return trace_for_downtime(
        scenario.nodes,
        horizon_s,
        downtime_fraction=scenario.churn_rate,
        mttr_s=scenario.churn_mttr,
        seed=scenario.churn_seed,
    )


def _run_open_loop(scenario: Scenario) -> ScenarioResult:
    from repro.traffic import (
        OpenLoopEngine,
        OpenLoopTraffic,
        default_tenants,
        make_admission,
        traffic_summary,
    )

    traffic = OpenLoopTraffic(
        scenario.scenario,
        seed=scenario.seed,
        tenants=default_tenants(scenario.tenants),
        rate_rps=scenario.rate_rps,
        diurnal_amplitude=scenario.diurnal_amplitude,
        burst_mult=scenario.burst_mult,
        max_jobs=scenario.jobs,
        horizon_s=scenario.horizon_s,
    )
    config = _config_fields(scenario, traffic.max_vars())
    with ProvingCluster(_cluster_config(scenario, config)) as cluster:
        admission = None
        if scenario.admission is not None:
            admission = make_admission(cluster, scenario.admission, traffic.tenants)
        engine = OpenLoopEngine(cluster, traffic, admission=admission)
        records = engine.run_open_loop(churn=_churn(scenario, scenario.horizon_s))
        return ScenarioResult(traffic_summary(engine), engine.events, records)
