"""The simulated multi-node proving cluster (route → shard → drain).

:class:`ProvingCluster` shards a :class:`~repro.service.jobs.ProofJob`
stream over N :class:`~repro.cluster.nodes.ProverNode`\\ s through a
:class:`~repro.cluster.routing.ClusterRouter`.  Model time comes from a
:class:`~repro.cluster.timemodel.FleetTimeModel`, and nothing is
proven: ``runtime="fleet"`` (:func:`repro.fleet.scenario.run`) proves the
same scenario on real worker processes and measures the cache hit rates
and install seconds this model predicts.

Every run is driven by the discrete-event
:class:`~repro.cluster.engine.ClusterEngine` on :mod:`repro.sim`, which
routes each job at its ``arrival_s``.  :meth:`ProvingCluster.run` is the
closed batch — no churn, and a summary without a resilience section —
and :meth:`run_scenario` is the failure-aware path: node churn from a
seeded trace, deterministic retry/requeue that excludes the failed node,
optional plan-cost-driven autoscaling (:class:`~repro.cluster.autoscale.\
AutoscalePolicy`), and the resilience section in :meth:`summary`.  To
ignore arrivals, hand either one a stream with every ``arrival_s`` zero.

Nodes can be added or removed between runs; the affinity policy's
consistent-hash ring then moves only the ~K/N fingerprints that land on
the changed node, so warm caches elsewhere survive rebalancing.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING, Iterable

from repro.cluster.autoscale import AutoscalePolicy
from repro.cluster.engine import ClusterEngine
from repro.cluster.metrics import cluster_summary
from repro.cluster.nodes import JobRecord, NodeConfig, ProverNode
from repro.cluster.routing import DEFAULT_REPLICAS, ClusterRouter
from repro.cluster.timemodel import FleetTimeModel
from repro.service.jobs import ProofJob
from repro.sim.events import EventLog
from repro.workloads.churn import ChurnEvent

if TYPE_CHECKING:  # pragma: no cover - typing only: the carbon layer
    # sits above this one and plugs itself in (CarbonConfig.attach)
    from repro.carbon.runtime import CarbonConfig, CarbonRuntime


@dataclass
class ClusterConfig:
    """Knobs for one :class:`ProvingCluster`."""

    num_nodes: int = 4
    #: ``round_robin`` | ``least_loaded`` | ``affinity``
    policy: str = "affinity"
    #: :data:`~repro.cluster.timemodel.TIME_MODEL_PRESETS` preset name
    time_model: str = "accelerator"
    #: shared per-node configuration
    node: NodeConfig = dc_field(default_factory=NodeConfig)
    #: virtual points per node on the affinity hash ring
    replicas: int = DEFAULT_REPLICAS
    #: crash-retry budget per job in :meth:`ProvingCluster.run_scenario`
    #: (a job lost to its ``max_retries + 1``-th crash is failed)
    max_retries: int = 2
    #: plan-cost-driven fleet sizing for scenario runs (None = fixed)
    autoscale: AutoscalePolicy | None = None
    #: carbon/power accounting and policies (None = carbon-free run): a
    #: :class:`repro.carbon.CarbonConfig`, which attaches its own
    #: runtime to each run's engine — this layer imports none of it
    carbon: "CarbonConfig | None" = None


class ProvingCluster:
    """A router plus N prover nodes; see the module docstring."""

    def __init__(
        self,
        config: ClusterConfig | None = None,
        *,
        time_model: FleetTimeModel | None = None,
    ):
        self.config = config = config or ClusterConfig()
        if config.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if config.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if time_model is None:
            time_model = FleetTimeModel.preset(config.time_model)
        self.time_model = time_model
        self.nodes: dict[str, ProverNode] = {}
        self._retired: list[ProverNode] = []
        self._next_node = 0
        self._next_id = 0
        node_ids = [self._new_node_id() for _ in range(config.num_nodes)]
        for node_id in node_ids:
            self.nodes[node_id] = self._make_node(node_id)
        self.router = ClusterRouter(
            config.policy,
            node_ids,
            cost_model=time_model.prove_model,
            replicas=config.replicas,
        )
        self.records: list[JobRecord] = []
        #: jobs dropped by scenario runs (retries exhausted / stranded)
        self.failed_jobs: list[ProofJob] = []
        #: resilience section of the last scenario run (None = none ran)
        self.resilience: dict | None = None
        #: structured event log of the last run (shared fleet schema;
        #: None until one ran)
        self.events: EventLog | None = None
        #: carbon runtime of the last run (None until one ran with a
        #: ``config.carbon``); holds joule/gram accounting and counters
        self.carbon: "CarbonRuntime | None" = None

    def _new_node_id(self) -> str:
        node_id = f"node-{self._next_node}"
        self._next_node += 1
        return node_id

    def _make_node(self, node_id: str) -> ProverNode:
        return ProverNode(node_id, self.config.node)

    # -- membership ---------------------------------------------------------
    def add_node(self) -> str:
        """Join a fresh node; affinity moves ~K/N fingerprints to it."""
        node_id = self._new_node_id()
        self.router.add_node(node_id)
        self.nodes[node_id] = self._make_node(node_id)
        return node_id

    def remove_node(self, node_id: str) -> None:
        """Retire ``node_id`` (its drained history stays in summaries)."""
        node = self.nodes.get(node_id)
        if node is None:
            raise KeyError(f"unknown node {node_id!r}")
        if node.queue or node.in_flight is not None or node.suspended_ids:
            raise ValueError(
                f"node {node_id!r} still has {len(node.queue)} pending jobs; "
                "drain before removing it"
            )
        self.router.remove_node(node_id)
        self._retired.append(self.nodes.pop(node_id))

    # -- running ------------------------------------------------------------
    def check_fits(self, job: ProofJob) -> None:
        """Reject circuits larger than the per-node SRS allows."""
        max_vars = self.config.node.max_vars
        if job.circuit.num_vars > max_vars:
            raise ValueError(
                f"circuit μ={job.circuit.num_vars} exceeds the cluster's "
                f"node SRS (max μ={max_vars})"
            )

    def next_job_id(self) -> int:
        """Stamp the next cluster-wide job id."""
        job_id = self._next_id
        self._next_id += 1
        return job_id

    def run(self, jobs: list[ProofJob]) -> list[JobRecord]:
        """Closed batch: route each job at its ``arrival_s``, no churn.

        Returns this run's records in finish order; the summary gains no
        resilience section (:meth:`run_scenario` adds one).  Nodes keep
        their clocks and caches across runs.
        """
        return self._run(jobs, ()).records

    def run_scenario(
        self,
        jobs: list[ProofJob],
        *,
        churn: Iterable[ChurnEvent] = (),
    ) -> list[JobRecord]:
        """Failure-aware run: arrival-driven routing, churn, retries.

        The churn trace crashes and recovers nodes by initial index;
        ``config.max_retries`` bounds per-job crash retries and
        ``config.autoscale`` (if set) resizes the fleet.  Completed
        records are returned; dropped jobs land in :attr:`failed_jobs`
        and the run's failure/autoscale accounting in :attr:`resilience`
        (both folded into :meth:`summary`).
        """
        engine = self._run(jobs, churn)
        stats = engine.stats.as_dict()
        if self.resilience is None:
            self.resilience = stats
        else:  # accumulate across scenario runs on one cluster
            merged = self.resilience
            for key, value in stats.items():
                if isinstance(value, (int, float)):
                    merged[key] = round(merged[key] + value, 6)
            merged["autoscale"]["scale_outs"] += stats["autoscale"]["scale_outs"]
            merged["autoscale"]["scale_ins"] += stats["autoscale"]["scale_ins"]
            merged["autoscale"]["actions"].extend(stats["autoscale"]["actions"])
        return engine.records

    def _run(self, jobs: list[ProofJob], churn: Iterable[ChurnEvent]) -> ClusterEngine:
        for job in jobs:
            self.check_fits(job)
        engine = ClusterEngine(self)
        engine.run(jobs, churn=churn)
        self.events = engine.events
        self.carbon = engine.carbon
        return engine

    # -- reporting ----------------------------------------------------------
    def _all_nodes(self) -> list[ProverNode]:
        active = [self.nodes[node_id] for node_id in sorted(self.nodes)]
        return self._retired + active

    def summary(self) -> dict:
        """One dict of model/cache/routing (and resilience) metrics."""
        return cluster_summary(
            self._all_nodes(),
            self.records,
            policy=self.config.policy,
            time_model=self.time_model.name,
            failed_jobs=self.failed_jobs,
            resilience=self.resilience,
            # deadlines mean something once arrivals are paced: after a
            # scenario run, or when any job arrived after t=0
            deadlines=(
                self.resilience is not None
                or any(record.arrival_s for record in self.records)
            ),
            carbon=(
                self.carbon.as_dict(self.records, self._all_nodes())
                if self.carbon is not None
                else None
            ),
        )

    def __enter__(self) -> "ProvingCluster":
        return self

    def __exit__(self, *exc) -> None:
        """Nothing to release: a simulated node holds no process or
        service."""
