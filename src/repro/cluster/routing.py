"""Job-to-node routing: round-robin, least-loaded, fingerprint affinity.

The router decides which :class:`~repro.cluster.nodes.ProverNode` gets
each :class:`~repro.service.jobs.ProofJob`.  Three policies:

* ``round_robin`` — cycle through nodes in id order, ignoring cost and
  circuit structure.  The sharding baseline: even job counts, maximal
  index duplication.
* ``least_loaded`` — assign to the node with the smallest *predicted
  outstanding cost*: the sum of plan-predicted prove seconds
  (:class:`~repro.service.costing.JobCostModel`) of everything routed
  there but not yet drained.  Greedy argmin keeps the imbalance bound
  tight: no node's outstanding cost ever exceeds another's by more than
  one job at assignment time.
* ``affinity`` — consistent hashing on ``circuit_fingerprint`` via
  :class:`HashRing`, so every job proving one circuit structure lands on
  one node and the node's :class:`~repro.service.cache.IndexCache` (and
  its fixed-base MSM reuse) survives sharding.

:class:`HashRing` hashes with SHA-256, never Python's salted ``hash()``,
so placements are identical across runs, interpreters, and machines —
``tests/test_cluster_routing.py`` locks this across a process boundary.
Adding or removing a node only moves the keys that land on it
(~K/N of them), which is the whole point of hashing consistently.

Failure awareness (ISSUE 5) rides on the same guarantee: a crashed node
is *marked down* — its ring points are withdrawn, so only its ~K/N keys
remap, and every policy skips it — while staying a cluster member, so a
recovery re-adds the same points and the original placement returns.
Retries can additionally pass an ``exclude`` set so a requeued job never
lands back on the node that just lost it.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
from typing import Iterable, Mapping

from repro.plan.cost import FunctionalProverCostModel, OutstandingCost, ShapeCostModel
from repro.service.jobs import ProofJob

#: routing policy names accepted by :class:`ClusterRouter`
ROUTING_POLICIES = ("round_robin", "least_loaded", "affinity")


class NoRoutableNodeError(RuntimeError):
    """Raised when every cluster node is down or excluded.

    The failure-aware engine catches this to *park* jobs until a node
    recovers; reaching it through the plain :class:`ClusterRouter` API
    means the caller took the whole fleet down.
    """


#: virtual points per node on the hash ring; more replicas smooth the
#: per-node share of key space at the cost of ring size
DEFAULT_REPLICAS = 64


def stable_hash(value: str) -> int:
    """Process-stable 64-bit hash (SHA-256 prefix, never ``hash()``)."""
    digest = hashlib.sha256(value.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Consistent-hash ring over node ids with virtual replicas."""

    def __init__(
        self,
        node_ids: Iterable[str] = (),
        *,
        replicas: int = DEFAULT_REPLICAS,
    ):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        self._nodes: set[str] = set()
        #: sorted virtual points; parallel lists for bisect
        self._point_hashes: list[int] = []
        self._point_nodes: list[str] = []
        for node_id in node_ids:
            self.add_node(node_id)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    @property
    def node_ids(self) -> list[str]:
        """Member node ids, sorted."""
        return sorted(self._nodes)

    def _points_for(self, node_id: str) -> list[int]:
        return [stable_hash(f"{node_id}#{i}") for i in range(self.replicas)]

    def add_node(self, node_id: str) -> None:
        """Insert the node's virtual points (~K/N keys move to it)."""
        if node_id in self._nodes:
            raise ValueError(f"node {node_id!r} is already on the ring")
        self._nodes.add(node_id)
        for point in self._points_for(node_id):
            index = bisect.bisect_left(self._point_hashes, point)
            self._point_hashes.insert(index, point)
            self._point_nodes.insert(index, node_id)

    def remove_node(self, node_id: str) -> None:
        """Withdraw the node's points (only its keys move away)."""
        if node_id not in self._nodes:
            raise KeyError(f"node {node_id!r} is not on the ring")
        self._nodes.discard(node_id)
        keep = [
            (point, node)
            for point, node in zip(self._point_hashes, self._point_nodes)
            if node != node_id
        ]
        self._point_hashes = [point for point, _ in keep]
        self._point_nodes = [node for _, node in keep]

    def node_for(self, key: str, *, exclude: Iterable[str] = ()) -> str:
        """The node owning ``key``: first ring point clockwise from it.

        With ``exclude``, the walk continues clockwise past excluded
        nodes to the next distinct owner — the consistent-hash failover
        rule, so one failed node only diverts its own keys and every
        diverted key goes to the key's ring successor.
        """
        if not self._nodes:
            raise ValueError("the ring has no nodes")
        excluded = set(exclude)
        eligible = self._nodes - excluded
        if not eligible:
            raise NoRoutableNodeError(
                f"every ring node is excluded ({sorted(excluded)})"
            )
        start = bisect.bisect_right(self._point_hashes, stable_hash(key))
        points = len(self._point_hashes)
        for offset in range(points):
            node = self._point_nodes[(start + offset) % points]
            if node not in excluded:
                return node
        raise NoRoutableNodeError("no eligible ring point found")

    def __repr__(self):
        return f"HashRing(nodes={len(self._nodes)}, replicas={self.replicas})"


class ClusterRouter:
    """Assigns jobs to node ids under one of :data:`ROUTING_POLICIES`.

    The router tracks predicted outstanding cost per node through a
    shared :class:`~repro.plan.OutstandingCost` (fed by :meth:`assign`,
    drained by :meth:`release`) so ``least_loaded`` stays correct
    without reaching into node internals and the autoscaler can read the
    same fleet-wide signal; the cluster releases a node's cost when it
    drains.  Down marks (:meth:`mark_down` / :meth:`mark_up`) carry node
    churn: a down node keeps its membership but receives no traffic and
    holds no ring points.
    """

    def __init__(
        self,
        policy: str,
        node_ids: Iterable[str],
        *,
        cost_model: ShapeCostModel | None = None,
        replicas: int = DEFAULT_REPLICAS,
    ):
        if policy not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {policy!r}; choose from {ROUTING_POLICIES}"
            )
        self.policy = policy
        self._node_ids: list[str] = sorted(node_ids)
        if not self._node_ids:
            raise ValueError("a router needs at least one node")
        self.ring = HashRing(self._node_ids, replicas=replicas)
        self.cost_model = cost_model or FunctionalProverCostModel()
        self.outstanding = OutstandingCost(self.cost_model)
        for node_id in self._node_ids:
            self.outstanding.track(node_id)
        self._costs = self.outstanding.node_costs
        self._down: set[str] = set()
        self._rr_next = 0
        # least_loaded argmin index: (cost, node_id) entries with lazy
        # invalidation — every cost change pushes a fresh entry, stale
        # ones are dropped when they surface (see _select_least_loaded)
        self._load_heap: list[tuple[float, str]] = []
        self._rebuild_load_index()

    @property
    def node_ids(self) -> list[str]:
        """Every member node id, down nodes included (sorted)."""
        return list(self._node_ids)

    @property
    def up_node_ids(self) -> list[str]:
        """Member node ids currently accepting traffic (sorted)."""
        return [n for n in self._node_ids if n not in self._down]

    def up_count(self) -> int:
        """``len(up_node_ids)`` without building the list."""
        return len(self._node_ids) - len(self._down)

    @property
    def down_node_ids(self) -> list[str]:
        """Member node ids currently marked down (sorted)."""
        return sorted(self._down)

    @property
    def outstanding_s(self) -> Mapping[str, float]:
        """Predicted outstanding prove seconds per member node (live view)."""
        return self._costs

    # -- least_loaded index --------------------------------------------------
    def _rebuild_load_index(self) -> None:
        """Re-seed the argmin heap with one current entry per up node."""
        costs = self._costs
        self._load_heap = [
            (costs[n], n) for n in self._node_ids if n not in self._down
        ]
        heapq.heapify(self._load_heap)

    def _reindex_load(self, node_id: str) -> None:
        """Push ``node_id``'s current cost after any cost change.

        Old entries for the node become stale (their cost no longer
        matches) and are dropped lazily; a periodic rebuild bounds the
        garbage at a small multiple of the member count.
        """
        heap = self._load_heap
        if len(heap) > max(64, 8 * len(self._node_ids)):
            self._rebuild_load_index()
            return
        heapq.heappush(heap, (self._costs[node_id], node_id))

    def _select_least_loaded(self, exclude: Iterable[str]) -> str:
        """Heap argmin over predicted outstanding cost.

        Every entry names a member (:meth:`remove_node` re-seeds the
        heap); it is *current* iff its node is up and its cost equals
        the node's outstanding cost right now; anything else is stale
        garbage and is popped.  Current entries for excluded nodes are
        held aside and re-pushed, so the result is exactly the
        ``min((cost, node_id))`` of the old O(N) scan — including the
        node-id tie-break — at O(log n) amortized.
        """
        excluded = set(exclude)
        heap = self._load_heap
        costs = self._costs
        down = self._down
        held: list[tuple[float, str]] = []
        chosen: str | None = None
        while heap:
            cost, node = heap[0]
            if node in down or cost != costs[node]:
                heapq.heappop(heap)
                continue
            if node in excluded:
                held.append(heapq.heappop(heap))
                continue
            chosen = node
            break
        for entry in held:
            heapq.heappush(heap, entry)
        if chosen is None:
            # the index only runs dry when nothing is routable —
            # _candidates then raises the canonical error; otherwise
            # (an index bug) re-seed and fall back to the exact scan
            candidates = self._candidates(exclude)
            self._rebuild_load_index()
            return min(candidates, key=lambda n: (costs[n], n))
        return chosen

    def add_node(self, node_id: str) -> None:
        """Join ``node_id`` as an up member."""
        if node_id in self.outstanding:
            raise ValueError(f"node {node_id!r} is already routed to")
        self.ring.add_node(node_id)
        self._node_ids = sorted(self._node_ids + [node_id])
        self.outstanding.track(node_id)
        self._reindex_load(node_id)
        self._rr_next = 0

    def remove_node(self, node_id: str) -> None:
        """Retire ``node_id`` from membership entirely."""
        if node_id not in self.outstanding:
            raise KeyError(f"node {node_id!r} is not routed to")
        if len(self._node_ids) == 1:
            raise ValueError("cannot remove the last node")
        if node_id not in self._down:
            self.ring.remove_node(node_id)
        self._down.discard(node_id)
        self._node_ids = [n for n in self._node_ids if n != node_id]
        self.outstanding.drop(node_id)
        self._rebuild_load_index()
        self._rr_next = 0

    # -- churn ---------------------------------------------------------------
    def mark_down(self, node_id: str) -> None:
        """Stop routing to a crashed member; its ~K/N ring keys remap.

        Unlike :meth:`remove_node`, the node stays a member (so
        :meth:`mark_up` restores its exact ring points), and a whole
        fleet may legally be down at once — jobs then park until a
        recovery.  The node's outstanding cost is zeroed; the caller
        requeues its jobs.
        """
        if node_id not in self.outstanding:
            raise KeyError(f"node {node_id!r} is not routed to")
        if node_id in self._down:
            raise ValueError(f"node {node_id!r} is already down")
        self._down.add(node_id)
        self.ring.remove_node(node_id)
        self.outstanding.release(node_id)
        self._rr_next = 0

    def mark_up(self, node_id: str) -> None:
        """Resume routing to a recovered member (ring points return)."""
        if node_id not in self.outstanding:
            raise KeyError(f"node {node_id!r} is not routed to")
        if node_id not in self._down:
            raise ValueError(f"node {node_id!r} is not down")
        self._down.discard(node_id)
        self.ring.add_node(node_id)
        self._reindex_load(node_id)
        self._rr_next = 0

    # -- assignment ----------------------------------------------------------
    def job_cost_s(self, job: ProofJob) -> float:
        """Predicted prove seconds for routing bookkeeping only.

        Never stamps ``job.predicted_cost_s`` — that field belongs to
        the node's own service cost model, and a fleet-model stamp here
        would corrupt the service's predicted-vs-actual metrics.
        """
        return self.outstanding.job_cost_s(job)

    def _candidates(self, exclude: Iterable[str]) -> list[str]:
        blocked = self._down | set(exclude)
        out = [n for n in self._node_ids if n not in blocked]
        if not out:
            raise NoRoutableNodeError(
                "no routable node: "
                f"{len(self._down)} down, excluded {sorted(set(exclude))}"
            )
        return out

    def select(self, job: ProofJob, *, exclude: Iterable[str] = ()) -> str:
        """The node this job *would* go to (no bookkeeping).

        ``exclude`` temporarily bars specific nodes — the retry path
        uses it so a requeued job cannot return to the node that lost
        it, even if that node recovered in the meantime.
        """
        if self.policy == "least_loaded":
            # argmin outstanding, ties break by node id order — via the
            # lazy heap index, no per-assign scan of the member list
            return self._select_least_loaded(exclude)
        candidates = self._candidates(exclude)
        if self.policy == "round_robin":
            return candidates[self._rr_next % len(candidates)]
        return self.ring.node_for(job.circuit_key, exclude=exclude)

    def assign(
        self,
        job: ProofJob,
        *,
        exclude: Iterable[str] = (),
        cost_s: float | None = None,
    ) -> str:
        """Route ``job``: pick a node, charge ``cost_s`` (or :meth:`job_cost_s`)."""
        node_id = self.select(job, exclude=exclude)
        if self.policy == "round_robin":
            self._rr_next = (self._rr_next + 1) % len(self._candidates(exclude))
        self.outstanding.add(node_id, job, cost_s)
        if self.policy == "least_loaded":
            self._reindex_load(node_id)
        return node_id

    def release(self, node_id: str, cost_s: float | None = None) -> None:
        """Drop drained cost from ``node_id`` (all of it by default)."""
        if node_id not in self.outstanding:
            raise KeyError(f"node {node_id!r} is not routed to")
        self.outstanding.release(node_id, cost_s)
        if self.policy == "least_loaded" and node_id not in self._down:
            self._reindex_load(node_id)

    def __repr__(self):
        nodes = len(self._node_ids)
        return f"ClusterRouter(policy={self.policy!r}, nodes={nodes})"
