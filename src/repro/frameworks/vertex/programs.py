"""Vertex programs for the workloads.

Contains:

* literal per-vertex programs — transliterations of the paper's
  Algorithm 1 (PageRank) and Algorithm 2 (BFS), runnable on the
  :func:`~repro.frameworks.vertex.engine.run_vertex_program` interpreter
  and used as semantics oracles;
* :class:`VertexEngine` — what the vertex family owns around the six
  graph round programs of :mod:`repro.frameworks.rounds`: every active
  vertex messages its out-neighbors through
  :class:`~repro.frameworks.vertex.engine.BSPEngine`, which routes,
  combines and charges under the framework's profile;
* :class:`VertexTCEngine` / :class:`VertexCFEngine` — the same for
  triangle counting's program (one neighbour-list exchange) and
  collaborative filtering's (a gradient-descent iteration is two message
  phases over the bipartite ratings graph).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...algorithms.bfs import UNREACHED
from ...cluster import Spans
from ...errors import SimulationError
from ...graph import bipartite_graph
from ..base import FrameworkProfile
from ..rounds import Engine
from .engine import BSPEngine, ExchangeStats, VertexProgram

# ---------------------------------------------------------------------------
# Literal vertex programs (paper Algorithms 1 and 2).
# ---------------------------------------------------------------------------


class PageRankVertexProgram(VertexProgram):
    """Algorithm 1: PR <- r; for msg: PR += (1-r) * msg; send PR/degree."""

    def __init__(self, damping: float = 0.3, iterations: int = 10):
        self.damping = damping
        self.iterations = iterations

    def initial_value(self, vertex: int) -> float:
        return 1.0

    def compute(self, ctx, messages) -> None:
        if ctx.superstep > 0:
            rank = self.damping
            for message in messages:
                rank += (1.0 - self.damping) * message
            ctx.value = rank
        if ctx.superstep < self.iterations:
            degree = max(len(ctx.out_neighbors), 1)
            ctx.send_to_all_neighbors(ctx.value / degree)
        else:
            ctx.vote_to_halt()


class BFSVertexProgram(VertexProgram):
    """Algorithm 2: Distance <- min(Distance, msg + 1); send Distance."""

    def __init__(self, source: int = 0):
        self.source = source

    def initial_value(self, vertex: int) -> int:
        return 0 if vertex == self.source else UNREACHED

    def initially_active(self, vertex: int) -> bool:
        return vertex == self.source

    def compute(self, ctx, messages) -> None:
        improved = ctx.superstep == 0 and ctx.vertex == self.source
        for message in messages:
            if message + 1 < ctx.value:
                ctx.value = message + 1
                improved = True
        if improved:
            ctx.send_to_all_neighbors(ctx.value)
        ctx.vote_to_halt()


# ---------------------------------------------------------------------------
# The vertex family's side of the round programs.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VertexCost:
    """Cost row of one round program as a vertex program."""

    message_bytes: float        #: Table 1: what one edge message carries
    extras: tuple
    ops_per_edge: float = 8.0


COSTS = {
    "pagerank": VertexCost(8.0, ("partition_mode",)),           # a double
    "bfs": VertexCost(4.0, ("frontier_sizes", "reached")),      # an int
    "wcc": VertexCost(8.0, ("partition_mode", "components")),   # a long
    "sssp": VertexCost(8.0, ("frontier_rounds", "reached")),    # a double
    # A removed vertex messages a decrement to every neighbor, so a
    # level with a deep cascade pays a superstep (and its overhead) per
    # wave — what separates the frameworks from batched native code.
    "k_core": VertexCost(4.0, ("partition_mode", "max_core")),  # an int
    # The per-edge tally insert costs a couple of ops beyond the
    # PageRank-style accumulate.
    "label_propagation": VertexCost(8.0, ("partition_mode", "communities"),
                                    ops_per_edge=10.0),
}


class VertexEngine(Engine):
    """Active vertices message all out-neighbors; the BSP engine charges."""

    def __init__(self, program, graph, cluster, profile: FrameworkProfile,
                 partition_mode: str = "1d"):
        super().__init__(program, graph, cluster, COSTS[program.algorithm])
        # See ``BSPEngine.round_messages``.
        self.reads_edges = profile.combines_messages \
            or cluster.num_nodes > 1
        self.partition_mode = partition_mode
        self.bsp = BSPEngine(graph, cluster, profile, partition_mode)
        self.bsp.allocate_graph(self.cost.message_bytes)
        if program.shape == "frontier":
            self._out_degrees = graph.out_degrees()

    def charge(self, rounds) -> None:
        """A superstep per round: each round's active ids message all
        their out-neighbors (on a vertex cut, the wire carries the
        mirror sync instead)."""
        bsp, cluster, message_bytes = self.bsp, self.cluster, \
            self.cost.message_bytes
        nodes, count = cluster.num_nodes, rounds.count
        messages, payload, traffic = bsp.round_messages(rounds, message_bytes)
        row = rounds.round_of_ids()
        if bsp.vertex_cut is not None:
            # GAS: the wire carries mirror sync, not per-edge messages.
            traffic = traffic * np.eye(nodes) + bsp.replication_sync_traffic(
                rounds.active, message_bytes, row, count)
        owners = row * nodes + bsp.vertex_owner[rounds.active]
        vertices = np.bincount(owners, minlength=count * nodes).reshape(
            count, nodes).astype(np.float64)
        edges = np.bincount(
            owners, weights=self._out_degrees[rounds.active].astype(float),
            minlength=count * nodes).reshape(count, nodes)
        volume = traffic.sum(-1) + traffic.sum(1)
        spans = None
        if cluster.tracer.enabled:
            extents, counts = bsp.exchange_spans(
                zip(messages.tolist(), payload.tolist()), 1)
            spans = Spans(rounds.extents(self.program.span) + extents,
                          rounds.frontier() + counts)
        cluster.supersteps(
            bsp.work(vertices, edges, volume, message_bytes,
                     ops_per_edge=self.cost.ops_per_edge), traffic,
            buffers=("message-buffers", bsp.buffers(volume)),
            marks=np.arange(1, count + 1), spans=spans, **bsp.profile.step)

    def iteration(self) -> dict:
        # Every vertex messages every out-neighbor (on a vertex cut the
        # wire carries the mirror sync): the same every iteration.
        bsp, message_bytes = self.bsp, self.cost.message_bytes
        all_ids = np.arange(self.graph.num_vertices, dtype=np.int64)
        if bsp.vertex_cut is not None:
            traffic = bsp.replication_sync_traffic(all_ids, message_bytes)
            self._stats = ExchangeStats(float(traffic.sum() / 8.0),
                                        float(traffic.sum()), traffic)
        else:
            self._stats = bsp.edge_messages(all_ids, message_bytes)
        return self.rows(bsp.rows(all_ids, bsp.edges_per_node.astype(float),
                                  self._stats, message_bytes,
                                  ops_per_edge=self.cost.ops_per_edge),
                         "message-buffers", **bsp.profile.step)

    def spans(self, index: int, rows: int) -> Spans:
        extents, counts = self.bsp.exchange_spans([self._stats], 1)
        # A vertex cut's sync is not counted as messages.
        return Spans([("iteration", {"index": index}, 0, rows, 0)] + extents,
                     counts if self.bsp.vertex_cut is None else [])

    def diagnostics(self) -> dict:
        return {"partition_mode": self.partition_mode}


class VertexTCEngine(Engine):
    """Triangle counting: every vertex ships its neighbor list.

    ``superstep_splits`` is Giraph's memory fix ("breaking up each
    superstep into 100 smaller supersteps", Section 6.1.3);
    ``use_cuckoo`` marks GraphLab's cuckoo-hash membership structure,
    which costs a couple of extra ops per probe vs the native bit-vector
    but stays constant-time.
    """

    def __init__(self, program, graph, cluster, profile: FrameworkProfile,
                 partition_mode: str, superstep_splits: int = 1,
                 use_cuckoo: bool = False):
        super().__init__(program, graph, cluster)
        if superstep_splits < 1:
            raise SimulationError("superstep_splits must be >= 1")
        self.superstep_splits = superstep_splits
        self.bsp = BSPEngine(graph, cluster, profile, partition_mode)
        self.bsp.allocate_graph(8.0)
        self._ops_per_edge = 10.0 if use_cuckoo else 14.0
        degrees = program.degrees
        self._senders = np.flatnonzero(degrees > 0)
        self._stats = self.bsp.edge_messages(
            self._senders, 8.0 * degrees[self._senders],
            serialization_factor=1.0)
        # Probe work: each received list N(u) is checked against N(v) on
        # the edge target's owner.
        self._probe_edges = np.bincount(
            self.bsp.vertex_owner[graph.targets],
            weights=degrees[graph.sources()], minlength=cluster.num_nodes)

    def iteration(self) -> dict:
        # The membership structure for the vertex under test (cuckoo
        # table / hash set) is small and cache-resident, so the probes
        # stream through the received lists — a small gather granularity
        # instead of the engine's cold-line default.
        bsp = self.bsp
        return self.rows(bsp.rows(
            self._senders, self._probe_edges, self._stats, 8.0,
            splits=self.superstep_splits, ops_per_edge=self._ops_per_edge,
            gather_bytes_override=24.0), "message-buffers", **bsp.profile.step)

    def spans(self, index: int, rows: int) -> Spans:
        extents, counts = self.bsp.exchange_spans([self._stats], 1, rows)
        # The lists are counted once, when the exchange is planned.
        return Spans([("neighborhood-exchange", {
            "payload_bytes": self._stats.payload_bytes}, 0, rows, 0)]
            + extents, counts if index == 0 else [])

    def diagnostics(self) -> dict:
        return {"superstep_splits": self.superstep_splits,
                "message_payload_bytes": self._stats.payload_bytes}


class VertexCFEngine(Engine):
    """Gradient-descent CF as a vertex program on the bipartite graph.

    One GD iteration = two message phases (users -> items with p_u, then
    items -> users with q_v), each carrying a K-vector of doubles —
    Table 1's "8K"-byte messages. ``superstep_splits`` staggers senders
    for Giraph's memory ceiling ("only 1/s vertices have to send
    messages in a given superstep", Section 3.2).
    """

    def __init__(self, program, ratings, cluster, profile: FrameworkProfile,
                 partition_mode: str, superstep_splits: int = 1,
                 combine_messages: bool = None):
        super().__init__(program, ratings, cluster)
        if superstep_splits < 1:
            raise SimulationError("superstep_splits must be >= 1")
        self.superstep_splits = superstep_splits
        self.bsp = BSPEngine(bipartite_graph(ratings), cluster, profile,
                             partition_mode)
        self.value_bytes = 8.0 * program.hidden_dim
        self.bsp.allocate_graph(self.value_bytes,
                                vertex_scale_correction=program.density)
        self.combine = profile.combines_messages if combine_messages is None \
            else combine_messages
        users = np.arange(ratings.num_users, dtype=np.int64)
        items = np.arange(ratings.num_items, dtype=np.int64) \
            + ratings.num_users
        self._phases = [(direction, senders, *self._exchange(senders))
                        for direction, senders in (("users->items", users),
                                                   ("items->users", items))]

    def _exchange(self, senders) -> tuple:
        """A phase's messages and edges per node: the same every
        iteration."""
        bsp, density = self.bsp, self.program.density
        stats = bsp.edge_messages(senders, self.value_bytes,
                                  combine=self.combine)
        if self.combine:
            # Combined messages are one-per-(node, target-vertex), i.e.
            # vertex-proportional — apply the density correction.
            stats = stats._replace(traffic=stats.traffic / density)
        if bsp.vertex_cut is not None:
            # GAS wire traffic is the mirror gather/scatter sync, not
            # per-edge messages (those stay local on the mirrors); keep
            # only node-local buffering volume from the edge stats.
            sync = bsp.replication_sync_traffic(senders, self.value_bytes)
            stats = stats._replace(traffic=np.diag(np.diag(stats.traffic))
                                   + sync / density)
        return stats, np.bincount(
            bsp.vertex_owner[senders],
            weights=bsp.graph.out_degrees()[senders].astype(float),
            minlength=self.cluster.num_nodes)

    def iteration(self) -> dict:
        k = self.program.hidden_dim
        return self.rows([row for _, senders, stats, edges_per_node
                          in self._phases for row in self.bsp.rows(
                              senders, edges_per_node, stats,
                              self.value_bytes, splits=self.superstep_splits,
                              ops_per_edge=8.0 * k, ops_per_vertex=4.0 * k)],
                         "message-buffers", **self.bsp.profile.step)

    def spans(self, index: int, rows: int) -> Spans:
        splits = self.superstep_splits
        extents, counts = self.bsp.exchange_spans(
            [stats for _, _, stats, _ in self._phases], 2, splits)
        # A phase's buffers are allocated in its ``phase`` span.
        return Spans([("iteration", {"index": index}, 0, rows, 0)] + [
            ("phase", {"direction": direction}, first, first + splits, 1)
            for first, (direction, *_) in zip((0, splits), self._phases)]
            + extents, counts, alloc_depth=2)

    def diagnostics(self) -> dict:
        return {"superstep_splits": self.superstep_splits}
