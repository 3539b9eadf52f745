"""Bulk-synchronous vertex-programming engine (GraphLab / Giraph family).

Two layers:

* :class:`VertexProgram` + :func:`run_vertex_program` — a literal Pregel
  interpreter: per-vertex ``compute`` methods receiving messages, exactly
  the programming model of the paper's Algorithms 1 and 2. Pure Python,
  used as the *semantics oracle* and in examples.
* :class:`BSPEngine` — the performance-bearing engine the framework
  drivers use: algorithms execute vectorized, while the engine routes
  messages between simulated nodes, applies sender-side combining,
  accounts buffer memory (including Giraph's buffer-everything mode and
  the Section 6.1.3 superstep-splitting fix), and charges compute work
  through the framework's profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...cluster import Cluster, ComputeWork
from ...cluster.cost import CACHE_LINE_BYTES
from ...errors import SimulationError
from ...graph import CSRGraph, partition_vertex_cut, partition_vertices_1d
from ...graph.csr import derived
from ...kernels.segments import distinct, first_occurrence, pair_traffic
from ...observability import NULL_TRACER
from ..base import FrameworkProfile

# ---------------------------------------------------------------------------
# Layer 1: the literal Pregel interpreter (semantics oracle).
# ---------------------------------------------------------------------------


class VertexContext:
    """What a vertex program may touch during ``compute``."""

    def __init__(self, vertex: int, value, out_neighbors, superstep: int):
        self.vertex = vertex
        self.value = value
        self.out_neighbors = out_neighbors
        self.superstep = superstep
        self._outbox = []
        self._halted = False

    def send_to_all_neighbors(self, message) -> None:
        for target in self.out_neighbors:
            self._outbox.append((int(target), message))

    def send(self, target: int, message) -> None:
        self._outbox.append((int(target), message))

    def vote_to_halt(self) -> None:
        self._halted = True


class VertexProgram:
    """Subclass and implement ``initial_value`` and ``compute``.

    ``compute(ctx, messages)`` runs once per active vertex per superstep;
    a vertex is active in superstep 0 (unless ``initially_active`` says
    otherwise) and thereafter whenever it has incoming messages. Setting
    ``ctx.value`` updates vertex state; ``ctx.vote_to_halt()`` plus an
    empty inbox deactivates the vertex — Giraph semantics (Section 3).
    """

    def initial_value(self, vertex: int):
        raise NotImplementedError

    def initially_active(self, vertex: int) -> bool:
        return True

    def compute(self, ctx: VertexContext, messages: list) -> None:
        raise NotImplementedError


def run_vertex_program(program: VertexProgram, graph: CSRGraph,
                       max_supersteps: int = 100,
                       collect_stats: bool = False,
                       tracer=NULL_TRACER):
    """Execute ``program`` to quiescence; returns (values, supersteps).

    With ``collect_stats=True`` returns ``(values, supersteps, stats)``
    where ``stats`` records per-superstep message and compute counts —
    the ground truth the vectorized :class:`BSPEngine` accounting is
    cross-validated against in the test suite.
    """
    values = [program.initial_value(v) for v in range(graph.num_vertices)]
    inbox = {v: [] for v in range(graph.num_vertices)}
    active = {v for v in range(graph.num_vertices) if program.initially_active(v)}
    superstep = 0
    stats = {"messages_per_superstep": [], "computes_per_superstep": []}
    while (active or any(inbox.values())) and superstep < max_supersteps:
        outbox = []
        compute_set = active | {v for v, msgs in inbox.items() if msgs}
        next_active = set()
        with tracer.span("interpreter-superstep", index=superstep):
            for vertex in sorted(compute_set):
                ctx = VertexContext(vertex, values[vertex],
                                    graph.neighbors(vertex), superstep)
                program.compute(ctx, inbox[vertex])
                values[vertex] = ctx.value
                outbox.extend(ctx._outbox)
                if not ctx._halted:
                    next_active.add(vertex)
        tracer.count("messages", len(outbox))
        tracer.advance(1.0)
        stats["messages_per_superstep"].append(len(outbox))
        stats["computes_per_superstep"].append(len(compute_set))
        inbox = {v: [] for v in range(graph.num_vertices)}
        for target, message in outbox:
            inbox[target].append(message)
        active = next_active
        superstep += 1
    if collect_stats:
        return values, superstep, stats
    return values, superstep


# ---------------------------------------------------------------------------
# Layer 2: the vectorized accounting engine.
# ---------------------------------------------------------------------------


@dataclass
class ExchangeStats:
    """What one message exchange cost."""

    messages: float            # message count after combining
    payload_bytes: float       # payload before serialization overhead
    traffic: np.ndarray        # wire bytes per node pair


class BSPEngine:
    """Message routing + cost accounting for one framework profile.

    ``partition_mode`` is ``"1d"`` (Giraph/SociaLite-style contiguous
    vertex ranges) or ``"vertex-cut"`` (GraphLab v2.2: edges placed,
    high-degree vertices mirrored).
    """

    def __init__(self, graph: CSRGraph, cluster: Cluster,
                 profile: FrameworkProfile, partition_mode: str = "1d"):
        if partition_mode not in ("1d", "vertex-cut"):
            raise SimulationError(f"unknown partition mode {partition_mode!r}")
        self.graph = graph
        self.cluster = cluster
        self.profile = profile
        self.partition_mode = partition_mode
        self.partition = partition_vertices_1d(graph.num_vertices,
                                               cluster.num_nodes)
        # Depends on (graph, nodes) only: shared by every cell on it.
        self.vertex_owner = derived(
            graph, ("vertex-owner", cluster.num_nodes),
            lambda: self.partition.owner_of_many(
                np.arange(graph.num_vertices)))
        #: Out-edges per owner; ranges are contiguous, so no edge scan.
        self.edges_per_node = np.diff(graph.offsets[self.partition.bounds])
        self.vertex_cut = partition_vertex_cut(graph, cluster.num_nodes) \
            if partition_mode == "vertex-cut" else None
        # Vertex-cut engines execute the GAS decomposition; 1d engines a
        # plain exchange-then-apply phase. Either way the cluster-level
        # superstep spans nest underneath.
        self.phase = "exchange-apply" if self.vertex_cut is None \
            else "gather/apply/scatter"

    # -- static structures -------------------------------------------------

    def allocate_graph(self, value_bytes: float,
                       per_vertex_state_bytes: float = None,
                       vertex_scale_correction: float = 1.0) -> None:
        """Register the distributed graph + vertex values on every node.

        ``vertex_scale_correction`` (>= 1) divides vertex-proportional
        state when the experiment's scale factor is derived from edge
        counts but the proxy's vertices-per-edge ratio overshoots the
        paper's (collaborative filtering; see cf_density_correction).
        """
        state = per_vertex_state_bytes if per_vertex_state_bytes is not None \
            else value_bytes
        state /= vertex_scale_correction
        nodes = self.cluster.num_nodes
        edges_per_node = self.edges_per_node
        verts_per_node = self.partition.part_sizes()
        if self.vertex_cut is not None:
            edges_per_node = self.vertex_cut.edges_per_part()
            # Mirrors replicate vertex state.
            verts_per_node = np.full(
                nodes, self.vertex_cut.replication_factor()
                * self.graph.num_vertices / nodes)
        self.cluster.allocate_all(
            "graph", (8 * np.asarray(edges_per_node, dtype=np.float64)
                      + state * np.asarray(verts_per_node, dtype=np.float64))
            * self.profile.message_overhead_factor)

    # -- message exchange -----------------------------------------------------

    def edge_messages(self, senders: np.ndarray, message_bytes,
                      combine: bool = None,
                      serialization_factor: float = None) -> ExchangeStats:
        """Messages from ``senders`` along all their out-edges.

        ``message_bytes`` is a scalar or a per-sender array (triangle
        counting sends whole adjacency lists). Sender-side combining
        (profile.combines_messages, overridable per call for programs
        that install their own combiner) collapses messages from one
        node to one *target vertex* into a single message — the "local
        reductions" of Section 6.1.1.
        """
        senders = np.asarray(senders, dtype=np.int64)
        nodes = self.cluster.num_nodes
        if senders.size == 0:
            return ExchangeStats(0.0, 0.0, np.zeros((nodes, nodes)))

        per_sender_bytes = np.broadcast_to(
            np.asarray(message_bytes, dtype=np.float64), senders.shape
        )
        targets, lengths = self.graph.neighbors_of_many(senders)
        if targets.size == 0:
            return ExchangeStats(0.0, 0.0, np.zeros((nodes, nodes)))
        per_edge_bytes = np.repeat(per_sender_bytes, lengths)
        edge_src_owner = np.repeat(self.vertex_owner[senders], lengths)
        edge_dst_owner = self.vertex_owner[targets]

        if combine is None:
            combine = self.profile.combines_messages
        if combine:
            # One message per unique (source node, target vertex): the
            # first edge of each pair, in ascending pair order.
            n = self.graph.num_vertices
            _, kept = first_occurrence(edge_src_owner * np.int64(n) + targets,
                                       nodes * n)
            edge_src_owner, edge_dst_owner, per_edge_bytes = (
                edge_src_owner[kept], edge_dst_owner[kept],
                per_edge_bytes[kept])
        message_count = float(per_edge_bytes.size)
        payload = float(per_edge_bytes.sum())
        traffic = pair_traffic(edge_src_owner, edge_dst_owner, per_edge_bytes,
                               nodes)

        # Bulk array payloads (e.g. neighbor-id lists) serialize without
        # the per-object overhead of small boxed messages.
        if serialization_factor is None:
            serialization_factor = self.profile.message_overhead_factor
        traffic *= serialization_factor
        return self.count_messages(
            ExchangeStats(message_count, payload, traffic))

    def count_messages(self, stats: ExchangeStats) -> ExchangeStats:
        """Report one exchange's messages to the tracer; returns it."""
        tracer = self.cluster.tracer
        if tracer.enabled:
            # Counters report paper scale, like the byte totals do.
            scale = self.cluster.scale_factor
            tracer.count("messages", stats.messages * scale)
            tracer.count("payload_bytes", stats.payload_bytes * scale)
        return stats

    def round_messages(self, rounds, message_bytes: float) -> tuple:
        """``(messages, payload_bytes, traffic)`` of every round of a
        chunk (:class:`~repro.frameworks.rounds.Rounds`): what
        :meth:`edge_messages` of each round's active ids returns, bit for
        bit, for a whole-byte scalar ``message_bytes`` (every round
        program's: Table 1's 4 and 8 bytes). Each per-pair sum is then a
        count times that size, exact in any order; combining keeps the
        distinct (round, source node, target vertex) triples. On one node without combining a
        round's messages are its edges, so nothing is gathered."""
        nodes, n, count = self.cluster.num_nodes, self.graph.num_vertices, \
            rounds.count
        combine = self.profile.combines_messages
        if nodes == 1 and not combine:
            counts = rounds.edges.astype(np.int64)
        else:
            targets, lengths = rounds.gather()
            sources = rounds.round_of_edges(lengths)
            if nodes > 1:
                sources = sources * nodes + np.repeat(
                    self.vertex_owner[rounds.active], lengths)
            if combine:
                kept = distinct(sources * np.int64(n) + targets,
                                count * nodes * n)
                sources, targets = kept // n, kept % n
            counts = np.bincount(
                sources if nodes == 1
                else sources * nodes + self.vertex_owner[targets],
                minlength=count * nodes * nodes)
        messages = counts.reshape(count, nodes * nodes).sum(1).astype(
            np.float64)
        traffic = counts.reshape(count, nodes, nodes) * message_bytes \
            * self.profile.message_overhead_factor
        return messages, messages * message_bytes, traffic

    def replication_sync_traffic(self, active: np.ndarray, value_bytes: float,
                                 row: np.ndarray = None,
                                 rows: int = 1) -> np.ndarray:
        """Vertex-cut gather/scatter traffic (GraphLab), or with ``row``
        (each active id's round) the ``(rows, P, P)`` stack of each
        round's.

        Each active vertex with m mirrors sends m-1 partial aggregates to
        its master and receives m-1 state updates back. Mirrors are
        spread across nodes, so each vertex's mirror traffic is modelled
        as uniformly sourced from non-master nodes: pair ``(i, j)``
        carries master ``j``'s share (gather partials) plus master
        ``i``'s (scatter updates).
        """
        if self.vertex_cut is None:
            raise SimulationError("replication sync requires a vertex cut")
        nodes = self.cluster.num_nodes
        active = np.asarray(active, dtype=np.int64)
        masters = self.vertex_cut.masters[active]
        extra = np.maximum(self.vertex_cut.mirror_counts[active] - 1,
                           0).astype(np.float64)
        per_master = np.bincount(
            masters if row is None else row * nodes + masters,
            weights=extra * value_bytes, minlength=rows * nodes).reshape(
                rows, nodes)
        traffic = np.zeros((rows, nodes, nodes))
        if nodes > 1:
            share = per_master / (nodes - 1)
            traffic = share[:, :, None] + share[:, None, :]
            traffic[:, np.arange(nodes), np.arange(nodes)] = 0.0
        traffic *= self.profile.message_overhead_factor
        return traffic[0] if row is None else traffic

    # -- superstep -----------------------------------------------------------

    def buffers(self, volume, splits: int = 1):
        """Message buffer bytes per node for ``volume`` bytes sent plus
        received: Giraph keeps the whole (per-split) outgoing volume in
        memory; streaming frameworks keep a bounded window (64 MB is a
        physical buffer size, so express it at proxy scale)."""
        if self.profile.buffers_all_messages:
            return volume / splits
        return np.minimum(volume, 64 * 2**20 / self.cluster.scale_factor)

    def work(self, vertices, edges, volume, value_bytes: float,
             splits: int = 1, ops_per_edge: float = 8.0,
             ops_per_vertex: float = 16.0,
             gather_bytes_override: float = None) -> ComputeWork:
        """The ``ComputeWork`` of one superstep (of one of ``splits``),
        from per-node columns — or ``(S, P)`` stacks of them — of the
        vertices computed, edges processed and bytes sent plus
        received."""
        profile = self.profile
        # Per-edge gather granularity: small values pull part of a cold
        # line (denser state arrays -> more reuse), large vector values
        # stream after the first line.
        if gather_bytes_override is not None:
            gather_bytes = gather_bytes_override
        elif value_bytes <= CACHE_LINE_BYTES:
            gather_bytes = min(CACHE_LINE_BYTES, 8.0 * value_bytes)
        else:
            gather_bytes = value_bytes
        ops_per_edge_total = (ops_per_edge + profile.per_message_ops
                              + profile.per_byte_ops * value_bytes)
        vertices = vertices / splits
        edges = edges / splits
        # Vertex programs materialize a message per edge (write into the
        # outbox, read at the target) on top of the adjacency scan — the
        # per-edge cost native code avoids.
        touched = (8 * edges                   # adjacency scan
                   + 2 * value_bytes * edges   # msg write + read
                   + value_bytes * vertices    # state update
                   + 2 * volume / splits)
        return ComputeWork(
            streamed_bytes=touched * profile.message_overhead_factor,
            # Per-edge gathers of neighbor state land on cold cache lines
            # about half the time (graph order, not memory order).
            random_bytes=0.5 * gather_bytes * edges,
            ops=ops_per_edge_total * edges + ops_per_vertex * vertices,
            cpu_efficiency=profile.cpu_efficiency,
            cores_fraction=profile.cores_fraction,
            prefetch=profile.prefetch,
            memory_parallelism=profile.cores_fraction,
        )

    def superstep(self, compute_vertices: np.ndarray, edges_processed,
                  stats: ExchangeStats, value_bytes: float,
                  splits: int = 1, ops_per_edge: float = 8.0,
                  ops_per_vertex: float = 16.0,
                  gather_bytes_override: float = None,
                  label: str = "message-buffers") -> None:
        """Charge one logical superstep (optionally split into phases).

        ``splits > 1`` is the Giraph fix of Section 6.1.3: the superstep
        is broken into ``splits`` smaller ones processing 1/splits of the
        vertices each, shrinking peak buffer memory by the same factor at
        the cost of per-superstep overhead.
        """
        if splits < 1:
            raise SimulationError("splits must be >= 1")
        profile = self.profile
        cluster = self.cluster
        nodes = cluster.num_nodes

        compute_vertices = np.asarray(compute_vertices, dtype=np.int64)
        per_node_vertices = np.bincount(
            self.vertex_owner[compute_vertices], minlength=nodes
        ).astype(np.float64)
        edges_processed = np.asarray(edges_processed, dtype=np.float64)
        if edges_processed.shape != (nodes,):
            edges_processed = np.broadcast_to(edges_processed, (nodes,))
        volume = stats.traffic.sum(axis=1) + stats.traffic.sum(axis=0)
        cluster.allocate_all(label, self.buffers(volume, splits))
        split_traffic = stats.traffic / splits
        with cluster.tracer.span(self.phase, splits=splits,
                                 messages=stats.messages,
                                 payload_bytes=stats.payload_bytes):
            work = self.work(per_node_vertices, edges_processed, volume,
                             value_bytes, splits, ops_per_edge,
                             ops_per_vertex, gather_bytes_override)
            for _ in range(splits):
                cluster.superstep(
                    work, split_traffic,
                    overlap=profile.overlaps_communication,
                    layer=profile.comm_layer,
                    overhead_s=profile.superstep_overhead_s,
                )
