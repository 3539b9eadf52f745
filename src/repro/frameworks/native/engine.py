"""Native engine: what the hand-optimized code owns around a round program.

The six iterative graph workloads themselves live in
:mod:`repro.frameworks.rounds`; this is the paper's native *machinery*
(Sections 3, 6.1, after [28]) applied to all of them:

* an **edge-balanced 1-D partition** ("so that each node has roughly
  the same number of edges") — of the out-edges for frontier programs,
  of the in-edges for the dense pull programs;
* **owner routing** of remotely-discovered vertices as one id stream
  per (node, owner) pair, with the adaptive bit-vector / delta-varint
  **compression** of Section 6.1.1 (:func:`~.compression.encoded_size`);
* a **bit-vector** visited set for BFS, software **prefetching** of the
  irregular probes, and **overlap** of computation with the exchange —
  the :class:`~.options.NativeOptions` toggles Figure 7 sweeps;
* one row of cost constants per algorithm, turned into a
  ``ComputeWork`` of per-node columns by :meth:`NativeEngine._work` /
  ``_dense_work``.

Dense programs (PageRank, label propagation) store *incoming* edges so
the per-edge gather streams one contiguous edge array; each node
packages the values of its owned vertices that remote nodes need, and
that exchange plan — hence the traffic matrix — is iteration-invariant.
k-core runs each level's delete cascade to fixpoint locally and charges
*one* superstep per level: the native code batches the waves the way
its BFS batches a level's discoveries, so the network only sees each
level's aggregate degree-decrement traffic. Triangle counting's one
round is the neighbourhood exchange of :class:`NativeTCEngine`.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from ...cluster import ComputeWork, node_volumes
from ...cluster.cost import CACHE_LINE_BYTES
from ...graph import partition_edges_1d
from ...kernels.segments import distinct, list_traffic
from ..rounds import GRAPH_PROGRAMS, PROGRAMS, Engine, run_program
from .compression import encoded_size
from .options import NativeOptions

_ID_BYTES = 8.0               # raw vertex id on the wire
_VALUE_BYTES = 8.0            # a double / long payload next to it
#: Flat ratio the degree-decrement id stream compresses to (k-core).
_PEEL_COMPRESSION = 0.35


@dataclass(frozen=True)
class FrontierCost:
    """Cost row of a frontier program (per visited edge unless noted)."""

    state: tuple                    #: ((label, bytes per owned vertex), ...)
    edge_stream: float              #: adjacency scan + dedup/scatter passes
    edge_random: float              #: irregular bytes after the sort pass
    changed_random: float           #: ... per improved vertex (the write)
    edge_ops: float
    extras: tuple
    graph_edge_bytes: float = 8.0   #: 16 with stored weights
    wire_value_bytes: float = 0.0   #: payload sent with each routed id
    #: BFS: a visited structure of 1 bit (or 1 byte) per vertex replaces
    #: ``edge_random`` with line-granular probes of it.
    visited_set: bool = False
    #: k_core: per-level rescan of the live degrees for seeds.
    rescan_vertex_stream: float = 0.0
    rescan_vertex_ops: float = 0.0


@dataclass(frozen=True)
class DenseCost:
    """Cost row of a dense pull program."""

    state: tuple
    tally_random: float             #: per-edge hash probe beyond the gather
    edge_ops: float
    vertex_ops: float
    extras: tuple
    send_buffers: bool = False


COSTS = {
    "bfs": FrontierCost(
        state=(("distances", 4.0),), visited_set=True,
        edge_stream=8 + 12, edge_random=1.0, changed_random=4.0,
        edge_ops=4.0,
        extras=("frontier_sizes", "edges_examined", "compression_ratio",
                "reached")),
    "wcc": FrontierCost(
        state=(("labels", 8.0),), wire_value_bytes=_VALUE_BYTES,
        # Like BFS: label scatters are sorted into near-streaming runs,
        # so only ~1 B/edge stays irregular.
        edge_stream=8 + 12, edge_random=1.0, changed_random=8.0,
        edge_ops=4.0,
        extras=("components", "compression_ratio")),
    "sssp": FrontierCost(
        state=(("distances", 8.0),), wire_value_bytes=_VALUE_BYTES,
        graph_edge_bytes=16.0,
        edge_stream=8 + 12 + 8, edge_random=1.0, changed_random=8.0,
        edge_ops=5.0,
        extras=("relaxations", "reached", "compression_ratio")),
    "k_core": FrontierCost(
        state=(("degrees", 8.0), ("core", 8.0)),
        edge_stream=8 + 12, edge_random=8.0, changed_random=0.0,
        edge_ops=2.0, rescan_vertex_stream=8.0, rescan_vertex_ops=1.0,
        extras=("max_core", "cascade_waves", "compression_ratio")),
    "pagerank": DenseCost(
        state=(("ranks", 8.0 * 3),), send_buffers=True,
        tally_random=0.0, edge_ops=2.0, vertex_ops=3.0,
        extras=("traffic_bytes_per_iteration", "compression_ratio",
                "edges_per_node")),
    "label_propagation": DenseCost(
        state=(("labels", 8.0 * 2), ("tallies", 16.0)),
        # The per-edge tally insert is a hash probe on top of the gather.
        tally_random=16.0, edge_ops=6.0, vertex_ops=4.0,
        extras=("communities", "traffic_bytes_per_iteration")),
}


def _exchange_plan(in_csr, part) -> dict:
    """Which remote values each node needs, as {(owner, consumer): ids}."""
    plan = {}
    for consumer in range(part.num_parts):
        lo, hi = part.part_range(consumer)
        sources = in_csr.targets[in_csr.offsets[lo]:in_csr.offsets[hi]]
        needed = distinct(sources, in_csr.num_vertices)
        owners = part.owner_of_many(needed)
        for owner in distinct(owners, part.num_parts):
            owner = int(owner)
            if owner == consumer:
                continue
            plan[(owner, consumer)] = needed[owners == owner]
    return plan


class NativeEngine(Engine):
    """Partition, route, compress and charge like the native code."""

    def __init__(self, program, graph, cluster, options: NativeOptions = None):
        super().__init__(program, graph, cluster, COSTS[program.algorithm])
        self.options = options or NativeOptions()
        self.per_level = program.algorithm == "k_core"
        self._raw_bytes = 0.0
        self._wire_bytes = 0.0
        dense = program.shape == "dense"
        # Dense programs pull over in-edges; frontier programs push.
        self._csr = graph.reverse() if dense else graph
        self.part = partition_edges_1d(self._csr, cluster.num_nodes)
        self._edges_per_node = np.diff(
            self._csr.offsets[self.part.bounds]).astype(np.float64)
        self._verts_per_node = self.part.part_sizes().astype(np.float64)
        if dense:
            self._plan_exchange()
            return
        self._out_degrees = graph.out_degrees()
        for node in range(cluster.num_nodes):
            self._allocate_state(node, self.cost.graph_edge_bytes)
            if self.cost.visited_set:
                cluster.allocate(node, "visited",
                                 self._visited_bytes_per_vertex()
                                 * graph.num_vertices)

    def _allocate_state(self, node: int, graph_edge_bytes: float) -> None:
        """This node's CSR share, then the program's per-vertex arrays."""
        verts = self._verts_per_node[node]
        self.cluster.allocate(node, "graph",
                              graph_edge_bytes * self._edges_per_node[node]
                              + 8 * (verts + 1))
        for label, per_vertex in self.cost.state:
            self.cluster.allocate(node, label, per_vertex * verts)

    def _visited_bytes_per_vertex(self) -> float:
        return 1.0 / 8.0 if self.options.bitvector else 1.0

    # -- owner routing ------------------------------------------------------

    def _id_stream_bytes(self, ids, owner: int, value_bytes: float) -> float:
        """Wire size of ``ids`` (+ a value each) sent to their ``owner``.

        Compression targets the id stream only (Section 6.1.1): ids are
        rebased to the owner's range and take the smaller of the
        delta-varint and bit-vector encodings.
        """
        raw = (_ID_BYTES + value_bytes) * ids.size
        self._raw_bytes += raw
        if not self.options.compression:
            return raw
        lo, hi = self.part.part_range(owner)
        return float(encoded_size(ids - lo, hi - lo)) + value_bytes * ids.size

    def _route(self, node: int, improved, traffic) -> None:
        """Send ``node``'s remotely-owned discoveries to their owners."""
        owners = self.part.owner_of_many(improved)
        for owner in distinct(owners, self.part.num_parts):
            owner = int(owner)
            if owner == node:
                continue
            nbytes = self._id_stream_bytes(improved[owners == owner], owner,
                                           self.cost.wire_value_bytes)
            traffic[node, owner] += nbytes
            self._wire_bytes += nbytes

    # -- frontier rounds ----------------------------------------------------

    def _work(self, edges, active, changed) -> ComputeWork:
        """One round's ``ComputeWork`` from the cost row (per-node
        columns)."""
        cost = self.cost
        edge_random = 8.0 * self._visited_bytes_per_vertex() \
            if cost.visited_set else cost.edge_random
        return ComputeWork(
            streamed_bytes=cost.edge_stream * edges + 8 * active,
            random_bytes=edge_random * edges + cost.changed_random * changed,
            ops=cost.edge_ops * edges,
            prefetch=self.options.prefetch,
        )

    def _receive(self, traffic, window: bool) -> None:
        """Receive-side buffers sized by the round's incoming traffic."""
        incoming = np.ascontiguousarray(traffic.T).sum(1)
        if window and self.options.overlap:
            # The 16 MB blocking window is a physical buffer size; divide
            # by the extrapolation factor since allocations are scaled
            # back up by the memory tracker.
            incoming = np.minimum(incoming,
                                  16 * 2**20 / self.cluster.scale_factor)
        self.cluster.allocate_all("recv-buffers", incoming)

    def round(self, active):
        if self.per_level:
            return self._peel_wave(active)
        nodes = self.cluster.num_nodes
        owners = self.part.owner_of_many(active)
        traffic = np.zeros((nodes, nodes))
        edges, sizes, changed = np.zeros(nodes), np.zeros(nodes), \
            np.zeros(nodes)
        proposals = []
        for node in range(nodes):
            mine = active[owners == node]
            # Local combine: dedup + drop already-known before sending.
            proposal, improved, work = self.program.propose(mine)
            proposals.append((proposal, improved))
            self._route(node, improved, traffic)
            edges[node], sizes[node], changed[node] = \
                work.edges, mine.size, improved.size
        self._receive(traffic, window=True)
        self.cluster.superstep(self._work(edges, sizes, changed), traffic,
                               overlap=self.options.overlap)
        return self.program.commit(proposals)

    # -- k_core: waves accumulate into one superstep per level ---------------

    def _peel_wave(self, removed):
        nodes = self.cluster.num_nodes
        next_wave, work = self.program.round(removed)
        owners = self.part.owner_of_many(removed)
        self._level_edges += np.bincount(
            owners, weights=self._out_degrees[removed], minlength=nodes)
        self._level_removed += np.bincount(owners, minlength=nodes)
        # Cross-partition degree decrements: one id per remote edge.
        neighbors, lengths = work.gather
        if neighbors.size:
            src_owner = np.repeat(owners, lengths)
            dst_owner = self.part.owner_of_many(neighbors)
            remote = src_owner != dst_owner
            pairs = np.bincount(src_owner[remote] * nodes
                                + dst_owner[remote], minlength=nodes ** 2)
            raw = _ID_BYTES * pairs.reshape(nodes, -1)
            self._raw_bytes += raw.sum()
            wire = raw * (_PEEL_COMPRESSION if self.options.compression
                          else 1.0)
            self._level_traffic += wire
            self._wire_bytes += wire.sum()
        return next_wave

    @contextlib.contextmanager
    def level(self):
        if not self.per_level:
            yield
            return
        cluster, cost, nodes = self.cluster, self.cost, self.cluster.num_nodes
        with cluster.trace_span("level", **self.program.level_attrs()):
            self._level_edges = np.zeros(nodes)
            self._level_removed = np.zeros(nodes)
            self._level_traffic = np.zeros((nodes, nodes))
            yield
            work = self._work(self._level_edges, self._level_removed,
                              np.zeros(nodes))
            work.streamed_bytes += cost.rescan_vertex_stream \
                * self._verts_per_node
            work.ops += cost.rescan_vertex_ops * self._verts_per_node
            self._receive(self._level_traffic, window=False)
            cluster.superstep(work, self._level_traffic,
                              overlap=self.options.overlap)
            cluster.mark_iteration()

    # -- dense sweeps ---------------------------------------------------------

    def _plan_exchange(self) -> None:
        """Iteration-invariant traffic, buffers and per-node work."""
        cluster, cost, options = self.cluster, self.cost, self.options
        nodes = cluster.num_nodes
        plan = _exchange_plan(self._csr, self.part)
        self._traffic = np.zeros((nodes, nodes))
        recv_entries = np.zeros(nodes)
        for (owner, consumer), ids in plan.items():
            self._traffic[owner, consumer] = self._id_stream_bytes(
                ids, owner, _VALUE_BYTES)
            recv_entries[consumer] += ids.size
        for node in range(nodes):
            self._allocate_state(node, 8.0)
            cluster.allocate(node, "recv-buffers", 8 * recv_entries[node])
            if cost.send_buffers:
                send_bytes = self._traffic[node, :].sum()
                if options.overlap:
                    # 64 MB blocking window, expressed at proxy scale
                    # (the tracker re-applies the extrapolation factor).
                    send_bytes = min(send_bytes,
                                     64 * 2**20 / cluster.scale_factor)
                cluster.allocate(node, "send-buffers", send_bytes)

        # Each in-edge gathers a remote value from a (mostly) cold cache
        # line: 64 bytes of DRAM traffic per edge. Software prefetching
        # pipelines those line fills into streams (the [28] technique);
        # without it they are latency-bound random accesses. This
        # constant reproduces the paper's ~122 bytes/edge (640M edges/s
        # at 78 GB/s).
        gather_bytes = CACHE_LINE_BYTES * self._edges_per_node
        edges, verts = self._edges_per_node, self._verts_per_node
        if options.prefetch:
            streamed_gather, random_gather = gather_bytes, 0.05 * gather_bytes
        else:
            streamed_gather, random_gather = 0.0, gather_bytes
        self._dense_work = ComputeWork(
            streamed_bytes=(8 * edges                # edge array scan
                            + streamed_gather        # prefetched gather
                            + 16 * verts             # state read+write
                            + 2 * node_volumes(self._traffic)),  # pack+unpack
            random_bytes=random_gather + cost.tally_random * edges,
            ops=cost.edge_ops * edges + cost.vertex_ops * verts,
            prefetch=options.prefetch,
        )

    def iteration_span(self, index: int):
        if self.program.algorithm == "pagerank":
            return self.cluster.trace_span(
                "iteration", index=index,
                compressed=self.options.compression)
        return super().iteration_span(index)

    def sweep(self) -> None:
        self.cluster.superstep(self._dense_work, self._traffic,
                               overlap=self.options.overlap)

    def diagnostics(self) -> dict:
        wire = float(self._traffic.sum()) if self.program.shape == "dense" \
            else self._wire_bytes
        return {
            "compression_ratio": (self._raw_bytes / wire if wire > 0
                                  else 1.0),
            "traffic_bytes_per_iteration": wire,
            "edges_per_node": self._edges_per_node,
        }


class NativeTCEngine(Engine):
    """Triangle counting's neighbourhood exchange (Sections 3.2, 6.1).

    "We calculate the neighborhood set of every vertex and send the set
    to all its neighbors." Each received list N(u) is probed against
    N(v) on the edge target's owner, through the **bit-vector** ("quick
    constant time lookups", ~2.2x) or a hash set. The O(sum of squared
    degrees) message volume is why **overlap/blocking** of the exchange
    bounds the receive buffers (Section 6.1.1).
    """

    def __init__(self, program, graph, cluster, options: NativeOptions = None):
        super().__init__(program, graph, cluster)
        self.options = options = options or NativeOptions()
        nodes, degrees = cluster.num_nodes, program.degrees
        part = partition_edges_1d(graph, nodes)
        edges_per_node = np.diff(graph.offsets[part.bounds]).astype(
            np.float64)
        verts_per_node = part.part_sizes().astype(np.float64)
        src, dst = graph.sources(), graph.targets
        dst_owner = part.owner_of_many(dst)
        # N(u) goes to every node owning a neighbor of u. The paper
        # compresses BFS and PageRank messages (Section 6.1.2) but its
        # triangle counting ships raw neighbor-id lists — it is the *data
        # structure* (bit-vector) that optimizes TC.
        self._traffic = list_traffic(src, dst_owner, part.owner_of_many,
                                     8.0 * degrees, nodes)

        volume_in = self._traffic.sum(axis=0)
        for node in range(nodes):
            cluster.allocate(node, "graph", 8 * edges_per_node[node]
                             + 8 * (verts_per_node[node] + 1))
            cluster.allocate(node, "membership",
                             graph.num_vertices / 8.0 if options.bitvector
                             else 16.0 * degrees.max())
            incoming = volume_in[node]
            if options.overlap:
                # A 256 MB blocking window at paper scale (proxy-scale cap).
                incoming = min(incoming, 256 * 2**20 / cluster.scale_factor)
            cluster.allocate(node, "recv-buffers", incoming)

        # Probes land on the destination owner: |N(u)| per edge (u, v),
        # plus |N(v)| to build v's membership structure.
        probes = self._probes = np.bincount(dst_owner, weights=degrees[src],
                                            minlength=nodes)
        builds = np.bincount(dst_owner, weights=degrees[dst], minlength=nodes)
        if options.bitvector:
            # Bit probes into a DRAM-resident bit-vector touch cache lines;
            # sorted adjacency gives partial line reuse (~16 B of traffic
            # per probe), prefetchable.
            random_bytes = 16.0 * probes + builds / 8.0
            ops = 2 * probes + builds
        else:
            # Baseline hash-set membership probes: a full cold line per
            # lookup half the time, plus bucket chasing.
            random_bytes, ops = 32.0 * probes, 6 * probes + builds
        self._work = ComputeWork(
            streamed_bytes=(8 * probes + 8 * edges_per_node
                            + 2 * node_volumes(self._traffic)),
            random_bytes=random_bytes, ops=ops, prefetch=options.prefetch)

    def iteration_span(self, index: int):
        return self.cluster.trace_span(
            "neighborhood-exchange", bitvector=self.options.bitvector,
            probe_edges=float(self._probes.sum()))

    def sweep(self) -> None:
        tracer = self.cluster.tracer
        if tracer.enabled:
            # Successful membership probes = one per counted triangle.
            tracer.count("cache_hits", float(self.program.values))
        self.cluster.superstep(self._work, self._traffic,
                               overlap=self.options.overlap)

    def diagnostics(self) -> dict:
        return {"traffic_bytes": float(self._traffic.sum()),
                "compression_ratio": 1.0,   # raw lists (see __init__)
                "intersection_nnz": self.program.overlap_nnz}


def _runner(algorithm: str, engine_type=NativeEngine):
    def run(graph, cluster, *, options: NativeOptions = None, **params):
        return run_program(algorithm, "native", engine_type, graph, cluster,
                           params, options=options)
    run.params = ("options", *PROGRAMS[algorithm].PARAMS)
    return run


#: The native entry point of every graph round program (CF's: ``cf.py``).
RUNNERS = {algorithm: _runner(algorithm) for algorithm in GRAPH_PROGRAMS}
RUNNERS["triangle_count"] = _runner("triangle_counting", NativeTCEngine)
