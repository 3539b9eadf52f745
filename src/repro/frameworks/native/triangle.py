"""Hand-optimized native triangle counting (paper Sections 3.2 and 6.1).

"We calculate the neighborhood set of every vertex and send the set to
all its neighbors. Then, every vertex computes the intersection of the
received sets with their set of neighbors."

The graph is id-oriented (every undirected edge stored once, small id to
large id), so each triangle is counted exactly once. The key native
optimization is the **bit-vector** neighborhood membership structure
("quick constant time lookups to identify common neighbors", ~2.2x);
without it the kernel falls back to sorted-merge intersections. Because
the total message volume is O(sum of squared degrees) — far larger than
the graph — **overlap/blocking** of the neighborhood exchange is what
keeps the memory footprint bounded (Section 6.1.1).
"""

from __future__ import annotations

import numpy as np

from ...cluster import Cluster, ComputeWork
from ...graph import CSRGraph, partition_edges_1d
from ...kernels import registry as kernel_registry
from ...kernels.segments import distinct, pair_traffic
from ..results import AlgorithmResult
from .options import NativeOptions


def triangle_count(graph: CSRGraph, cluster: Cluster,
                   options: NativeOptions = None) -> AlgorithmResult:
    """Count triangles of an id-oriented CSR graph on the cluster."""
    options = options or NativeOptions()
    num_vertices = graph.num_vertices
    part = partition_edges_1d(graph, cluster.num_nodes)
    bounds = part.bounds
    edges_per_node = np.diff(graph.offsets[bounds]).astype(np.float64)
    verts_per_node = part.part_sizes().astype(np.float64)

    degrees = graph.out_degrees().astype(np.float64)
    src = graph.sources()
    dst = graph.targets
    src_owner = part.owner_of_many(src)
    dst_owner = part.owner_of_many(dst)

    # -- communication: N(u) goes to every node owning a neighbor of u ----
    # Unique (u, destination-node) pairs among cross-node edges; each
    # costs |N(u)| ids. Ids compress with the adaptive encoder.
    traffic = np.zeros((cluster.num_nodes, cluster.num_nodes))
    raw_traffic = 0.0
    cross = src_owner != dst_owner
    if cross.any():
        pair_keys = src[cross] * np.int64(cluster.num_nodes) + dst_owner[cross]
        unique_pairs = distinct(pair_keys,
                                num_vertices * cluster.num_nodes)
        send_vertex = unique_pairs // cluster.num_nodes
        send_to = (unique_pairs % cluster.num_nodes).astype(np.int64)
        list_sizes = degrees[send_vertex]
        raw_bytes = 8.0 * list_sizes
        # The paper applies message compression to BFS and PageRank
        # (Section 6.1.2) but its native triangle counting ships raw
        # neighbor-id lists — it is the *data structure* (bit-vector)
        # that optimizes TC. We follow suit: no wire compression here.
        wire_bytes = raw_bytes
        from_node = part.owner_of_many(send_vertex)
        traffic = pair_traffic(from_node, send_to, wire_bytes,
                               cluster.num_nodes)
        raw_traffic = float(raw_bytes.sum())

    # -- memory ------------------------------------------------------------
    message_volume_in = traffic.sum(axis=0)
    for node in range(cluster.num_nodes):
        cluster.allocate(node, "graph",
                         8 * edges_per_node[node] + 8 * (verts_per_node[node] + 1))
        member_bytes = (num_vertices / 8.0 if options.bitvector
                        else 16.0 * degrees.max())
        cluster.allocate(node, "membership", member_bytes)
        incoming = message_volume_in[node]
        if options.overlap:
            # Blocking large messages bounds buffer space (Section 6.1.1:
            # "leading to lower memory footprint for buffer storage").
            # 256 MB blocking window at paper scale (proxy-scale cap).
            incoming = min(incoming, 256 * 2**20 / cluster.scale_factor)
        cluster.allocate(node, "recv-buffers", incoming)

    # -- values (real execution) ---------------------------------------------
    masked = kernel_registry.kernel("triangle_counting",
                                    "masked-spgemm")().prepare(graph)
    (count, overlap_matrix), _ = masked.step()

    # -- compute counters -----------------------------------------------------
    # Each received list N(u) of size d is probed against N(v): with the
    # bit-vector, d constant-time probes; without, a sorted merge costs
    # d + deg(v) element reads. Work lands on the *destination* owner.
    probe_work = np.zeros(cluster.num_nodes)
    merge_work = np.zeros(cluster.num_nodes)
    np.add.at(probe_work, dst_owner, degrees[src])
    np.add.at(merge_work, dst_owner, degrees[src] + degrees[dst])
    build_work = np.zeros(cluster.num_nodes)
    np.add.at(build_work, dst_owner, degrees[dst])

    works = []
    for node in range(cluster.num_nodes):
        if options.bitvector:
            # Bit probes into a DRAM-resident bit-vector touch cache
            # lines; sorted adjacency gives partial line reuse (~16 B of
            # traffic per probe), prefetchable.
            random_bytes = 16.0 * probe_work[node] + build_work[node] / 8.0
            streamed = 8 * probe_work[node]
            ops = 2 * probe_work[node] + build_work[node]
        else:
            # Baseline structure: hash-set membership probes — a full
            # cold line per lookup half the time, plus bucket chasing.
            random_bytes = 32.0 * probe_work[node]
            streamed = 8 * probe_work[node]
            ops = 6 * probe_work[node] + build_work[node]
        message_bytes = traffic[node, :].sum() + traffic[:, node].sum()
        works.append(ComputeWork(
            streamed_bytes=streamed + 8 * edges_per_node[node] + 2 * message_bytes,
            random_bytes=random_bytes,
            ops=ops,
            prefetch=options.prefetch,
        ))

    tracer = cluster.tracer
    if tracer.enabled:
        # Successful membership probes = one per counted triangle.
        tracer.count("cache_hits", float(count))
    with cluster.trace_span("neighborhood-exchange",
                            bitvector=options.bitvector,
                            probe_edges=float(probe_work.sum())):
        cluster.superstep(works, traffic, overlap=options.overlap)
        cluster.mark_iteration()

    metrics = cluster.metrics()
    wire_traffic = float(traffic.sum())
    return AlgorithmResult(
        algorithm="triangle_counting", framework="native", values=count,
        iterations=1, metrics=metrics,
        extras={
            "traffic_bytes": wire_traffic,
            "compression_ratio": (raw_traffic / wire_traffic
                                  if wire_traffic > 0 else 1.0),
            "intersection_nnz": int(overlap_matrix.nnz),
        },
    )
