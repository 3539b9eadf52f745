"""CombBLAS front-end: the four workloads as semiring linear algebra.

Algorithm mappings, per Section 3.2 of the paper:

* PageRank — ``p' = r 1 + (1-r) A^T p~`` (equation 9): one dense-vector
  SpMV per iteration;
* BFS — sparse-vector SpMV per level (equation 10), no bit-vector
  compression (the roadmap item of Section 6.2);
* Collaborative filtering — gradient descent as "K matrix-vector
  multiplications where K is the size of the hidden dimension", both
  directions, because "CombBLAS does not allow matrices with dimension
  < number of processors" (Section 3.2) — the expressibility penalty;
* Triangle counting — ``nnz(A .* A^2)``: the full ``A @ A`` product is
  materialized first, which both inflates flops and runs out of memory
  on large inputs (Sections 5.2, 5.3, 6.2).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from ...algorithms.bfs import UNREACHED
from ...cluster import Cluster, ComputeWork
from ...graph import CSRGraph, RatingsMatrix
from ...kernels import registry as kernel_registry
from ..base import COMBBLAS
from ..results import AlgorithmResult
from ..rounds import Engine, check_params, run_program
from ..vertex.programs import bipartite_graph
from .semiring import MIN_PLUS, OR_AND, PLUS_TIMES
from .spmat import DistSpMat, ProcessGrid

_PROFILE = COMBBLAS


def _build(graph: CSRGraph, cluster: Cluster, bytes_per_nnz: float = 16.0):
    """Distribute the matrix and register its memory."""
    grid = ProcessGrid(cluster.num_nodes)
    dist = DistSpMat(graph, grid, tracer=cluster.tracer)
    nnz_per_node = dist.nnz_per_node()
    for node in range(cluster.num_nodes):
        cluster.allocate(node, "matrix",
                         bytes_per_nnz * float(nnz_per_node[node]))
    return dist, nnz_per_node


def _works(cluster: Cluster, nnz_per_node, flops_total: float,
           traffic: np.ndarray, vector_bytes_per_node: float = 0.0,
           touched_nnz: float = None, gather_random_bytes: float = 32.0):
    """Per-node ComputeWork for one matrix kernel invocation.

    ``touched_nnz`` restricts the streamed matrix bytes to the nonzeros a
    sparse operation actually visits (a masked SpMV over a BFS frontier
    does not scan the whole matrix); it defaults to all of them.
    ``gather_random_bytes`` is the irregular traffic per visited nonzero:
    a dense-vector gather touches a cold line about half the time (32 B),
    while sparse-vector kernels (SpMSpV) stream merge-style (~4 B).
    """
    total_nnz = max(float(np.sum(nnz_per_node)), 1.0)
    if touched_nnz is None:
        touched_nnz = total_nnz
    # Sent + received bytes per node. The transpose is copied so both
    # sums reduce along a contiguous axis: ``sum(0)`` adds row by row,
    # which rounds non-integer traffic differently from a per-node slice.
    message_bytes = (traffic.sum(1)
                     + np.ascontiguousarray(traffic.T).sum(1))
    works = []
    for node in range(cluster.num_nodes):
        share = float(nnz_per_node[node]) / total_nnz
        node_nnz = touched_nnz * share
        works.append(ComputeWork(
            # 16 B per visited nonzero (index + value) plus SPA re-reads.
            streamed_bytes=(24.0 * node_nnz
                            + vector_bytes_per_node
                            + 2.0 * message_bytes[node]),
            random_bytes=gather_random_bytes * node_nnz,
            ops=flops_total * share,
            cpu_efficiency=_PROFILE.cpu_efficiency,
            cores_fraction=_PROFILE.cores_fraction,
            prefetch=True,   # tuned C++ SpMV kernels prefetch their SPA
        ))
    return works


def _step(cluster, nnz_per_node, flops, traffic, vector_bytes=0.0,
          touched_nnz=None, gather_random_bytes=32.0):
    cluster.superstep(
        _works(cluster, nnz_per_node, flops, traffic, vector_bytes,
               touched_nnz, gather_random_bytes),
        traffic, overlap=_PROFILE.overlaps_communication,
        layer=_PROFILE.comm_layer,
        overhead_s=_PROFILE.superstep_overhead_s,
    )


def pagerank(graph: CSRGraph, cluster: Cluster, iterations: int = 10,
             damping: float = 0.3) -> AlgorithmResult:
    """Equation 9, one dense SpMV per iteration."""
    check_params(iterations=iterations, damping=damping)
    dist, nnz_per_node = _build(graph, cluster)
    num_vertices = graph.num_vertices
    cluster.allocate_all("vectors", 8.0 * 3 * num_vertices / cluster.num_nodes)

    out_degrees = graph.out_degrees()
    safe = np.maximum(out_degrees, 1)
    ranks = np.full(num_vertices, 1.0)
    for iteration in range(iterations):
        with cluster.trace_span("spmv", kind="dense", index=iteration):
            scaled = np.where(out_degrees > 0, ranks / safe, 0.0)
            y, flops, traffic = dist.spmv(scaled, PLUS_TIMES)
            ranks = damping + (1.0 - damping) * y
            _step(cluster, nnz_per_node, flops, traffic,
                  vector_bytes=8.0 * 3 * num_vertices / cluster.num_nodes)
            cluster.mark_iteration()

    return AlgorithmResult(
        algorithm="pagerank", framework="combblas", values=ranks,
        iterations=iterations, metrics=cluster.metrics(),
        extras={"grid": dist.grid.grid},
    )


def bfs(graph: CSRGraph, cluster: Cluster, source: int = 0) -> AlgorithmResult:
    """Equation 10: frontier = A^T frontier over the boolean semiring."""
    check_params(graph.num_vertices, source=source)
    dist, nnz_per_node = _build(graph, cluster)
    num_vertices = graph.num_vertices
    cluster.allocate_all("vectors", 8.0 * 2 * num_vertices / cluster.num_nodes)

    distances = np.full(num_vertices, UNREACHED, dtype=np.int32)
    distances[source] = 0
    frontier = np.zeros(num_vertices)
    frontier[source] = 1.0
    level = 0
    while frontier.any():
        level += 1
        size = int(frontier.sum())
        cluster.tracer.count("frontier_size", size)
        with cluster.trace_span("spmv", kind="sparse", level=level,
                                frontier=size):
            y, flops, traffic = dist.spmv(frontier, OR_AND, sparse_x=True)
            fresh = (y > 0) & (distances == UNREACHED)
            distances[fresh] = level
            _step(cluster, nnz_per_node, flops, traffic,
                  touched_nnz=flops / 2.0, gather_random_bytes=4.0)
            cluster.mark_iteration()
        frontier = fresh.astype(np.float64)

    return AlgorithmResult(
        algorithm="bfs", framework="combblas", values=distances,
        iterations=level, metrics=cluster.metrics(),
        extras={"reached": int((distances != UNREACHED).sum())},
    )


def collaborative_filtering(ratings: RatingsMatrix, cluster: Cluster,
                            hidden_dim: int = 64, iterations: int = 10,
                            gamma0: float = 0.002, step_decay: float = 0.95,
                            lambda_reg: float = 0.05,
                            seed: int = 0) -> AlgorithmResult:
    """GD via 2K per-dimension SpMVs (the Section 3.2 mapping)."""
    check_params(iterations=iterations, hidden_dim=hidden_dim)
    from ..base import cf_density_correction

    graph = bipartite_graph(ratings)
    dist, nnz_per_node = _build(graph, cluster)
    n = graph.num_vertices
    density = cf_density_correction(ratings)
    # n already covers both user and item vertices of the bipartite
    # graph; each node stores its band of the K factor columns.
    cluster.allocate_all(
        "factors", 8.0 * hidden_dim * n / cluster.num_nodes / density
    )

    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(hidden_dim)
    p_factors = rng.random((ratings.num_users, hidden_dim)) * scale
    q_factors = rng.random((ratings.num_items, hidden_dim)) * scale

    kern = kernel_registry.kernel("collaborative_filtering",
                                  "blocked-gd")().prepare(ratings)

    # Traffic/flops template of one dense SpMV on this distribution; the
    # exchanged vectors are vertex-proportional (density-corrected).
    probe = np.ones(n)
    _, flops_one, traffic_one = dist.spmv(probe, PLUS_TIMES)
    traffic_one = traffic_one / density

    rmse_curve = []
    gamma = gamma0
    for iteration in range(iterations):
        with cluster.trace_span("iteration", index=iteration,
                                spmvs=hidden_dim):
            kern.step(p_factors, q_factors, gamma, lambda_reg, lambda_reg)
            gamma *= step_decay
            rmse_curve.append(kern.rmse(p_factors, q_factors))
            # K per-dimension SpMVs, each re-scanning R with one factor
            # column as the dense vector ("a single GD iteration consists
            # of K matrix-vector multiplications"). Gathering one 8-byte
            # column entry per nonzero has mild irregularity (columns are
            # dense).
            for _k in range(hidden_dim):
                with cluster.trace_span("spmv", kind="dense", index=_k):
                    _step(cluster, nnz_per_node, flops_one, traffic_one,
                          vector_bytes=8.0 * n / cluster.num_nodes / density,
                          gather_random_bytes=8.0)
            cluster.mark_iteration()

    return AlgorithmResult(
        algorithm="collaborative_filtering", framework="combblas",
        values=(p_factors, q_factors), iterations=iterations,
        metrics=cluster.metrics(),
        extras={"rmse_curve": rmse_curve, "method": "gd",
                "hidden_dim": hidden_dim, "spmvs_per_iteration": hidden_dim},
    )


def triangle_count(graph: CSRGraph, cluster: Cluster) -> AlgorithmResult:
    """``nnz-weighted (A .* A^2)`` with the full product materialized.

    Raises :class:`~repro.errors.CapacityError` when the A^2 blocks do
    not fit — the paper's Twitter failure (Section 5.3).
    """
    dist, nnz_per_node = _build(graph, cluster)

    with cluster.trace_span("spgemm") as spgemm_span:
        product, flops, traffic = dist.spgemm_aa()
        spgemm_span.set(flops=flops, product_nnz=int(product.nnz))
        # The product must live in memory before the elementwise mask;
        # its nonzeros distribute like the blocks do (roughly evenly).
        product_per_node = 16.0 * product.nnz / cluster.num_nodes
        cluster.allocate_all("a-squared", product_per_node)

        count, mult_flops = dist.ewise_mult_sum(product)
        # SpGEMM pays for far more than the multiplies: heap/hash
        # accumulator maintenance per multiply (irregular, ~log d deep),
        # expanded-triple materialization that is re-merged once per
        # SUMMA stage, and the full A^2 written out and re-read for the
        # mask — work the fused native intersection never does (Section
        # 6.2's "inter-operation optimization" roadmap item).
        multiplies = flops / 2.0
        stages = dist.grid.grid
        spa_random_bytes = 32.0 * multiplies / cluster.num_nodes
        expand_stream_bytes = (16.0 * min(stages, 8) * multiplies
                               / cluster.num_nodes)
        product_stream_bytes = 4.0 * product_per_node
        works = _works(cluster, nnz_per_node,
                       100.0 * multiplies + mult_flops, traffic)
        for work in works:
            work.random_bytes += spa_random_bytes
            work.streamed_bytes += product_stream_bytes + expand_stream_bytes
            work.prefetch = False   # pointer-chasing accumulators do not
        cluster.superstep(works, traffic,
                          overlap=_PROFILE.overlaps_communication,
                          layer=_PROFILE.comm_layer,
                          overhead_s=_PROFILE.superstep_overhead_s)
        cluster.mark_iteration()

    return AlgorithmResult(
        algorithm="triangle_counting", framework="combblas",
        values=int(count), iterations=1, metrics=cluster.metrics(),
        extras={"a_squared_nnz": int(product.nnz),
                "spgemm_flops": flops},
    )


# ---------------------------------------------------------------------------
# Second-generation workloads (WCC, SSSP, k-core, label propagation).
# ---------------------------------------------------------------------------


def _min_plus_fixpoint(graph: CSRGraph, cluster: Cluster, values,
                        edge_values, bytes_per_nnz: float = 16.0):
    """Sparse min-plus SpMV rounds until no vertex improves.

    The sparse vector starts as ``values`` (absent = ``inf``, the
    semiring zero); afterwards only just-improved vertices stay present.
    Returns ``(values, rounds, relaxations)``.
    """
    dist, nnz_per_node = _build(graph, cluster, bytes_per_nnz)
    cluster.allocate_all("vectors",
                         8.0 * 2 * graph.num_vertices / cluster.num_nodes)
    x = values
    rounds = 0
    relaxations = 0.0
    while True:
        rounds += 1
        if cluster.tracer.enabled:
            cluster.tracer.count("frontier_size",
                                 int((x != MIN_PLUS.zero).sum()))
        with cluster.trace_span("spmv", kind="sparse", round=rounds):
            y, flops, traffic = dist.spmv(x, MIN_PLUS,
                                          edge_values=edge_values,
                                          sparse_x=True)
            relaxations += flops / 2.0
            merged = np.minimum(values, y)
            changed = merged < values
            _step(cluster, nnz_per_node, flops, traffic,
                  touched_nnz=flops / 2.0, gather_random_bytes=4.0)
            cluster.mark_iteration()
        values = merged
        if not changed.any():
            return values, rounds, relaxations
        x = np.where(changed, values, np.inf)


def wcc(graph: CSRGraph, cluster: Cluster) -> AlgorithmResult:
    """HashMin WCC: sparse min-SpMV rounds over component labels.

    The min semiring with 0-valued edges carries each present vertex's
    label to its out-neighbors (``multiply(0, x) = x``, min-reduce);
    every vertex is present at first. Run on symmetrized graphs.
    """
    labels, rounds, _ = _min_plus_fixpoint(
        graph, cluster, np.arange(graph.num_vertices, dtype=np.float64),
        edge_values=np.zeros(graph.num_edges))
    values = labels.astype(np.int64)
    return AlgorithmResult(
        algorithm="wcc", framework="combblas", values=values,
        iterations=rounds, metrics=cluster.metrics(),
        extras={"components": int(np.unique(values).size)},
    )


def sssp(graph: CSRGraph, cluster: Cluster, source: int = 0) -> AlgorithmResult:
    """Bellman-Ford over the tropical semiring: sparse min-plus SpMVs."""
    from ...algorithms.sssp import edge_weights_for

    check_params(graph.num_vertices, source=source)
    distances = np.full(graph.num_vertices, np.inf)
    distances[source] = 0.0
    distances, rounds, relaxations = _min_plus_fixpoint(
        graph, cluster, distances, edge_values=edge_weights_for(graph),
        bytes_per_nnz=24.0)
    return AlgorithmResult(
        algorithm="sssp", framework="combblas", values=distances,
        iterations=rounds, metrics=cluster.metrics(),
        extras={"relaxations": relaxations,
                "reached": int(np.isfinite(distances).sum())},
    )


def k_core(graph: CSRGraph, cluster: Cluster) -> AlgorithmResult:
    """Ascending-k peeling; each cascade wave is one counting SpMV.

    The removed-vertex indicator times the adjacency (plus-times,
    sparse) counts the degree decrements every surviving vertex
    receives — LAGraph's k-core shape.
    """
    dist, nnz_per_node = _build(graph, cluster)
    num_vertices = graph.num_vertices
    cluster.allocate_all("vectors", 8.0 * 3 * num_vertices / cluster.num_nodes)

    degrees = graph.out_degrees().astype(np.int64)
    core = np.zeros(num_vertices, dtype=np.int64)
    alive = np.ones(num_vertices, dtype=bool)
    peeled_edges = 0.0
    waves = 0
    k = 1
    while alive.any():
        with cluster.trace_span("peel-level", k=k, alive=int(alive.sum())):
            while True:
                removed = np.flatnonzero(alive & (degrees < k))
                if removed.size == 0:
                    break
                waves += 1
                if cluster.tracer.enabled:
                    cluster.tracer.count("frontier_size", int(removed.size))
                x = np.zeros(num_vertices)
                x[removed] = 1.0
                core[removed] = k - 1
                alive[removed] = False
                with cluster.trace_span("spmv", kind="sparse", k=k,
                                        removed=int(removed.size)):
                    y, flops, traffic = dist.spmv(x, PLUS_TIMES,
                                                  sparse_x=True)
                    peeled_edges += flops / 2.0
                    degrees = degrees - np.rint(y).astype(np.int64)
                    _step(cluster, nnz_per_node, flops, traffic,
                          touched_nnz=flops / 2.0, gather_random_bytes=4.0)
            cluster.mark_iteration()
        k += 1

    return AlgorithmResult(
        algorithm="k_core", framework="combblas", values=core,
        iterations=waves, metrics=cluster.metrics(),
        extras={"max_core": int(core.max()) if core.size else 0,
                "peeled_edges": peeled_edges},
    )


class _DenseSpMVEngine(Engine):
    """Label propagation's rounds as dense SpMVs on this distribution.

    The per-round exchange and matrix scan are exactly a dense SpMV; the
    (max count, min label) mode runs as the semiring's user-defined add.
    """

    def __init__(self, program, graph, cluster):
        super().__init__(program, graph, cluster,
                         SimpleNamespace(extras=("communities",)))
        dist, self._nnz_per_node = _build(graph, cluster)
        self._vector_bytes = 8.0 * 2 * graph.num_vertices / cluster.num_nodes
        cluster.allocate_all("vectors", self._vector_bytes)
        # Flop/traffic template of one dense SpMV on this distribution.
        _, self._flops, self._traffic = dist.spmv(
            np.ones(graph.num_vertices), PLUS_TIMES)

    def iteration_span(self, index: int):
        return self.cluster.trace_span("spmv", kind="dense", index=index)

    def sweep(self) -> None:
        # The mode "add" is a user-defined hash tally: each visited
        # nonzero pays the dense gather plus a 16 B probe.
        _step(self.cluster, self._nnz_per_node, self._flops, self._traffic,
              vector_bytes=self._vector_bytes, gather_random_bytes=48.0)


def label_propagation(graph: CSRGraph, cluster: Cluster,
                      **params) -> AlgorithmResult:
    """CDLP: one dense label exchange per round, mode aggregation."""
    return run_program("label_propagation", "combblas", _DenseSpMVEngine,
                       graph, cluster, params)
