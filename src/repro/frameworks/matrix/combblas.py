"""CombBLAS front-end: the workloads as semiring linear algebra.

A vertex program *is* a semiring SpMV (GraphMat's thesis, and Section
3.2's mappings), so the seven iterative workloads are the shared round
programs of :mod:`repro.frameworks.rounds` — the same values every other
family computes — and this module supplies only what each round *costs*
as a product on the 2-D process grid (:class:`MatrixEngine`, one
:class:`MatrixCost` row per graph workload; :class:`MatrixCFEngine`):

* PageRank — ``p' = r 1 + (1-r) A^T p~`` (equation 9): one dense-vector
  plus-times SpMV per iteration; label propagation likewise, with the
  (max count, min label) mode as a user-defined add;
* BFS — or-and SpMSpV per level (equation 10), no bit-vector compression
  (the roadmap item of Section 6.2); WCC and SSSP are min-plus SpMSpVs
  over the just-improved vertices, k-core a plus-times SpMSpV per
  cascade wave over the removed-vertex indicator (LAGraph's shape);
* Collaborative filtering — a gradient-descent iteration as "K
  matrix-vector multiplications where K is the size of the hidden
  dimension", because "CombBLAS does not allow matrices with dimension
  < number of processors" (Section 3.2) — the expressibility penalty;
* Triangle counting — ``nnz(A .* A^2)``, counted from CombBLAS's own
  SUMMA blocks: the full ``A @ A`` product is materialized first, which
  both inflates flops and runs out of memory on large inputs (Sections
  5.2, 5.3, 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...cluster import Cluster, ComputeWork, Spans, node_volumes
from ...graph import CSRGraph, bipartite_graph
from ..base import COMBBLAS
from ..rounds import Engine
from .spmat import DistSpMat, ProcessGrid

_PROFILE = COMBBLAS


def _build(graph: CSRGraph, cluster: Cluster, bytes_per_nnz: float = 16.0):
    """Distribute the matrix and register its memory."""
    grid = ProcessGrid(cluster.num_nodes)
    dist = DistSpMat(graph, grid)
    nnz_per_node = dist.nnz_per_node()
    cluster.allocate_all("matrix", bytes_per_nnz
                         * np.asarray(nnz_per_node, dtype=np.float64))
    return dist, nnz_per_node


def _work(nnz_per_node, flops_total: float, traffic: np.ndarray,
          vector_bytes_per_node: float = 0.0, touched_nnz: float = None,
          gather_random_bytes: float = 32.0) -> ComputeWork:
    """The ComputeWork (per-node columns) of one matrix kernel invocation.

    ``touched_nnz`` restricts the streamed matrix bytes to the nonzeros a
    sparse operation actually visits (an SpMSpV over a BFS frontier does
    not scan the whole matrix); it defaults to all of them.
    ``gather_random_bytes`` is the irregular traffic per visited nonzero
    (the values are :class:`MatrixCost`'s).
    """
    total_nnz = max(float(np.sum(nnz_per_node)), 1.0)
    if touched_nnz is None:
        touched_nnz = total_nnz
    share = np.asarray(nnz_per_node, dtype=np.float64) / total_nnz
    # ``(S,)`` flops and touched counts charge a stack of S products.
    node_nnz = np.multiply.outer(touched_nnz, share)
    flops_total = np.multiply.outer(flops_total, share)
    return ComputeWork(
        # 16 B per visited nonzero (index + value) plus SPA re-reads.
        streamed_bytes=(24.0 * node_nnz + vector_bytes_per_node
                        + 2.0 * node_volumes(traffic)),
        random_bytes=gather_random_bytes * node_nnz,
        ops=flops_total,
        cpu_efficiency=_PROFILE.cpu_efficiency,
        cores_fraction=_PROFILE.cores_fraction,
        prefetch=True,   # tuned C++ SpMV kernels prefetch their SPA
    )


@dataclass(frozen=True)
class MatrixCost:
    """Cost row of one round program as products on the process grid."""

    vectors: int                 #: dense float64 vectors held per vertex
    #: Irregular bytes per visited nonzero: an SpMSpV streams merge-style
    #: (4 B); a dense-vector gather lands on a cold line about half the
    #: time (32 B); a user-defined hash-tally add probes 16 B more.
    gather_random_bytes: float
    extras: tuple
    bytes_per_nnz: float = 16.0  #: 24 with stored weights


COSTS = {
    "pagerank": MatrixCost(3, 32.0, ("grid",)),
    "bfs": MatrixCost(2, 4.0, ("reached",)),
    "wcc": MatrixCost(2, 4.0, ("components",)),
    "sssp": MatrixCost(2, 4.0, ("relaxations", "reached"),
                       bytes_per_nnz=24.0),
    "k_core": MatrixCost(3, 4.0, ("max_core", "peeled_edges")),
    "label_propagation": MatrixCost(2, 48.0, ("communities",)),
}


class MatrixEngine(Engine):
    """Each round is one semiring product on the distributed matrix.

    A frontier round is an SpMSpV over the active set, a dense sweep an
    SpMV; the program computes the values, ``DistSpMat.spmv_cost`` says
    what the 2-D product moves and multiplies. k_core's levels mark the
    iterations (the peel threshold is a driver-side scalar) but every
    cascade wave is still its own product, so waves are what it reports.
    """

    reports_levels = False
    reads_edges = True
    #: Bytes per shipped vector entry.
    value_bytes = 8.0

    def __init__(self, program, graph, cluster):
        super().__init__(program, graph, cluster, COSTS[program.algorithm])
        self.per_level = program.algorithm == "k_core"
        self.dist, self._nnz_per_node = _build(graph, cluster,
                                               self.cost.bytes_per_nnz)
        self._vector_bytes = (8.0 * self.cost.vectors * graph.num_vertices
                              / cluster.num_nodes)
        cluster.allocate_all("vectors", self._vector_bytes)
        self._multiplies = 0.0

    def charge(self, rounds) -> None:
        """An SpMSpV superstep per round over its active ids; k_core's
        levels each mark the iteration after their waves."""
        cluster, count = self.cluster, rounds.count
        flops, traffic = self.dist.spmspv_costs(rounds, self.value_bytes)
        self._multiplies = sum((flops / 2.0).tolist(), self._multiplies)
        work = _work(self._nnz_per_node, flops, traffic,
                     touched_nnz=flops / 2.0,
                     gather_random_bytes=self.cost.gather_random_bytes)
        marks = rounds.level_bounds()[1:] if self.per_level \
            else np.arange(1, count + 1)
        spans = None
        if cluster.tracer.enabled:
            flops = list(enumerate(flops.tolist()))
            bounds = rounds.level_bounds()
            spans = Spans(
                rounds.extents("spmv", depth=int(self.per_level),
                               kind="sparse")
                + (rounds.level_extents("peel-level", bounds[:-1],
                                        bounds[1:]) if self.per_level else []),
                rounds.frontier() + [(row, "flops", value)
                                     for row, value in flops],
                [(row, "spmv-kernel", {"flops": value, "sparse": True})
                 for row, value in flops])
        cluster.supersteps(work, traffic, marks=marks, spans=spans,
                           **_PROFILE.step)

    def iteration(self) -> dict:
        self._flops, traffic = self.dist.spmv_cost(
            value_bytes=self.value_bytes)
        return self.rows([(_work(
            self._nnz_per_node, self._flops, traffic, self._vector_bytes,
            gather_random_bytes=self.cost.gather_random_bytes), traffic)],
            **_PROFILE.step)

    def spans(self, index: int, rows: int) -> Spans:
        return Spans([("spmv", {"kind": "dense", "index": index}, 0, rows,
                       0)], [(0, "flops", self._flops)],
                     [(0, "spmv-kernel", {"flops": self._flops,
                                          "sparse": False})])

    def diagnostics(self) -> dict:
        return {"grid": self.dist.grid.grid, "peeled_edges": self._multiplies}


class MatrixCFEngine(Engine):
    """A GD iteration: each factor column is the dense vector of one
    SpMV over the bipartite ratings matrix. The exchanged vectors are
    vertex-proportional, so density-corrected."""

    def __init__(self, program, ratings, cluster):
        super().__init__(program, ratings, cluster)
        graph = bipartite_graph(ratings)
        self.dist, self._nnz_per_node = _build(graph, cluster)
        # n covers both user and item vertices of the bipartite graph;
        # each node stores its band of the K factor columns.
        n, nodes, density = graph.num_vertices, cluster.num_nodes, \
            program.density
        cluster.allocate_all("factors",
                             8.0 * program.hidden_dim * n / nodes / density)
        self._flops, traffic = self.dist.spmv_cost()
        self._traffic = traffic / density
        self._vector_bytes = 8.0 * n / nodes / density

    def iteration(self) -> dict:
        # Gathering one 8-byte column entry per nonzero has mild
        # irregularity (columns are dense).
        return self.rows([(_work(self._nnz_per_node, self._flops,
                                 self._traffic, self._vector_bytes,
                                 gather_random_bytes=8.0), self._traffic)]
                         * self.program.hidden_dim, **_PROFILE.step)

    def spans(self, index: int, rows: int) -> Spans:
        # Counted once, when the engine prices the product.
        planned = [(0, "spmv-kernel", {"flops": self._flops,
                                       "sparse": False})] if index == 0 else []
        return Spans([("iteration", {"index": index, "spmvs": rows},
                       0, rows, 0)]
                     + [("spmv", {"kind": "dense", "index": column},
                         column, column + 1, 1) for column in range(rows)],
                     [(0, "flops", self._flops)] if planned else [],
                     leading=planned, alloc_depth=0)

    def diagnostics(self) -> dict:
        return {"spmvs_per_iteration": self.program.hidden_dim}


class MatrixTCEngine(Engine):
    """``nnz-weighted (A .* A^2)`` with the full product materialized.

    The program's count is this engine's own SUMMA product and mask, not
    the fused kernel. Raises :class:`~repro.errors.CapacityError` when
    the A^2 blocks do not fit — the paper's Twitter failure (§5.3).
    """

    def __init__(self, program, graph, cluster):
        super().__init__(program, graph, cluster)
        self.dist, self._nnz_per_node = _build(graph, cluster)
        program.count = self.count

    def count(self, graph) -> tuple:
        product, self._flops, self._traffic = self.dist.spgemm_aa()
        self._product_nnz = int(product.nnz)
        # Its nonzeros distribute like the blocks do (roughly evenly).
        self._product_per_node = 16.0 * product.nnz / self.cluster.num_nodes
        total, self._mult_flops = self.dist.ewise_mult_sum(product)
        return int(total), None

    def iteration(self) -> dict:
        # SpGEMM pays for far more than the multiplies: heap/hash
        # accumulator maintenance per multiply (irregular, ~log d deep),
        # expanded-triple materialization that is re-merged once per
        # SUMMA stage, and the full A^2 written out and re-read for the
        # mask — work the fused native intersection never does (Section
        # 6.2's "inter-operation optimization" roadmap item).
        cluster = self.cluster
        multiplies = self._flops / 2.0
        stages = self.dist.grid.grid
        spa_random_bytes = 32.0 * multiplies / cluster.num_nodes
        expand_stream_bytes = (16.0 * min(stages, 8) * multiplies
                               / cluster.num_nodes)
        product_stream_bytes = 4.0 * self._product_per_node
        work = _work(self._nnz_per_node, 100.0 * multiplies + self._mult_flops,
                     self._traffic)
        work.random_bytes += spa_random_bytes
        work.streamed_bytes += product_stream_bytes + expand_stream_bytes
        work.prefetch = False   # pointer-chasing accumulators do not
        # The product, once its kernel ran, must fit in memory for the
        # elementwise mask.
        return self.rows([(work, self._traffic, np.full(
            cluster.num_nodes, self._product_per_node))], "a-squared",
            **_PROFILE.step)

    def spans(self, index: int, rows: int) -> Spans:
        attrs = {"flops": self._flops, "product_nnz": self._product_nnz}
        return Spans([("spgemm", attrs, 0, rows, 0)],
                     [(0, "flops", self._flops)],
                     leading=[(0, "spgemm-kernel", attrs)])

    def diagnostics(self) -> dict:
        return {"a_squared_nnz": self._product_nnz,
                "spgemm_flops": self._flops}
