"""2-D distributed sparse matrix with CombBLAS's process-grid layout.

CombBLAS "partitions the non-zeros of the matrix (edges in the graph)
across nodes ... the only framework that supports an edge-based
partitioning" (Section 3), runs "as a pure MPI program" with 36 processes
per node, and "requires the total number of processes to be a square"
(Section 4.3). :class:`ProcessGrid` reproduces that: a g x g grid of MPI
ranks mapped block-contiguously onto the cluster's nodes, with g chosen
as the largest square that 36/node allows.

:class:`DistSpMat` holds the block-distributed adjacency and what the
paper's algorithms need of it, each with the per-node traffic matrix of
the 2-D algorithm:

* ``spmv_cost`` — flops and traffic of one semiring product (column-band
  broadcast of x, local multiply, row-band reduction of partial y; over
  a sparse x only the present rows are visited and shipped) *without
  running it*: the six iterative workloads take their values from the
  shared round programs, so this is all the engine asks;
* ``spmv`` — the product itself plus ``spmv_cost``: the semiring oracle
  the tests compare the round programs against;
* ``spgemm_aa`` — SUMMA-style A @ A with A broadcast along both grid
  dimensions, materializing the full product (the expressibility problem
  that makes triangle counting blow up: Sections 5.2/6.2);
* ``ewise_mult_sum`` — elementwise mask-and-sum against another matrix.

The node sets of the collectives depend only on the grid and are 0/1
templates shared by every matrix on it (:class:`GridTemplates`); block
and band layout is per ``(graph, grid)``, built once in ``__init__``;
only the entry counts of ``x`` and ``y`` are per call.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np
from scipy import sparse

from ...errors import PartitionError
from ...graph import CSRGraph, iter_csr_blocks
from ...graph.csr import derived
from ...kernels.segments import distinct
from ...kernels.spmv import semiring_spmspv
from .semiring import PLUS_TIMES, Semiring, semiring_spmv

PROCS_PER_NODE = 36


class ProcessGrid:
    """Square grid of MPI ranks mapped contiguously onto nodes."""

    def __init__(self, num_nodes: int, procs_per_node: int = PROCS_PER_NODE):
        if num_nodes < 1:
            raise PartitionError("num_nodes must be >= 1")
        total = num_nodes * procs_per_node
        self.grid = max(math.isqrt(total), 1)
        self.num_nodes = num_nodes
        self.procs_per_node = procs_per_node
        self.num_procs = self.grid * self.grid

    def node_of_rank(self, rank) -> np.ndarray:
        """Block-contiguous rank -> node mapping."""
        rank = np.asarray(rank, dtype=np.int64)
        return np.minimum(rank * self.num_nodes // self.num_procs,
                          self.num_nodes - 1)

    @property
    def templates(self) -> "GridTemplates":
        """The node-level communication pattern, shared per grid shape."""
        return _grid_templates(self.num_nodes, self.procs_per_node)


class GridTemplates(NamedTuple):
    """0/1 node-level patterns of a grid's collectives (read-only).

    MPI collectives move each segment once per *node* (the tree forwards
    within a node over shared memory), so these record node membership,
    not rank counts; a sender is never its own target.
    """

    #: ``[node, rank]``: ``node`` hosts ``rank`` (ranks row-major).
    rank_on_node: np.ndarray
    #: ``[band, source, target]``: column ``band``'s x segment goes from
    #: its diagonal rank's node to the other nodes of that grid column.
    broadcast: np.ndarray
    #: ``[band, source, target]``: row ``band``'s partial y comes from
    #: the other nodes of that grid row to its diagonal rank's node.
    fold: np.ndarray
    #: ``[rank, target]``: SUMMA reaches ``rank``'s grid row and column.
    summa_reach: np.ndarray


@functools.lru_cache(maxsize=32)
def _grid_templates(num_nodes: int, procs_per_node: int) -> GridTemplates:
    grid = ProcessGrid(num_nodes, procs_per_node)
    g = grid.grid
    bands = np.arange(g)
    owner = grid.node_of_rank(np.arange(grid.num_procs)).reshape(g, g)
    diag = owner[bands, bands]
    on_row = np.zeros((g, num_nodes))
    on_row[bands[:, None], owner] = 1.0
    on_column = np.zeros((g, num_nodes))
    on_column[bands[None, :], owner] = 1.0

    broadcast = np.zeros((g, num_nodes, num_nodes))
    broadcast[bands, diag, :] = on_column
    fold = np.zeros((g, num_nodes, num_nodes))
    fold[bands, :, diag] = on_row
    broadcast[bands, diag, diag] = fold[bands, diag, diag] = 0.0
    reach = np.maximum(on_row[:, None, :], on_column[None, :, :])
    reach[bands[:, None], bands[None, :], owner] = 0.0

    templates = GridTemplates(
        rank_on_node=(owner.reshape(-1)
                      == np.arange(num_nodes)[:, None]).astype(np.float64),
        broadcast=broadcast, fold=fold,
        summa_reach=reach.reshape(g * g, num_nodes),
    )
    for array in templates:
        array.flags.writeable = False
    return templates


class DistSpMat:
    """The adjacency of ``graph`` distributed over a :class:`ProcessGrid`."""

    def __init__(self, graph: CSRGraph, grid: ProcessGrid):
        self.graph = graph
        self.grid = grid
        n = graph.num_vertices
        g = grid.grid
        # Band boundaries of the block distribution.
        self.bounds = np.linspace(0, n, g + 1).astype(np.int64)
        #: The band of every vertex.
        self.band = derived(graph, ("spmat-bands", g), lambda: np.minimum(
            np.searchsorted(self.bounds, np.arange(n), "right") - 1, g - 1))
        self._degrees = graph.out_degrees()
        self.block_nnz = derived(graph, ("spmat-blocks", g), self._blocks)

    def _blocks(self) -> np.ndarray:
        """Nonzeros per (row band, column band) block, read block by
        block so an out-of-core graph is never materialized."""
        g, band = self.grid.grid, self.band
        return sum(
            np.bincount(np.repeat(band[lo:hi] * g, self._degrees[lo:hi])
                        + band[targets], minlength=g * g)
            for lo, hi, _, targets in iter_csr_blocks(self.graph)
        ).reshape(g, g)

    @property
    def nnz(self) -> int:
        return self.graph.num_edges

    @functools.cached_property
    def scipy(self) -> sparse.csr_matrix:
        """The adjacency as scipy CSR (only the SpGEMM kernels read it)."""
        n = self.graph.num_vertices
        return sparse.csr_matrix(
            (np.ones(self.nnz), self.graph.targets,
             self.graph.offsets.astype(np.int64)),
            shape=(n, n),
        )

    def band_sizes(self) -> np.ndarray:
        return np.diff(self.bounds)

    def nnz_per_node(self) -> np.ndarray:
        """Edges stored per cluster node (for memory accounting)."""
        return self.grid.templates.rank_on_node @ self.block_nnz.reshape(-1)

    # -- kernels -------------------------------------------------------------

    def spmv_traffic(self, x_entries_per_band: np.ndarray,
                     y_entries_per_band: np.ndarray,
                     value_bytes: float = 8.0) -> np.ndarray:
        """Node traffic of one 2-D SpMV.

        Stage 1: the diagonal rank of each column band broadcasts its x
        segment down the column (g-1 recipients). Stage 2: each rank
        sends its partial y segment to the diagonal rank of its row band
        (fold). Entry counts allow sparse vectors (BFS frontiers) — only
        present entries travel.
        """
        templates = self.grid.templates
        x_bytes = np.asarray(x_entries_per_band, dtype=np.float64) * value_bytes
        y_bytes = np.asarray(y_entries_per_band, dtype=np.float64) * value_bytes
        return (np.tensordot(x_bytes, templates.broadcast, 1)
                + np.tensordot(y_bytes, templates.fold, 1))

    def _entries_per_band(self, present: np.ndarray) -> np.ndarray:
        """Band histogram of ascending vertex ids (all below ``n``)."""
        return np.diff(np.searchsorted(present, self.bounds)).astype(np.float64)

    def spmv_cost(self, present: np.ndarray = None,
                  value_bytes: float = 8.0):
        """``(flops, traffic)`` of one 2-D product, without running it.

        ``present`` is the ascending ids of the sparse vector's entries
        (an SpMSpV: only those rows are multiplied, counted and shipped);
        ``None`` is a dense vector. The output's presence is structural —
        the out-neighbours of ``present`` — so an entry that cancels to
        the semiring zero is still folded and shipped, as the ranks
        holding its partial sums cannot know it will.
        """
        if present is None:
            x_bands = y_bands = self.band_sizes().astype(np.float64)
            flops = 2.0 * float(self.nnz)
        else:
            targets, _ = self.graph.neighbors_of_many(present)
            x_bands = self._entries_per_band(present)
            y_bands = self._entries_per_band(
                distinct(targets, self.graph.num_vertices))
            flops = 2.0 * float(targets.size)
        return flops, self.spmv_traffic(x_bands, y_bands, value_bytes)

    def spmspv_costs(self, rounds, value_bytes: float = 8.0):
        """``(flops, traffic)`` of one SpMSpV per round of a chunk
        (:class:`~repro.frameworks.rounds.Rounds`, each round's ids
        ascending), as ``(S,)`` and ``(S, P, P)`` stacks: each round's
        :meth:`spmv_cost`, bit for bit (entry counts are integers, so
        with a whole ``value_bytes`` every sum is exact in any order).
        The y counts are the chunk's target census
        (:meth:`~repro.frameworks.rounds.Rounds.census`) at this grid's
        bands, and the flops its rows' degrees, so a chunk whose census
        the graph holds gathers nothing."""
        g, count = self.grid.grid, rounds.count
        row = rounds.round_of_ids()
        x_bands = np.bincount(row * g + self.band[rounds.active],
                              minlength=count * g)
        flops = 2.0 * np.bincount(row, weights=self._degrees[rounds.active],
                                  minlength=count)
        return flops, self.spmv_traffic(
            x_bands.reshape(count, g).astype(np.float64),
            rounds.census(self.bounds).astype(np.float64), value_bytes)

    def spmv(self, x: np.ndarray, semiring: Semiring = PLUS_TIMES,
             edge_values: np.ndarray = None, sparse_x: bool = False,
             value_bytes: float = 8.0):
        """``y = A^T x`` plus :meth:`spmv_cost` of the product.

        With ``sparse_x`` an entry is present iff it differs from
        ``semiring.zero`` and only present rows are multiplied. This is
        the semiring oracle the tests hold the round programs to; the
        engine itself runs the shared kernels and calls only
        :meth:`spmv_cost`.
        """
        if sparse_x:
            x = np.asarray(x, dtype=np.float64)
            present = np.flatnonzero(x != semiring.zero)
            y = semiring_spmspv(self.graph, x, present, semiring, edge_values)
        else:
            present = None
            y = semiring_spmv(self.graph, x, semiring, edge_values)
        return (y, *self.spmv_cost(present, value_bytes))

    def spgemm_aa(self):
        """``A @ A`` (path counts), with its flop count and traffic.

        SUMMA stages broadcast every A block along its row *and* column
        of the grid, so each rank's nnz crosses the wire ~2(g-1)/g x 16
        bytes; the result blocks stay put. The caller is responsible for
        registering the product's memory — that allocation is what kills
        CombBLAS triangle counting on big inputs.
        """
        from ...kernels.triangles import aa_product

        product = aa_product(self.scipy)
        # Multiply count: for each nonzero (u, v), row v's nnz.
        flops = 2.0 * float(self._degrees[self.graph.targets].sum())

        templates = self.grid.templates
        block_bytes = self.block_nnz.reshape(-1, 1) * 16.0
        node_traffic = templates.rank_on_node @ (block_bytes
                                                 * templates.summa_reach)
        return product, flops, node_traffic

    def ewise_mult_sum(self, other) -> "tuple[float, float]":
        """``sum(A .* other)`` and its flop count (blocks are aligned)."""
        from ...kernels.triangles import masked_sum

        return masked_sum(self.scipy, other), 2.0 * float(self.scipy.nnz)
