"""Graph partitioning schemes used by the frameworks in the paper.

Table 2 and Section 6.1.1 enumerate them:

* 1-D vertex partitioning (Giraph, SociaLite, GraphLab's basic mode) —
  each node owns a contiguous range of vertices and their edges;
* 1-D *edge-balanced* partitioning (the native code) — vertex ranges are
  chosen "so that each node has roughly the same number of edges";
* 2-D partitioning (CombBLAS) — the adjacency matrix is split into a
  sqrt(P) x sqrt(P) block grid and each processor owns one block of
  edges;
* vertex-cut with high-degree replication (GraphLab v2.2) — edges are
  distributed and high-degree vertices are mirrored on several nodes,
  which the paper credits with better load balance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import PartitionError
from .csr import CSRGraph, derived


def _ranges_from_bounds(bounds: np.ndarray):
    return [(int(bounds[p]), int(bounds[p + 1])) for p in range(bounds.size - 1)]


#: From this many ids on, ``owner_of_many`` indexes an owner table.
_TABLE_MIN_IDS = 64


@dataclass
class Partition1D:
    """Contiguous vertex ranges; ``bounds`` has ``num_parts + 1`` entries."""

    num_vertices: int
    bounds: np.ndarray
    #: Owner of every id in ``[0, num_vertices]``; built at the first
    #: lookup large enough to repay it.
    _owners: np.ndarray = field(default=None, init=False, repr=False,
                                compare=False)

    @property
    def num_parts(self) -> int:
        return int(self.bounds.size - 1)

    def owner(self, vertex: int) -> int:
        vertex = int(vertex)
        if not 0 <= vertex < self.num_vertices:
            raise IndexError(f"vertex {vertex} out of range")
        return int(np.searchsorted(self.bounds, vertex, side="right") - 1)

    def owner_of_many(self, vertices) -> np.ndarray:
        vertices = np.asarray(vertices, dtype=np.int64)
        # One table read per id beats one binary search per id; ids
        # outside the table (negative ones are huge as unsigned) keep
        # the search's answer.
        if vertices.size >= _TABLE_MIN_IDS and \
                int(vertices.view(np.uint64).max()) <= self.num_vertices:
            if self._owners is None:
                self._owners = self._search(
                    np.arange(self.num_vertices + 1))
            return self._owners[vertices]
        return self._search(vertices)

    def _search(self, vertices: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.bounds, vertices, side="right") - 1

    def part_range(self, part: int):
        if not 0 <= part < self.num_parts:
            raise IndexError(f"part {part} out of range")
        return int(self.bounds[part]), int(self.bounds[part + 1])

    def part_sizes(self) -> np.ndarray:
        return np.diff(self.bounds)

    def ranges(self):
        return _ranges_from_bounds(self.bounds)


def partition_vertices_1d(num_vertices: int, num_parts: int) -> Partition1D:
    """Equal vertex counts per part (Giraph/SociaLite-style)."""
    if num_parts <= 0:
        raise PartitionError(f"num_parts must be positive, got {num_parts}")
    bounds = np.linspace(0, num_vertices, num_parts + 1).astype(np.int64)
    return Partition1D(num_vertices, bounds)


def partition_edges_1d(graph: CSRGraph, num_parts: int) -> Partition1D:
    """Contiguous vertex ranges balanced by edge count (native code).

    Splits the prefix-sum of degrees at multiples of ``E / P``, the
    approach the paper describes for the native PageRank (Section 3.1).
    """
    if num_parts <= 0:
        raise PartitionError(f"num_parts must be positive, got {num_parts}")
    offsets = graph.offsets
    total = graph.num_edges
    cut_points = (np.arange(1, num_parts) * total) // num_parts
    inner = np.searchsorted(offsets, cut_points, side="left")
    bounds = np.concatenate([[0], inner, [graph.num_vertices]]).astype(np.int64)
    bounds = np.maximum.accumulate(bounds)  # keep monotone for tiny graphs
    return Partition1D(graph.num_vertices, bounds)


@dataclass
class Partition2D:
    """CombBLAS-style block grid over the adjacency matrix.

    Processor ``(i, j)`` of a ``grid x grid`` layout owns edges whose
    source falls in row-band ``i`` and destination in column-band ``j``.
    Vectors are distributed along the diagonal.
    """

    num_vertices: int
    grid: int
    row_bounds: np.ndarray
    col_bounds: np.ndarray

    @property
    def num_parts(self) -> int:
        return self.grid * self.grid

    def part_of(self, src, dst) -> np.ndarray:
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        row = np.searchsorted(self.row_bounds, src, side="right") - 1
        col = np.searchsorted(self.col_bounds, dst, side="right") - 1
        return row * self.grid + col

    def row_of_part(self, part: int) -> int:
        return int(part) // self.grid

    def col_of_part(self, part: int) -> int:
        return int(part) % self.grid


def partition_2d(num_vertices: int, num_parts: int) -> Partition2D:
    """Build a square processor grid; ``num_parts`` must be a square.

    CombBLAS "requires the total number of processes to be a square"
    (Section 4.3); we enforce the same constraint.
    """
    grid = math.isqrt(num_parts)
    if grid * grid != num_parts:
        raise PartitionError(
            f"2-D partitioning requires a square part count, got {num_parts}"
        )
    bounds = np.linspace(0, num_vertices, grid + 1).astype(np.int64)
    return Partition2D(num_vertices, grid, bounds, bounds.copy())


@dataclass
class VertexCutPartition:
    """GraphLab-style vertex-cut: edges are placed, vertices are mirrored.

    ``edge_part`` assigns every edge to a part. A vertex is *mirrored* on
    every part that holds one of its edges; one replica (the hash-chosen
    master) owns the authoritative value. The replication factor drives
    both load balance and the gather/apply/scatter communication volume.
    """

    num_vertices: int
    num_parts: int
    edge_part: np.ndarray
    masters: np.ndarray
    mirror_counts: np.ndarray

    def replication_factor(self) -> float:
        """Average replicas per vertex that has at least one edge."""
        present = self.mirror_counts > 0
        if not present.any():
            return 0.0
        return float(self.mirror_counts[present].mean())

    def edges_per_part(self) -> np.ndarray:
        """Edges placed on each part, counted once per placement (which
        a dense graph keeps for every later cell)."""
        return self._edge_counts

    @functools.cached_property
    def _edge_counts(self) -> np.ndarray:
        counts = np.bincount(self.edge_part, minlength=self.num_parts)
        counts.flags.writeable = False
        return counts


def partition_vertex_cut(graph: CSRGraph, num_parts: int,
                         seed: int = 0) -> VertexCutPartition:
    """Greedy-free hashed vertex-cut with degree-aware edge placement.

    Low-degree endpoints pin their edges to the endpoint's hash part
    (keeping most vertices on one node); edges between two high-degree
    vertices are spread by edge hash, mirroring the hubs — the behaviour
    the paper describes as "nodes with large degree are duplicated in
    multiple nodes to avoid problems of load imbalance" (Section 6.1.1).

    A function of ``(graph, num_parts, seed)`` only, so a dense graph
    keeps each result (:func:`~repro.graph.csr.derived`, read-only) and
    every later cell on it reuses the placement.
    """
    if num_parts <= 0:
        raise PartitionError(f"num_parts must be positive, got {num_parts}")
    return derived(graph, ("vertex-cut", num_parts, seed),
                   lambda: _vertex_cut(graph, num_parts, seed))


def _vertex_cut(graph, num_parts: int, seed: int) -> VertexCutPartition:
    from ..kernels.segments import distinct    # kernels import this package

    num_vertices = graph.num_vertices
    dst = graph.targets
    if num_parts == 1:
        # Every hash is 0 modulo one part: all edges land on part 0 and a
        # vertex has one replica per direction it has an edge in.
        mirror_counts = (np.diff(graph.offsets) > 0).astype(np.int64)
        mirror_counts[distinct(dst, num_vertices)] += 1
        return VertexCutPartition(
            num_vertices, 1, np.zeros(graph.num_edges, dtype=np.int64),
            np.zeros(num_vertices, dtype=np.int64), mirror_counts)

    src = graph.sources()
    degrees = np.bincount(src, minlength=num_vertices)
    degrees += np.bincount(dst, minlength=num_vertices)
    threshold = max(float(np.percentile(degrees[degrees > 0], 99)), 64.0) \
        if graph.num_edges else 64.0

    rng = np.random.default_rng(seed)
    salt = rng.integers(1, 2**31 - 1)
    vhash = ((np.arange(num_vertices, dtype=np.int64) * 2654435761 + salt)
             % np.int64(2**31)) % num_parts

    src_hot = degrees[src] > threshold
    dst_hot = degrees[dst] > threshold
    edge_ids = np.arange(graph.num_edges, dtype=np.int64)
    ehash = ((edge_ids * 40503 + salt) % np.int64(2**31)) % num_parts

    edge_part = np.where(~src_hot, vhash[src],
                         np.where(~dst_hot, vhash[dst], ehash)).astype(np.int64)

    # A vertex is mirrored once per (direction, part) holding its edges:
    # count the distinct (vertex, part) pairs of each endpoint column.
    mirror_counts = np.zeros(num_vertices, dtype=np.int64)
    for endpoint in (src, dst):
        pairs = distinct(endpoint * np.int64(num_parts) + edge_part,
                         num_vertices * num_parts)
        mirror_counts += np.bincount(pairs // num_parts,
                                     minlength=num_vertices)

    masters = vhash.astype(np.int64)
    return VertexCutPartition(num_vertices, num_parts, edge_part,
                              masters, mirror_counts)
