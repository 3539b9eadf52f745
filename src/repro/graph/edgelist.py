"""Edge-list representation and the preprocessing steps the paper applies.

The Graph500 RMAT generator "only generates a list of edges (with possible
duplicates)" (Section 4.1.2). Before an algorithm can run, the paper's
pipeline dedups those edges and then, per algorithm:

* PageRank — assign a direction to every generated edge;
* BFS — symmetrize (provide both directions of every edge);
* Triangle counting — orient every edge from the smaller to the larger
  vertex id, which removes cycles and makes every triangle counted once.

Those exact transformations are provided here as methods on
:class:`EdgeList`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import GraphFormatError
from .keys import edge_keys


@dataclass
class EdgeList:
    """A bag of directed edges ``src[i] -> dst[i]`` with optional weights.

    ``num_vertices`` fixes the vertex-id universe ``[0, num_vertices)``;
    vertices with no incident edges are legal (real graphs have them).
    """

    num_vertices: int
    src: np.ndarray
    dst: np.ndarray
    weights: np.ndarray = field(default=None)

    def __post_init__(self):
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        if self.src.shape != self.dst.shape or self.src.ndim != 1:
            raise GraphFormatError("src and dst must be 1-D arrays of equal length")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=np.float64)
            if self.weights.shape != self.src.shape:
                raise GraphFormatError("weights must match the number of edges")
        if self.src.size:
            lo = min(int(self.src.min()), int(self.dst.min()))
            hi = max(int(self.src.max()), int(self.dst.max()))
            if lo < 0 or hi >= self.num_vertices:
                raise GraphFormatError(
                    f"edge endpoints [{lo}, {hi}] outside [0, {self.num_vertices})"
                )

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_pairs(cls, num_vertices: int, pairs, weights=None) -> "EdgeList":
        pairs = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)
        return cls(num_vertices, pairs[:, 0], pairs[:, 1], weights)

    # -- basic properties ----------------------------------------------------

    @property
    def num_edges(self) -> int:
        return int(self.src.size)

    def __len__(self) -> int:
        return self.num_edges

    def pairs(self) -> np.ndarray:
        """``(E, 2)`` array of (src, dst)."""
        return np.stack([self.src, self.dst], axis=1)

    # -- preprocessing (paper Section 4.1.2) ---------------------------------

    def deduplicate(self) -> "EdgeList":
        """Drop duplicate (src, dst) pairs; keeps the first weight seen."""
        keys = edge_keys(self.src, self.dst, self.num_vertices)
        _, first = np.unique(keys, return_index=True)
        first.sort()
        weights = None if self.weights is None else self.weights[first]
        return EdgeList(self.num_vertices, self.src[first], self.dst[first], weights)

    def drop_self_loops(self) -> "EdgeList":
        keep = self.src != self.dst
        weights = None if self.weights is None else self.weights[keep]
        return EdgeList(self.num_vertices, self.src[keep], self.dst[keep], weights)

    def symmetrize(self) -> "EdgeList":
        """Return both directions of every edge (BFS input), deduplicated."""
        src = np.concatenate([self.src, self.dst])
        dst = np.concatenate([self.dst, self.src])
        weights = None
        if self.weights is not None:
            weights = np.concatenate([self.weights, self.weights])
        return EdgeList(self.num_vertices, src, dst, weights).deduplicate()

    def orient_by_id(self) -> "EdgeList":
        """Orient edges from smaller to larger id (triangle-count input).

        Guarantees an acyclic digraph with at most one edge per vertex
        pair, which is the paper's preprocessing for triangle counting.
        """
        lo = np.minimum(self.src, self.dst)
        hi = np.maximum(self.src, self.dst)
        keep = lo != hi
        oriented = EdgeList(self.num_vertices, lo[keep], hi[keep])
        return oriented.deduplicate()

    def permuted(self, rng: np.random.Generator) -> "EdgeList":
        """Edges in a uniformly random order (SGD requires this)."""
        order = rng.permutation(self.num_edges)
        weights = None if self.weights is None else self.weights[order]
        return EdgeList(self.num_vertices, self.src[order], self.dst[order], weights)

    # -- statistics ----------------------------------------------------------

    def out_degrees(self) -> np.ndarray:
        return np.bincount(self.src, minlength=self.num_vertices).astype(np.int64)

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.dst, minlength=self.num_vertices).astype(np.int64)

    def nbytes(self) -> int:
        total = self.src.nbytes + self.dst.nbytes
        if self.weights is not None:
            total += self.weights.nbytes
        return total

    def resident_nbytes(self) -> int:
        """Bytes held as anonymous memory; mmap-backed arrays count zero."""
        from .csr import resident_nbytes_of

        return resident_nbytes_of(self.src, self.dst, self.weights)

    def __repr__(self) -> str:
        kind = "weighted" if self.weights is not None else "unweighted"
        return (
            f"EdgeList(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges}, {kind})"
        )
