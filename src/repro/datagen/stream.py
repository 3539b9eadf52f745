"""Chunked R-MAT generation: the out-of-core half of the Graph500 generator.

:func:`repro.datagen.rmat.rmat_edges` holds the whole edge list and a
per-level draw for every edge at once — ~40 bytes of arrays per
edge — so peak RSS, not the simulated cost model, caps the scale a
reproduction can run. This module re-derives the *same* edge stream in
fixed-size chunks:

* **Bit-identical by stream slicing, not re-seeding.** The in-memory
  generator consumes its PCG64 stream in a fixed layout — per recursion
  level, 4 jitter draws then one double per edge, and finally the
  vertex permutation. ``PCG64.advance`` jumps to any offset in O(log n),
  so chunk *k* draws exactly the doubles the monolithic pass would have
  used for edges ``[k*chunk, (k+1)*chunk)``. Concatenating chunks of
  *any* size reproduces ``rmat_edges`` byte for byte — there is no
  canonical chunking baked into the output.
* **O(vertices) resident state.** A chunk needs the level jitters
  (re-derived per chunk, 4 doubles each) and the final vertex
  permutation (O(V), shared across chunks) — never an O(edges) array.

The chunk produced here is the raw Graph500 block: duplicates and self
loops included, vertex ids permuted. Deduplication, symmetrization and
CSR construction happen downstream in the external-sort pass
(:func:`repro.graph.sharded.build_sharded_csr`).
"""

from __future__ import annotations

import numpy as np

from ..graph import EdgeList
from .rmat import RMATParams, check_rmat_args, descend_levels

#: Default streaming block: 2**18 edges = 4 MB of (src, dst) int64 pairs.
DEFAULT_CHUNK_EDGES = 1 << 18


class RMATStream:
    """Seeded R-MAT edge stream addressable by edge index range.

    ``RMATStream(scale, ...)`` describes the same graph as
    ``rmat_edges(scale, ...)``; :meth:`chunk` returns any contiguous
    slice of its edge list without materializing the rest.
    """

    def __init__(self, scale: int, edge_factor: int = 16,
                 params: RMATParams = None, seed: int = 0,
                 noise: float = 0.1):
        check_rmat_args(scale, edge_factor, noise)
        self.scale = scale
        self.edge_factor = edge_factor
        self.params = params or RMATParams()
        self.seed = seed
        self.noise = noise
        self.num_vertices = 1 << scale
        self.num_edges = edge_factor * self.num_vertices
        #: Doubles the monolithic pass consumes per recursion level:
        #: 4 jitter draws plus one per edge.
        self._draws_per_level = 4 + self.num_edges
        self._permutation = None

    # -- stream addressing ---------------------------------------------------

    def _generator_at(self, offset: int) -> np.random.Generator:
        """A generator positioned ``offset`` doubles into the stream.

        ``default_rng(seed)`` is ``Generator(PCG64(seed))``, and each
        ``random()`` double consumes exactly one 64-bit PCG64 output, so
        ``advance(offset)`` lands precisely where the monolithic pass
        would be after ``offset`` draws.
        """
        bitgen = np.random.PCG64(self.seed)
        if offset:
            bitgen.advance(offset)
        return np.random.Generator(bitgen)

    def permutation(self) -> np.ndarray:
        """The final vertex-id permutation (O(V); cached per stream)."""
        if self._permutation is None:
            rng = self._generator_at(self.scale * self._draws_per_level)
            self._permutation = rng.permutation(self.num_vertices)
        return self._permutation

    # -- chunk generation ----------------------------------------------------

    def chunk(self, start: int, stop: int) -> EdgeList:
        """Edges ``[start, stop)`` of the stream, permuted like the whole.

        Bit-identical to ``rmat_edges(...)`` sliced to the same range.
        """
        if not 0 <= start <= stop <= self.num_edges:
            raise ValueError(
                f"chunk [{start}, {stop}) outside [0, {self.num_edges}]")
        per_level = self._draws_per_level
        src, dst = descend_levels(
            self.scale, stop - start, self.params, self.noise,
            lambda level: (self._generator_at(level * per_level),
                           self._generator_at(level * per_level + 4 + start)))
        permutation = self.permutation()
        return EdgeList(self.num_vertices, permutation[src], permutation[dst])

    def chunks(self, chunk_edges: int = DEFAULT_CHUNK_EDGES):
        """Yield ``(index, EdgeList)`` blocks covering the whole stream."""
        if chunk_edges < 1:
            raise ValueError(f"chunk_edges must be >= 1, got {chunk_edges}")
        for index, start in enumerate(range(0, self.num_edges, chunk_edges)):
            yield index, self.chunk(start,
                                    min(start + chunk_edges, self.num_edges))

    def __repr__(self) -> str:
        return (f"RMATStream(scale={self.scale}, "
                f"edge_factor={self.edge_factor}, seed={self.seed}, "
                f"num_edges={self.num_edges})")
