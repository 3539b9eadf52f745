"""Graph500 RMAT synthetic graph generator (paper Section 4.1.2).

The paper derives all of its synthetic graphs from the Graph500 RMAT
generator with three parameter sets:

* ``A=0.57, B=C=0.19`` — the Graph500 defaults, used for PageRank and BFS;
* ``A=0.45, B=C=0.15`` — fewer triangles, used for triangle counting;
* ``A=0.40, B=C=0.22`` — the starting point of the ratings generator,
  whose degree tail matches the Netflix dataset.

RMAT recursively subdivides the adjacency matrix into four quadrants and
drops each edge into quadrant A/B/C/D with the configured probabilities.
The implementation below is fully vectorized: all edges descend the
``scale`` recursion levels simultaneously, one NumPy pass per level, so
million-edge graphs generate in well under a second.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from ..errors import SpecError
from ..graph import CSRGraph, EdgeList, build_sharded_csr
from .cache import disk_cached, get_or_build_dir

#: When truthy, :func:`rmat_graph` / :func:`rmat_triangle_graph` build
#: through the streamed out-of-core pipeline instead of one in-memory
#: pass. Same seeds, same bytes (digest-tested) — only the storage and
#: the peak RSS differ, so it can be flipped under an existing sweep.
OUT_OF_CORE_ENV = "REPRO_OUT_OF_CORE"

GRAPH500_PARAMS = (0.57, 0.19, 0.19)
TRIANGLE_PARAMS = (0.45, 0.15, 0.15)
RATINGS_PARAMS = (0.40, 0.22, 0.22)


@dataclass(frozen=True)
class RMATParams:
    """Quadrant probabilities; D is implied as ``1 - A - B - C``."""

    a: float = 0.57
    b: float = 0.19
    c: float = 0.19

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.b, self.c))):
            raise ValueError("RMAT probabilities must be finite")
        if min(self.a, self.b, self.c) < 0:
            raise ValueError("RMAT probabilities must be non-negative")
        if self.a + self.b + self.c >= 1.0:
            raise ValueError("A + B + C must be < 1 (D is the remainder)")

    @property
    def d(self) -> float:
        return 1.0 - self.a - self.b - self.c


def check_rmat_args(scale: int, edge_factor: int, noise: float) -> None:
    """Refuse arguments that would descend into a degenerate graph: a NaN
    or out-of-range ``noise`` makes the quadrant cuts NaN or unordered."""
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    if edge_factor < 1:
        raise ValueError(f"edge_factor must be >= 1, got {edge_factor}")
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise must be in [0, 1], got {noise}")


def rmat_edges(scale: int, edge_factor: int = 16, params: RMATParams = None,
               seed: int = 0, noise: float = 0.1) -> EdgeList:
    """Raw RMAT edges: ``2**scale`` vertices, ``edge_factor * 2**scale`` edges.

    Mirrors the Graph500 reference generator: duplicate edges and self
    loops are *not* removed (Section 4.1.2: "The RMAT generator only
    generates a list of edges (with possible duplicates)"), and vertex
    ids are randomly permuted so vertex id does not correlate with degree.

    ``noise`` jitters the quadrant probabilities per recursion level
    (the Graph500 "smooth" tweak) to avoid artefactual degree spikes at
    powers of two.
    """
    check_rmat_args(scale, edge_factor, noise)
    params = params or RMATParams()
    rng = np.random.default_rng(seed)
    num_vertices = 1 << scale
    # One sequential stream: each level's 4 jitter draws, then its
    # per-edge draws, leave ``rng`` at the next level.
    src, dst = descend_levels(scale, edge_factor * num_vertices, params,
                              noise, lambda level: (rng, rng))
    permutation = rng.permutation(num_vertices)
    return EdgeList(num_vertices, permutation[src], permutation[dst])


def descend_levels(scale: int, count: int, params: RMATParams, noise: float,
                   generators):
    """Drop ``count`` edges down the ``scale`` recursion levels at once.

    ``generators(level)`` returns two generators: one positioned at the
    level's 4 jitter draws, one at the first of its ``count`` per-edge
    draws (the same object when the stream is consumed in order). The
    PCG64 layout is the contract :class:`~repro.datagen.stream.RMATStream`
    slices, so it is fixed: per level, 4 doubles then one per edge.

    Returns the unpermuted ``(src, dst)`` ids, most significant bit
    (level 0) first, in the narrowest unsigned lanes that hold them
    (``uint32`` up to scale 32). Nothing is allocated per level: the
    comparisons write into two bool buffers and the bits shift in place.
    """
    base = np.array([params.a, params.b, params.c, params.d])
    lane = np.uint32 if scale <= 32 else np.uint64
    src = np.zeros(count, dtype=lane)
    dst = np.zeros(count, dtype=lane)
    draw = np.empty(count)
    src_bit = np.empty(count, dtype=bool)
    dst_bit = np.empty(count, dtype=bool)
    for level in range(scale):
        jitter_rng, draw_rng = generators(level)
        # Jitter probabilities per level, renormalized to sum to 1.
        probs = base * (1.0 + noise * (2.0 * jitter_rng.random(4) - 1.0))
        probs /= probs.sum()
        a, ab, abc = np.cumsum(probs)[:3]
        draw_rng.random(out=draw)
        # Quadrants in draw order are A | B | C | D, cut at a, a+b and
        # a+b+c: the src bit is set in C and D, the dst bit in B and D,
        # i.e. dst_bit = ((draw > a) ^ src_bit) | (draw > abc).
        np.greater(draw, ab, out=src_bit)
        np.greater(draw, a, out=dst_bit)
        dst_bit ^= src_bit
        src <<= 1
        src |= src_bit
        np.greater(draw, abc, out=src_bit)
        dst_bit |= src_bit
        dst <<= 1
        dst |= dst_bit
    return src, dst


def out_of_core_enabled() -> bool:
    return os.environ.get(OUT_OF_CORE_ENV, "").lower() \
        in ("1", "on", "true", "yes")


def check_shard_args(chunk_edges: int, memory_budget_mb: float) -> None:
    """Refuse a streamed build's chunking or working-set cap before any
    edge is drawn."""
    if chunk_edges < 1:
        raise SpecError(f"chunk_edges must be >= 1, got {chunk_edges}")
    if memory_budget_mb is not None and not (
            math.isfinite(memory_budget_mb) and memory_budget_mb > 0):
        raise SpecError("memory_budget_mb must be finite and > 0, got "
                        f"{memory_budget_mb}")


def _rmat_csr(rmat, flags, shard=None):
    """The one path from a seed to a CSR graph, in either storage.

    ``rmat`` is the :func:`rmat_edges` argument tuple and ``flags`` the
    Section 4.1.2 preprocessing, in the one vocabulary
    ``CSRGraph.from_edges`` and ``build_sharded_csr`` share — which is
    what makes the two storages byte-identical. Dense by default;
    ``shard = (generator, chunk_edges, num_partitions,
    memory_budget_mb)`` streams the same edges chunk by chunk into a
    cached sharded directory instead: peak memory is one chunk plus one
    partition's spill, and ``memory_budget_mb`` is a runtime working-set
    knob on the returned handle, not part of the dataset identity.
    """
    if shard is None:
        return CSRGraph.from_edges(rmat_edges(*rmat), deduplicate=True,
                                   **flags)
    from .stream import RMATStream

    generator, chunk_edges, num_partitions, memory_budget_mb = shard
    check_shard_args(chunk_edges, memory_budget_mb)
    stream = RMATStream(*rmat)
    if num_partitions is None:
        # ~8 MB of target ids a partition: the finalize pass's transient
        # (spilled keys, their distinct values, then rows and targets)
        # runs ~3x that, so the build peaks near 24 MB at any scale.
        approx_bytes = stream.num_edges * 8 * (
            2 if flags.get("symmetrize") else 1)
        num_partitions = int(max(1, min(stream.num_vertices,
                                        -(-approx_bytes // (8 << 20)))))

    def build_into(tmp):
        build_sharded_csr((block for _, block in stream.chunks(chunk_edges)),
                          stream.num_vertices, tmp,
                          num_partitions=num_partitions, **flags)

    # Everything that decides a byte of the entry, and nothing else.
    identity = {"rmat": rmat, "flags": flags, "chunk_edges": chunk_edges,
                "num_partitions": num_partitions}
    graph = get_or_build_dir(generator, identity, build_into)
    if memory_budget_mb is not None:
        graph.memory_budget_mb = memory_budget_mb
    return graph


def _graph_recipe(scale, edge_factor, params, seed, directed):
    """``rmat_graph``, stated once for both storages: ``(rmat, flags)``."""
    return ((scale, edge_factor, params or RMATParams(), seed),
            {"drop_self_loops": True, "symmetrize": not directed})


@disk_cached("rmat_graph")
def _rmat_graph_dense(scale: int, edge_factor: int = 16,
                      params: RMATParams = None, seed: int = 0,
                      directed: bool = True) -> CSRGraph:
    return _rmat_csr(*_graph_recipe(scale, edge_factor, params, seed,
                                    directed))


def rmat_graph(scale: int, edge_factor: int = 16, params: RMATParams = None,
               seed: int = 0, directed: bool = True):
    """Deduplicated, loop-free CSR graph from RMAT edges.

    ``directed=True`` keeps the generated direction (PageRank input);
    ``directed=False`` symmetrizes (BFS input). With
    ``REPRO_OUT_OF_CORE`` set, the same graph comes back as a
    byte-identical :class:`~repro.graph.ShardedCSRGraph` built through
    the streamed pipeline.
    """
    if out_of_core_enabled():
        return rmat_graph_sharded(scale, edge_factor, params, seed,
                                  directed=directed)
    return _rmat_graph_dense(scale, edge_factor, params, seed, directed)


rmat_graph.__wrapped__ = _rmat_graph_dense.__wrapped__


def rmat_graph_sharded(scale: int, edge_factor: int = 16,
                       params: RMATParams = None, seed: int = 0,
                       directed: bool = True,
                       chunk_edges: int = 1 << 18,
                       num_partitions: int = None,
                       memory_budget_mb: float = None):
    """The :func:`rmat_graph` dataset as a partitioned on-disk CSR."""
    return _rmat_csr(
        *_graph_recipe(scale, edge_factor, params, seed, directed),
        ("rmat_graph_sharded", chunk_edges, num_partitions, memory_budget_mb))


def _triangle_recipe(scale, edge_factor, seed):
    """``rmat_triangle_graph``, stated once: ``(rmat, flags)``."""
    return ((scale, edge_factor, RMATParams(*TRIANGLE_PARAMS), seed),
            {"orient_by_id": True})


@disk_cached("rmat_triangle_graph")
def _rmat_triangle_graph_dense(scale: int, edge_factor: int = 16,
                               seed: int = 0) -> CSRGraph:
    return _rmat_csr(*_triangle_recipe(scale, edge_factor, seed))


def rmat_triangle_graph(scale: int, edge_factor: int = 16, seed: int = 0):
    """Triangle-counting input exactly as the paper prepares it.

    Uses the reduced-triangle parameters (A=0.45, B=C=0.15) and assigns
    "a direction to edges going from the vertex with smaller id to one
    with larger id to avoid cycles" (Section 4.1.2).
    """
    if out_of_core_enabled():
        return rmat_triangle_graph_sharded(scale, edge_factor, seed)
    return _rmat_triangle_graph_dense(scale, edge_factor, seed)


rmat_triangle_graph.__wrapped__ = _rmat_triangle_graph_dense.__wrapped__


def rmat_triangle_graph_sharded(scale: int, edge_factor: int = 16,
                                seed: int = 0,
                                chunk_edges: int = 1 << 18,
                                num_partitions: int = None,
                                memory_budget_mb: float = None):
    """The :func:`rmat_triangle_graph` dataset as a sharded CSR."""
    return _rmat_csr(
        *_triangle_recipe(scale, edge_factor, seed),
        ("rmat_triangle_graph_sharded", chunk_edges, num_partitions,
         memory_budget_mb))
