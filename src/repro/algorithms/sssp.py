"""Golden single-source shortest paths (Dijkstra) and the study weights.

The paper's datasets are unweighted, so the study derives weights
deterministically from the graph itself: a hash of each edge's
*unordered* endpoint pair, mapped to an integer in ``[1, 8]`` and
stored as float64. Unordered hashing means a symmetrized edge carries
the same weight in both directions, and integer-valued weights keep
every min-plus sum exact in float64 — which is why all five engine
families (and both kernel backends) reproduce bit-identical distances.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..graph import CSRGraph
from ..graph.csr import derived

#: Distance of vertices the source cannot reach.
UNREACHED_DIST = np.inf

#: Weights are integers in [1, WEIGHT_LEVELS].
WEIGHT_LEVELS = 8


def edge_weights_for(graph: CSRGraph) -> np.ndarray:
    """Deterministic per-edge weights aligned with ``graph.targets``.

    Graphs that carry explicit ``edge_weights`` keep them; otherwise the
    unordered-pair hash above supplies them — once per dense graph
    (:func:`~repro.graph.csr.derived`; the array is read-only).
    """
    if graph.edge_weights is not None:
        return graph.edge_weights
    return derived(graph, "hash-weights", lambda: _hash_weights(graph))


def _hash_weights(graph) -> np.ndarray:
    src = graph.sources().astype(np.uint64)
    dst = graph.targets.astype(np.uint64)
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    mix = lo * np.uint64(2654435761) + hi * np.uint64(40503) + np.uint64(97)
    mix ^= mix >> np.uint64(13)
    return 1.0 + (mix % np.uint64(WEIGHT_LEVELS)).astype(np.float64)


def sssp_reference(graph: CSRGraph, source: int = 0,
                   weights: np.ndarray = None) -> np.ndarray:
    """Dijkstra over out-edges; ``inf`` marks unreachable vertices."""
    if not 0 <= source < graph.num_vertices:
        raise ValueError(f"source {source} out of range")
    if weights is None:
        weights = edge_weights_for(graph)
    distances = np.full(graph.num_vertices, UNREACHED_DIST, dtype=np.float64)
    distances[source] = 0.0
    heap = [(0.0, source)]
    offsets, targets = graph.offsets, graph.targets
    while heap:
        dist, vertex = heapq.heappop(heap)
        if dist > distances[vertex]:
            continue
        for slot in range(int(offsets[vertex]), int(offsets[vertex + 1])):
            neighbor = int(targets[slot])
            candidate = dist + float(weights[slot])
            if candidate < distances[neighbor]:
                distances[neighbor] = candidate
                heapq.heappush(heap, (candidate, neighbor))
    return distances


def validate_sssp(graph: CSRGraph, source: int, distances: np.ndarray,
                  weights: np.ndarray = None) -> bool:
    """Check the shortest-path invariants without recomputing Dijkstra.

    Every edge (u, v) must satisfy ``d(v) <= d(u) + w`` when u is
    reached, every reached non-source vertex needs a tight predecessor
    edge (``d(v) == d(u) + w``), and ``d(source)`` must be 0.
    """
    distances = np.asarray(distances)
    if distances[source] != 0.0:
        return False
    if weights is None:
        weights = edge_weights_for(graph)
    src, dst = graph.sources(), graph.targets
    reached_edge = np.isfinite(distances[src])
    if np.any(distances[dst[reached_edge]] >
              distances[src[reached_edge]] + weights[reached_edge]):
        return False
    tight = reached_edge & (distances[dst] == distances[src] + weights)
    has_pred = np.zeros(graph.num_vertices, dtype=bool)
    has_pred[dst[tight]] = True
    reached = np.isfinite(distances)
    reached[source] = False
    return bool(np.all(has_pred[reached]))
