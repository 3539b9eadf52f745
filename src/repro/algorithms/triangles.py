"""Golden triangle-counting reference (equation 3 of the paper).

``N_triangles = sum_{i<j<k} E_ij & E_jk & E_ik`` — counted here by
per-edge sorted-set intersection on an id-oriented graph, the direct
transliteration of the paper's Algorithm 4. Quadratic-ish and intended
as a test oracle; the engines use faster equivalents.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphFormatError
from ..graph import CSRGraph


def require_oriented(graph: CSRGraph) -> None:
    """Raise unless every edge goes from a smaller to a larger id."""
    if graph.num_edges and not np.all(graph.sources() < graph.targets):
        raise GraphFormatError(
            "triangle counting expects an id-oriented graph "
            "(EdgeList.orient_by_id)"
        )


def triangle_count_reference(graph: CSRGraph) -> int:
    """Exact triangle count of an id-oriented graph."""
    require_oriented(graph)
    total = 0
    for u in range(graph.num_vertices):
        neighbors_u = graph.neighbors(u)
        for v in neighbors_u:
            neighbors_v = graph.neighbors(int(v))
            total += int(np.intersect1d(neighbors_u, neighbors_v,
                                        assume_unique=True).size)
    return total


def per_vertex_triangles(graph: CSRGraph) -> np.ndarray:
    """Triangles each vertex closes as the smallest id (diagnostics)."""
    require_oriented(graph)
    counts = np.zeros(graph.num_vertices, dtype=np.int64)
    for u in range(graph.num_vertices):
        neighbors_u = graph.neighbors(u)
        for v in neighbors_u:
            neighbors_v = graph.neighbors(int(v))
            counts[u] += int(np.intersect1d(neighbors_u, neighbors_v,
                                            assume_unique=True).size)
    return counts
