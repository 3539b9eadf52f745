"""Golden triangle-counting reference (equation 3 of the paper).

``N_triangles = sum_{i<j<k} E_ij & E_jk & E_ik`` — counted here by
per-edge sorted-set intersection on an id-oriented graph, the direct
transliteration of the paper's Algorithm 4. Quadratic-ish and intended
as a test oracle; the engines use faster equivalents.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphFormatError
from ..graph import CSRGraph, count_triangles_exact


def require_oriented(graph: CSRGraph) -> None:
    """Raise unless the graph is simple and id-oriented.

    Every edge must go from a smaller to a larger id, and each row's
    targets must strictly ascend — an edge stored twice would be counted
    twice by a product and break the unique-set intersections below.
    The one input check of triangle counting, on every framework.
    """
    if not graph.num_edges:
        return
    sources, targets = graph.sources(), graph.targets
    if not (np.all(sources < targets)
            and np.all((targets[1:] > targets[:-1])
                       | (sources[1:] != sources[:-1]))):
        raise GraphFormatError(
            "triangle counting expects a simple id-oriented graph "
            "(EdgeList.orient_by_id, deduplicated)"
        )


def triangle_count_reference(graph: CSRGraph) -> int:
    """Exact triangle count of a simple id-oriented graph."""
    require_oriented(graph)
    return count_triangles_exact(graph)


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
