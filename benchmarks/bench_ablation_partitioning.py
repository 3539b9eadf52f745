"""Ablation: partitioning schemes (Section 6.1.1's load-balance claim).

"2D partitioning as in CombBLAS or advanced 1D partitioning such as
GraphLab gives better load balancing."
"""

import numpy as np

from repro.datagen import rmat_graph
from repro.graph import (
    partition_edges_1d,
    partition_vertex_cut,
    partition_vertices_1d,
)


def measure_balance(nodes=8, scale=13):
    graph = rmat_graph(scale=scale, edge_factor=16, seed=7)
    src_owner_naive = partition_vertices_1d(
        graph.num_vertices, nodes).owner_of_many(graph.sources())
    naive = np.bincount(src_owner_naive, minlength=nodes)

    part = partition_edges_1d(graph, nodes)
    balanced = np.bincount(part.owner_of_many(graph.sources()),
                           minlength=nodes)

    cut = partition_vertex_cut(graph, nodes)
    vertex_cut = cut.edges_per_part()

    def imbalance(counts):
        return float(counts.max() / max(counts.mean(), 1.0))

    return {
        "1d-vertex": imbalance(naive),
        "1d-edge-balanced": imbalance(balanced),
        "vertex-cut": imbalance(vertex_cut),
        "replication_factor": cut.replication_factor(),
    }


def test_partitioning_balance(regenerate):
    result = regenerate(measure_balance)
    print()
    print("Edge-count imbalance (max node / mean node) on RMAT:")
    for scheme in ("1d-vertex", "1d-edge-balanced", "vertex-cut"):
        print(f"  {scheme:<18} {result[scheme]:.3f}")
    print(f"  vertex-cut replication factor: "
          f"{result['replication_factor']:.2f}")

    # Edge-balanced and vertex-cut layouts beat naive vertex splitting.
    assert result["1d-edge-balanced"] < result["1d-vertex"]
    assert result["vertex-cut"] < result["1d-vertex"]
    # Replication is the vertex cut's price.
    assert result["replication_factor"] >= 1.0
