"""Ablation: sender-side message combining in the vertex engine.

GraphLab/CombBLAS "perform a limited form of compression that takes
advantage of local reductions to avoid repeated communication of the
same vertex data" (Section 6.1.1); Giraph's lack of it is a roadmap item
(Section 6.2). This bench measures the wire-byte effect directly.
"""

import numpy as np

from repro.cluster import Cluster, paper_cluster
from repro.datagen import rmat_graph
from repro.frameworks.base import GRAPHLAB
from repro.frameworks.vertex import BSPEngine


def measure(nodes=8):
    graph = rmat_graph(scale=13, edge_factor=16, seed=17)
    engine = BSPEngine(graph, Cluster(paper_cluster(nodes)), GRAPHLAB, "1d")
    senders = np.arange(graph.num_vertices)
    combined = engine.edge_messages(senders, 8.0, combine=True)
    raw = engine.edge_messages(senders, 8.0, combine=False)
    return {
        "messages_combined": combined.messages,
        "messages_raw": raw.messages,
        "bytes_combined": float(combined.traffic.sum()),
        "bytes_raw": float(raw.traffic.sum()),
        "edges": graph.num_edges,
    }


def test_combiner_reduces_wire_bytes(regenerate):
    result = regenerate(measure)
    reduction = result["bytes_raw"] / result["bytes_combined"]
    print()
    print(f"PageRank-style exchange over {result['edges']} edges, 8 nodes:")
    print(f"  without combiner: {result['messages_raw']:.0f} messages, "
          f"{result['bytes_raw']:.0f} B")
    print(f"  with combiner:    {result['messages_combined']:.0f} messages, "
          f"{result['bytes_combined']:.0f} B")
    print(f"  reduction: {reduction:.2f}x")

    assert result["messages_combined"] < result["messages_raw"]
    assert reduction > 1.1
    # Uncombined message count equals the edge count (one per edge).
    assert result["messages_raw"] == result["edges"]
