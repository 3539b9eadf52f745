"""Extension study: asynchronous vs bulk-synchronous vertex scheduling.

The paper's Section 3 notes GraphLab's asynchronous execution and cites
[24]'s BSP-vs-autonomous comparison. This bench measures the autonomous
advantage directly: vertex updates needed to converge delta-PageRank.
"""

from repro.datagen import rmat_graph
from repro.frameworks.vertex.async_engine import (
    pagerank_delta_async,
    pagerank_sync_to_tolerance,
)


def compare(scale=13, tolerance=1e-6):
    graph = rmat_graph(scale, edge_factor=16, seed=41)
    _, async_stats = pagerank_delta_async(graph, tolerance=tolerance)
    _, sync_iterations, sync_updates = pagerank_sync_to_tolerance(
        graph, tolerance=tolerance
    )
    return {
        "vertices": graph.num_vertices,
        "async_updates": async_stats.updates,
        "sync_updates": sync_updates,
        "sync_iterations": sync_iterations,
        "savings": sync_updates / max(async_stats.updates, 1),
    }


def test_async_scheduling_advantage(regenerate):
    result = regenerate(compare)
    print()
    print(f"Delta-PageRank to 1e-6 on {result['vertices']:,} vertices:")
    print(f"  synchronous : {result['sync_updates']:,} vertex updates "
          f"({result['sync_iterations']} sweeps)")
    print(f"  asynchronous: {result['async_updates']:,} vertex updates")
    print(f"  -> {result['savings']:.1f}x fewer updates with priority "
          "scheduling")

    assert result["savings"] > 1.5
    assert result["async_updates"] > result["vertices"] * 0.5
