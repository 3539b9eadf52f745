"""Quickstart: run one algorithm on one framework and read the results.

Generates a Graph500 RMAT graph, runs PageRank through the native
implementation and through GraphLab's vertex-programming engine on a
simulated 4-node cluster, verifies the two agree, and prints the
runtime/metrics the study is built on.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.datagen import rmat_graph
from repro.harness import ExperimentSpec, run


def main():
    print("Generating a Graph500 RMAT graph (scale 14, edge factor 16)...")
    graph = rmat_graph(scale=14, edge_factor=16, seed=42)
    print(f"  {graph.num_vertices:,} vertices, {graph.num_edges:,} edges\n")

    # scale_factor extrapolates the counted work to a paper-sized run
    # (here: pretend the graph were 500x larger).
    results = {}
    for framework in ("native", "graphlab"):
        result = run(ExperimentSpec("pagerank", framework, graph, nodes=4,
                                    scale_factor=500.0,
                                    params={"iterations": 10}))
        results[framework] = result
        metrics = result.metrics()
        print(f"{framework}:")
        print(f"  time per iteration : {result.runtime():.4f} s (simulated)")
        print(f"  CPU utilization    : {100 * metrics.cpu_utilization:.0f}%")
        print(f"  bytes sent per node: "
              f"{metrics.bytes_sent_per_node / 1e6:.1f} MB")
        print(f"  peak network rate  : "
              f"{metrics.peak_network_bandwidth / 1e9:.2f} GB/s")
        print(f"  memory footprint   : "
              f"{metrics.memory_footprint_bytes / 2**30:.2f} GiB/node\n")

    native_ranks = results["native"].result.values
    graphlab_ranks = results["graphlab"].result.values
    np.testing.assert_allclose(native_ranks, graphlab_ranks, rtol=1e-10)
    print("Both engines computed identical PageRank vectors.")
    top = np.argsort(native_ranks)[-5:][::-1]
    print("Top-5 vertices by rank:", ", ".join(
        f"v{v} ({native_ranks[v]:.1f})" for v in top
    ))
    slowdown = results["graphlab"].runtime() / results["native"].runtime()
    print(f"\nGraphLab is {slowdown:.1f}x slower than native here "
          f"(the paper's Table 5 reports 3.6x geomean).")


if __name__ == "__main__":
    main()
