"""Explain a framework's runtime the way Section 5.4 does.

Runs BFS through three very different frameworks, renders each run's
superstep timeline, and prints the bottleneck decomposition plus the
paper-style optimization advice.

Run:  python examples/bottleneck_analysis.py
"""

import numpy as np

from repro.cluster.timeline import analyze, render_timeline
from repro.datagen import rmat_graph
from repro.harness import ExperimentSpec, run


def main():
    graph = rmat_graph(scale=12, edge_factor=16, seed=4, directed=False)
    source = int(np.argmax(graph.out_degrees()))
    print(f"BFS on {graph.num_vertices:,} vertices / "
          f"{graph.num_edges:,} edges, 4 simulated nodes\n")

    for framework in ("native", "graphlab", "giraph"):
        cell = run(ExperimentSpec("bfs", framework, graph, nodes=4,
                                  scale_factor=2000.0,
                                  params={"source": source}))
        metrics = cell.metrics()
        report = analyze(metrics)
        print(f"=== {framework} "
              f"(total {metrics.total_time_s:.3f}s simulated) ===")
        print(render_timeline(metrics, width=40, max_rows=6))
        print()

    print("The three decompositions are the paper's Section 5/6 story in "
          "miniature:\n  native streams memory, GraphLab waits on its "
          "socket layer, and Giraph\n  burns fixed Hadoop superstep "
          "overhead on every BFS level.")


if __name__ == "__main__":
    main()
