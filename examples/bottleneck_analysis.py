"""Explain a framework's runtime the way Section 5.4 does.

Runs BFS through three very different frameworks and renders each run's
superstep timeline, footed by its exact compute / exposed-comm / fixed
split, what bound it and the paper-style optimization advice.

Run:  python examples/bottleneck_analysis.py
"""

import numpy as np

from repro.datagen import rmat_graph
from repro.harness import ExperimentSpec, run
from repro.perf import render_timeline


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
        print(f"=== {framework} "
              f"(total {metrics.total_time_s:.3f}s simulated) ===")
        print(render_timeline(metrics, width=40, max_rows=6))
        print()

    print("The three footers are the paper's Section 5/6 story in "
          "miniature:\n  native streams memory with no communication "
          "exposed; GraphLab is memory bound\n  too, but pays per-step "
          "overhead and some exposed socket traffic on top; and\n  Giraph "
          "burns so much fixed Hadoop superstep overhead on every BFS "
          "level\n  that latency binds it.")


if __name__ == "__main__":
    main()
