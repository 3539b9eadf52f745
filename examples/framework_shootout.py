"""Framework shootout: a miniature of the paper's Table 5 on your data.

Runs all four workloads through all six frameworks on a single simulated
node and prints the slowdown-vs-native matrix — the "maze" an end-user
navigates when picking a framework.

Run:  python examples/framework_shootout.py [scale]
"""

import sys

from repro.datagen import netflix_like_ratings, rmat_graph, rmat_triangle_graph
from repro.harness import ExperimentSpec, run

FRAMEWORKS = ("native", "combblas", "graphlab", "socialite", "giraph",
              "galois")


def main(scale: int = 12):
    datasets = {
        "pagerank": rmat_graph(scale, edge_factor=16, seed=1),
        "bfs": rmat_graph(scale, edge_factor=16, seed=1, directed=False),
        "triangle_counting": rmat_triangle_graph(scale, edge_factor=12,
                                                 seed=2),
        "collaborative_filtering": netflix_like_ratings(scale,
                                                        num_items=256,
                                                        seed=3),
    }
    params = {
        "pagerank": {"iterations": 5},
        "bfs": {},
        "triangle_counting": {},
        "collaborative_filtering": {"iterations": 2, "hidden_dim": 32},
    }

    header = "algorithm".ljust(26) + "".join(f.rjust(11) for f in FRAMEWORKS)
    print(header)
    print("-" * len(header))
    for algorithm, data in datasets.items():
        baseline = None
        row = algorithm.ljust(26)
        for framework in FRAMEWORKS:
            result = run(ExperimentSpec(algorithm, framework, data, nodes=1,
                                        scale_factor=2000.0,
                                        params=params[algorithm]))
            if not result.ok:
                row += result.status[:10].rjust(11)
                continue
            if baseline is None:
                baseline = result.runtime()
                row += f"{baseline:.3g}s".rjust(11)
            else:
                row += f"{result.runtime() / baseline:.1f}x".rjust(11)
        print(row)
    print("\n(native column is absolute simulated seconds; other columns "
          "are slowdowns vs native)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 12)
