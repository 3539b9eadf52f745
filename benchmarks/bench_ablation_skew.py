"""Ablation: how much of the pain is degree skew? (the paper's premise)

"Real-world graph data follows a pattern of sparsity, that is not
uniform but highly skewed towards a few items. Implementing graph
[algorithms] on such data in a scalable manner is quite challenging."

Same vertex/edge budget, three degree structures (regular lattice,
uniform random, RMAT power-law): measure load imbalance under naive 1-D
partitioning and each structure's multi-node PageRank cost.
"""

import numpy as np

from repro.datagen import rmat_graph
from repro.datagen.uniform import erdos_renyi_graph, ring_lattice_graph
from repro.graph import gini_coefficient, partition_vertices_1d
from repro.harness import ExperimentSpec, run


def build_graphs(scale=13):
    n = 1 << scale
    rmat = rmat_graph(scale, edge_factor=8, seed=3)
    uniform = erdos_renyi_graph(n, rmat.num_edges, seed=3)
    lattice = ring_lattice_graph(n, degree=max(rmat.num_edges // n, 1))
    return {"lattice": lattice, "uniform": uniform, "rmat": rmat}


def measure(nodes=8):
    graphs = build_graphs()
    rows = {}
    for name, graph in graphs.items():
        owners = partition_vertices_1d(graph.num_vertices,
                                       nodes).owner_of_many(graph.sources())
        per_node = np.bincount(owners, minlength=nodes)
        cell = run(ExperimentSpec("pagerank", "graphlab", graph, nodes=nodes,
                                  scale_factor=2000.0,
                                  params={"iterations": 3}))
        rows[name] = {
            "edges": graph.num_edges,
            "gini": gini_coefficient(graph.out_degrees()),
            "imbalance": float(per_node.max() / max(per_node.mean(), 1.0)),
            "pagerank_s": cell.runtime(),
        }
    return rows


def test_skew_is_the_hard_part(regenerate):
    rows = regenerate(measure)
    print()
    print("Same edge budget, three degree structures (8 nodes, GraphLab):")
    print(f"  {'structure':<10} {'edges':>9} {'degree gini':>12} "
          f"{'1-D imbalance':>14} {'PR s/iter':>11}")
    for name, row in rows.items():
        print(f"  {name:<10} {row['edges']:>9,} {row['gini']:>12.3f} "
              f"{row['imbalance']:>14.2f} {row['pagerank_s']:>11.4f}")

    # Edge budgets comparable (within 40%).
    edges = [row["edges"] for row in rows.values()]
    assert max(edges) < 1.4 * min(edges)
    # Skew ordering: lattice (0) < uniform < rmat.
    assert rows["lattice"]["gini"] < 0.01
    assert rows["uniform"]["gini"] < rows["rmat"]["gini"]
    # Load imbalance under naive partitioning follows the skew.
    assert rows["lattice"]["imbalance"] <= rows["uniform"]["imbalance"] * 1.05
    assert rows["rmat"]["imbalance"] > rows["uniform"]["imbalance"]
