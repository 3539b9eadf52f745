"""Strong-scaling study: a natural extension of the paper's Figure 4.

The paper measures *weak* scaling (data grows with the cluster). The
complementary question a deployer asks — "my graph is fixed; do more
nodes help?" — is strong scaling: the same dataset on 1..P nodes, where
perfect behaviour is runtime ~ 1/P and every framework eventually bends
away as fixed costs (supersteps, latency) and communication take over.
"""

from __future__ import annotations

from ..datagen import rmat_graph, rmat_triangle_graph
from .runner import run
from .spec import ExperimentSpec


def strong_scaling(algorithm: str = "pagerank",
                   frameworks=("native", "combblas", "graphlab",
                               "socialite", "giraph"),
                   node_counts=(1, 2, 4, 8, 16), scale: int = 14,
                   scale_factor: float = 2000.0, seed: int = 31) -> dict:
    """Fixed dataset, varying node counts.

    Returns ``{framework: {nodes: seconds | status}}`` plus a
    ``"speedup"`` entry per framework (runtime(1 node) / runtime(n)).
    """
    if algorithm == "triangle_counting":
        graph = rmat_triangle_graph(scale, edge_factor=8, seed=seed)
    else:
        graph = rmat_graph(scale, edge_factor=16, seed=seed,
                           directed=algorithm == "pagerank")
    out = {}
    for framework in frameworks:
        curve = {}
        for nodes in node_counts:
            cell = run(ExperimentSpec(algorithm, framework, graph,
                                      nodes=nodes,
                                      scale_factor=scale_factor))
            curve[nodes] = cell.runtime() if cell.ok else cell.status
        out[framework] = curve
    return out


def parallel_efficiency(curve: dict) -> dict:
    """Speedup / node-count per point (1.0 = perfect strong scaling)."""
    completed = {n: t for n, t in curve.items() if isinstance(t, float)}
    if not completed:
        return {}
    base_nodes = min(completed)
    base = completed[base_nodes]
    return {
        nodes: (base / t) / (nodes / base_nodes)
        for nodes, t in completed.items()
    }
