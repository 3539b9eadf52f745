"""Regenerators for the paper's Tables 1-7.

Each ``tableN()`` returns plain data (dicts / lists of rows) that
``repro.harness.report`` renders in the paper's format; the repo's
paper-shape suite drives these and asserts the paper's invariants.
"""

from __future__ import annotations

import numpy as np

from ..algorithms.registry import ALGORITHMS
from ..datagen import CATALOG
from ..frameworks.base import PROFILES
from .datasets import single_node_graph
from .runner import run_cell
from .sweep import Sweep, sweep_cell

#: Frameworks of the headline comparison, in the paper's column order.
TABLE_FRAMEWORKS = ("combblas", "graphlab", "socialite", "giraph", "galois")
MULTI_NODE_FRAMEWORKS = ("combblas", "graphlab", "socialite", "giraph")

#: Single-node datasets per algorithm (paper Figure 3 panels).
SINGLE_NODE_DATASETS = {
    algorithm: ("netflix", "synthetic")
    if algorithm == "collaborative_filtering"
    else ("livejournal", "facebook", "wikipedia", "synthetic")
    for algorithm in ALGORITHMS
}


def _geomean(values) -> float:
    values = [v for v in values if v is not None and np.isfinite(v)]
    if not values:
        return float("nan")
    return float(np.exp(np.mean(np.log(values))))


def single_node_cells(algorithms, frameworks) -> list:
    """Figure 3 / Table 5 cell keys (one node, per-algorithm datasets)."""
    return [
        {"algorithm": algorithm, "dataset": dataset_name, "framework": name}
        for algorithm in algorithms
        for dataset_name in SINGLE_NODE_DATASETS[algorithm]
        for name in frameworks
    ]


def weak_scaling_cells(algorithms, node_counts, frameworks) -> list:
    """Figure 4 / Table 6 cell keys (weak-scaling points)."""
    return [
        {"algorithm": algorithm, "nodes": nodes, "framework": name}
        for algorithm in algorithms
        for nodes in node_counts
        for name in frameworks
    ]


def _slowdown_table(result, algorithms, frameworks, axis: str,
                    axis_values) -> dict:
    """Assemble a Table 5/6 payload from sweep cell records.

    ``axis`` is the inner enumeration field (``dataset`` or ``nodes``);
    slowdowns geomean over the axis points where both the framework and
    the native baseline completed, and every cell's status is reported
    so DNF cells stay visible, as in the paper.
    """
    out = {}
    for algorithm in algorithms:
        per_framework = {name: [] for name in frameworks}
        statuses = {name: [] for name in frameworks}
        for value in axis_values(algorithm):
            baseline = result.get(algorithm=algorithm, framework="native",
                                  **{axis: value}).runtime()
            for name in frameworks:
                record = result.get(algorithm=algorithm, framework=name,
                                    **{axis: value})
                statuses[name].append(record.status)
                if record.ok and baseline is not None:
                    per_framework[name].append(record.runtime() / baseline)
        out[algorithm] = {
            name: {
                "slowdown": _geomean(per_framework[name]),
                "statuses": statuses[name],
            }
            for name in frameworks
        }
    return out


# ---------------------------------------------------------------------------
# Table 1 — algorithm characteristics.
# ---------------------------------------------------------------------------

def table1(hidden_dim: int = 1024) -> list:
    """Measured/structural characteristics of the four algorithms.

    Message sizes are measured from the vertex-programming engine's
    actual exchanges; the rest mirrors the algorithms' definitions.
    ``hidden_dim`` defaults to the paper's effective K (8 KB messages).
    """
    graph = single_node_graph("rmat_mini", "pagerank")
    bfs_result = run_cell({"algorithm": "bfs", "framework": "native",
                           "dataset": "rmat_mini"})
    frontier = bfs_result.result.extras["frontier_sizes"]
    reached = bfs_result.result.extras["reached"]
    partial_active = any(size < reached for size in frontier[:-1])

    rows = [
        {
            "algorithm": "PageRank",
            "graph_type": "Directed, unweighted edges",
            "vertex_property": "Double (pagerank)",
            "access_pattern": "Streaming",
            "message_bytes_per_edge": 8,
            "vertex_active": "All iterations",
        },
        {
            "algorithm": "Breadth First Search",
            "graph_type": "Undirected, unweighted edges",
            "vertex_property": "Int (distance)",
            "access_pattern": "Random",
            "message_bytes_per_edge": 4,
            "vertex_active": "Some iterations" if partial_active else
                             "All iterations",
        },
        {
            "algorithm": "Collaborative Filtering",
            "graph_type": "Bipartite graph; Undirected, weighted edges",
            "vertex_property": "Array of Doubles (pu or qv)",
            "access_pattern": "Streaming",
            "message_bytes_per_edge": 8 * hidden_dim,
            "vertex_active": "All iterations",
        },
        {
            "algorithm": "Triangle Counting",
            "graph_type": "Directed, unweighted edges",
            "vertex_property": "Long (Ntriangles)",
            "access_pattern": "Streaming",
            "message_bytes_per_edge":
                (0, int(8 * graph.out_degrees().max())),
            "vertex_active": "Non-iterative",
        },
    ]
    return rows


# ---------------------------------------------------------------------------
# Table 2 — framework feature matrix.
# ---------------------------------------------------------------------------

def table2() -> list:
    """The high-level framework comparison, straight from the profiles."""
    order = ("native", "graphlab", "combblas", "socialite", "galois",
             "giraph")
    rows = []
    for name in order:
        profile = PROFILES[name]
        rows.append({
            "framework": profile.display_name,
            "programming_model": profile.model,
            "multi_node": profile.multinode,
            "language": profile.language,
            "graph_partitioning": profile.partitioning,
            "communication_layer": profile.comm_layer.name,
        })
    return rows


# ---------------------------------------------------------------------------
# Table 3 — datasets.
# ---------------------------------------------------------------------------

def table3() -> list:
    """Paper dataset inventory next to the generated proxies."""
    rows = []
    for name, spec in CATALOG.items():
        if name.startswith("rmat_mini"):
            continue
        proxy = spec.build()
        if spec.kind == "ratings":
            proxy_size = f"{proxy.num_users} users x {proxy.num_items} items"
            proxy_edges = proxy.num_ratings
        else:
            proxy_size = f"{proxy.num_vertices} vertices"
            proxy_edges = proxy.num_edges
        rows.append({
            "dataset": name,
            "paper_vertices": spec.paper_vertices,
            "paper_edges": spec.paper_edges,
            "proxy_size": proxy_size,
            "proxy_edges": proxy_edges,
            "description": spec.description,
        })
    return rows


# ---------------------------------------------------------------------------
# Table 4 — native efficiency vs hardware limits.
# ---------------------------------------------------------------------------

def table4() -> dict:
    """Native bound-by classification and achieved bandwidths, 1 & 4 nodes."""
    from ..cluster import PAPER_NODE

    out = {}
    for algorithm in ALGORITHMS:
        out[algorithm] = {}
        for nodes in (1, 4):
            metrics = run_cell({"algorithm": algorithm, "nodes": nodes,
                                "framework": "native"}).metrics()
            bound = metrics.bound_by()
            if bound == "memory":
                achieved = metrics.achieved_memory_bandwidth
                limit = PAPER_NODE.stream_bandwidth
            else:
                achieved = metrics.average_network_bandwidth
                limit = PAPER_NODE.link_bandwidth
            out[algorithm][nodes] = {
                "bound_by": bound,
                "achieved_gbps": achieved / 1e9,
                "efficiency": achieved / limit,
                "network_fraction": metrics.network_fraction,
            }
    return out


# ---------------------------------------------------------------------------
# Tables 5 / 6 — single and multi node slowdowns.
# ---------------------------------------------------------------------------

def table5(frameworks=TABLE_FRAMEWORKS, algorithms=ALGORITHMS,
           sweep: Sweep = None) -> dict:
    """Single-node slowdowns vs native, geomean over the Figure 3 datasets.

    All cells (including the native baselines) run through the
    resilient sweep engine; pass ``sweep=Sweep(..., journal=...)`` for a
    durable, resumable regeneration with per-cell deadlines. The
    default is a plain in-memory sweep with identical output.
    """
    frameworks = tuple(frameworks)
    algorithms = tuple(algorithms)
    engine = sweep if sweep is not None else Sweep("table5")
    # The native baseline is always swept; asking for it explicitly
    # must not enumerate the cell twice.
    swept = ("native",) + tuple(f for f in frameworks if f != "native")
    result = engine.run(single_node_cells(algorithms, swept), sweep_cell)
    return _slowdown_table(result, algorithms, frameworks, "dataset",
                           lambda algorithm: SINGLE_NODE_DATASETS[algorithm])


def table6(frameworks=MULTI_NODE_FRAMEWORKS, algorithms=ALGORITHMS,
           node_counts=(4, 16), sweep: Sweep = None) -> dict:
    """Multi-node slowdowns vs native, geomean over weak-scaling points.

    Sweep-routed like :func:`table5`.
    """
    frameworks = tuple(frameworks)
    algorithms = tuple(algorithms)
    engine = sweep if sweep is not None else Sweep("table6")
    swept = ("native",) + tuple(f for f in frameworks if f != "native")
    result = engine.run(weak_scaling_cells(algorithms, node_counts, swept),
                        sweep_cell)
    return _slowdown_table(result, algorithms, frameworks, "nodes",
                           lambda _algorithm: node_counts)


# ---------------------------------------------------------------------------
# Table 7 — SociaLite network optimizations.
# ---------------------------------------------------------------------------

def table7(nodes: int = 4) -> dict:
    """Before/after the Section 6.1.3 SociaLite network fix, 4 nodes."""
    out = {}
    for algorithm in ("pagerank", "triangle_counting"):
        before, after = (
            run_cell({"algorithm": algorithm, "nodes": nodes,
                      "framework": name}).runtime()
            for name in ("socialite-published", "socialite"))
        out[algorithm] = {"before_s": before, "after_s": after,
                          "speedup": before / after}
    return out
