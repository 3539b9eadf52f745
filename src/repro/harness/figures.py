"""Regenerators for the paper's Figures 3-7 (as data series).

Each ``figureN()`` returns the plotted series as nested dicts — the same
rows/series the paper's charts show — which ``repro.harness.report``
renders as text and the benchmark modules assert shape invariants on.
"""

from __future__ import annotations

from ..algorithms.registry import ALGORITHMS
from ..frameworks.native import FIGURE7_LADDER
from .datasets import single_node_ratings
from .runner import run_cell
from .sweep import Sweep, sweep_cell
from .tables import (
    MULTI_NODE_FRAMEWORKS,
    SINGLE_NODE_DATASETS,
    TABLE_FRAMEWORKS,
    single_node_cells,
    weak_scaling_cells,
)

ALL_FRAMEWORKS = ("native",) + TABLE_FRAMEWORKS
MULTI_FRAMEWORKS = ("native",) + MULTI_NODE_FRAMEWORKS


def _plotted(record):
    """A cell as the figures plot it: seconds, or the DNF status."""
    return record.runtime() if record.ok else record.status


def figure3(frameworks=ALL_FRAMEWORKS, algorithms=ALGORITHMS,
            sweep: Sweep = None) -> dict:
    """Single-node runtimes per dataset (4 panels).

    Returns ``{algorithm: {dataset: {framework: seconds | status}}}``.
    Sweep-routed: pass ``sweep=Sweep(..., journal=...)`` for a durable,
    resumable regeneration.
    """
    engine = sweep if sweep is not None else Sweep("figure3")
    result = engine.run(single_node_cells(algorithms, frameworks),
                        sweep_cell)
    return {
        algorithm: {
            dataset_name: {
                name: _plotted(result.get(algorithm=algorithm,
                                          dataset=dataset_name,
                                          framework=name))
                for name in frameworks}
            for dataset_name in SINGLE_NODE_DATASETS[algorithm]}
        for algorithm in algorithms
    }


def figure4(frameworks=MULTI_FRAMEWORKS, algorithms=ALGORITHMS,
            node_counts=(1, 2, 4, 8, 16, 32, 64), sweep: Sweep = None) -> dict:
    """Weak-scaling curves (4 panels).

    Returns ``{algorithm: {framework: {nodes: seconds | status}}}``.
    Horizontal curves = perfect weak scaling, as in the paper.
    Sweep-routed like :func:`figure3`.
    """
    engine = sweep if sweep is not None else Sweep("figure4")
    result = engine.run(
        weak_scaling_cells(algorithms, node_counts, frameworks), sweep_cell)
    return {
        algorithm: {
            name: {nodes: _plotted(result.get(algorithm=algorithm,
                                              nodes=nodes, framework=name))
                   for nodes in node_counts}
            for name in frameworks}
        for algorithm in algorithms
    }


#: Figure 5 configuration: dataset + node count per algorithm.
FIGURE5_CONFIG = {
    "pagerank": ("twitter", 4),
    "bfs": ("twitter", 4),
    "collaborative_filtering": ("yahoo_music", 4),
    "triangle_counting": ("twitter", 16),
}


def figure5(frameworks=MULTI_FRAMEWORKS, sweep: Sweep = None) -> dict:
    """Large real-world proxies on multiple nodes.

    Twitter for PageRank/BFS (4 nodes) and triangle counting (16 nodes —
    "required 16 nodes to complete", Section 4.1.1); Yahoo Music for
    collaborative filtering (4 nodes). CombBLAS's triangle-counting OOM
    on Twitter surfaces as an ``out-of-memory`` status, as in the paper.
    Sweep-routed like :func:`figure3`.
    """
    engine = sweep if sweep is not None else Sweep("figure5")
    cells = [
        {"algorithm": algorithm, "dataset": dataset_name, "nodes": nodes,
         "framework": name}
        for algorithm, (dataset_name, nodes) in FIGURE5_CONFIG.items()
        for name in frameworks
    ]
    result = engine.run(cells, sweep_cell)
    return {
        algorithm: {
            "dataset": dataset_name, "nodes": nodes,
            "runtimes": {
                name: _plotted(result.get(algorithm=algorithm,
                                          dataset=dataset_name, nodes=nodes,
                                          framework=name))
                for name in frameworks}}
        for algorithm, (dataset_name, nodes) in FIGURE5_CONFIG.items()
    }


#: Figure 6 normalization constants (from the figure's caption).
FIGURE6_NORMALIZERS = {
    "cpu_utilization": 1.0,          # 100 = fully busy
    "peak_network_bandwidth": 5.5e9,  # network limit
    "memory_footprint_bytes": 64 * 2**30,  # node DRAM
}


def figure6(frameworks=MULTI_FRAMEWORKS, algorithms=ALGORITHMS,
            nodes: int = 4) -> dict:
    """System metrics at 4 nodes (4 panels of 4 bars per framework).

    Returns ``{algorithm: {framework: {metric: value-in-[0,100]}}}``.
    Bytes sent are normalized to Giraph's, per the paper's caption.
    """
    out = {}
    for algorithm in algorithms:
        raw = {
            name: run_cell({"algorithm": algorithm, "nodes": nodes,
                            "framework": name},
                           enforce_memory=False).metrics_or_none()
            for name in frameworks}

        giraph_bytes = None
        if raw.get("giraph") is not None:
            giraph_bytes = max(raw["giraph"].bytes_sent_per_node, 1.0)

        panel = {}
        for name, metrics in raw.items():
            if metrics is None:
                panel[name] = None
                continue
            bytes_norm = (100.0 * metrics.bytes_sent_per_node / giraph_bytes
                          if giraph_bytes else 0.0)
            panel[name] = {
                "cpu_utilization": 100.0 * metrics.cpu_utilization,
                "peak_network_bw": 100.0 * metrics.peak_network_bandwidth
                / FIGURE6_NORMALIZERS["peak_network_bandwidth"],
                "memory_footprint": 100.0 * metrics.memory_footprint_bytes
                / FIGURE6_NORMALIZERS["memory_footprint_bytes"],
                "network_bytes_sent": bytes_norm,
            }
        out[algorithm] = panel
    return out


def figure7(algorithms=("pagerank", "bfs"), nodes: int = 4) -> dict:
    """Native optimization waterfall (cumulative speedups vs baseline).

    Returns ``{algorithm: [(label, speedup), ...]}`` in ladder order.
    Multi-node (4 nodes) like the paper's message-optimization context.
    """
    out = {}
    for algorithm in algorithms:
        ladder = []
        baseline = None
        for label, options in FIGURE7_LADDER:
            runtime = run_cell({"algorithm": algorithm, "nodes": nodes,
                                "framework": "native"},
                               params={"options": options}).runtime()
            if baseline is None:
                baseline = runtime
            ladder.append((label, baseline / runtime))
        out[algorithm] = ladder
    return out


def sgd_vs_gd(hidden_dim: int = 16, max_iterations: int = 300) -> dict:
    """The Section 3.2 convergence study on the Netflix proxy."""
    from ..algorithms.collaborative import sgd_vs_gd_iterations

    ratings = single_node_ratings("netflix")
    return sgd_vs_gd_iterations(ratings, hidden_dim=hidden_dim,
                                max_iterations=max_iterations)
