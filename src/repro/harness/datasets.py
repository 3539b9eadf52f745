"""Experiment-scale dataset construction with paper-scale factors.

Central place that decides, for every experiment, (a) which proxy
dataset to execute on and (b) the ``scale_factor`` that extrapolates the
counted work to the paper's dataset sizes: :func:`experiment_dataset`
resolves the three ways the paper places a cell, :func:`catalog_dataset`
a name a spec carries. Every function here that builds runs inside
:func:`repro.datagen.cache.pinning`, so the process holds one object per
distinct content, whichever name, algorithm or caller asked for it.
"""

from __future__ import annotations

from ..datagen import (
    CATALOG,
    bfs_variant,
    dataset as _catalog_dataset,
    netflix_like_ratings,
    rmat_graph,
    rmat_triangle_graph,
    triangle_variant,
)
from ..datagen.cache import clear_pins, pinning
from ..errors import SpecError

#: Paper weak-scaling budgets (Figure 4 captions).
PAPER_EDGES_PER_NODE = {
    "pagerank": 128e6,
    "bfs": 128e6,
    "collaborative_filtering": 256e6,
    "triangle_counting": 32e6,
    # Second-generation workloads: the propagation-style ones carry the
    # BFS budget; k-core's repeated cascade scans halve it.
    "wcc": 128e6,
    "sssp": 128e6,
    "k_core": 64e6,
    "label_propagation": 128e6,
}

#: Algorithms that run on symmetrized (undirected) proxies. They share
#: BFS's dataset variant: propagation fixpoints, peeling, and community
#: rounds are all defined on undirected graphs in the study.
UNDIRECTED_ALGORITHMS = ("bfs", "wcc", "sssp", "k_core", "label_propagation")

#: CF hidden dimension used throughout the harness. The paper's is ~1000
#: (8 KB messages); we use 32 to keep proxy runs fast — slowdown *ratios*
#: are insensitive to K because every engine's work scales with it.
HARNESS_HIDDEN_DIM = 32

#: Iteration budget for per-iteration-timed algorithms.
HARNESS_ITERATIONS = 3


@pinning()
def catalog_dataset(name: str):
    """The raw catalog proxy: what ``run`` places for a named dataset."""
    return _catalog_dataset(name)


@pinning()
def single_node_graph(name: str, algorithm: str):
    """Proxy graph for the Figure 3 single-node panels."""
    if algorithm in UNDIRECTED_ALGORITHMS:
        return bfs_variant(name)
    if algorithm == "triangle_counting":
        return triangle_variant(name)
    return _catalog_dataset(name)


#: Ratings have no per-algorithm variant: Figure 3's CF panels run on
#: the catalog proxy itself.
single_node_ratings = catalog_dataset


#: Assumed paper-scale size of the single-node synthetic runs (the paper
#: does not state it; sized like the real single-node datasets).
SYNTHETIC_SINGLE_NODE_EDGES = 100e6


@pinning()
def _single_node_synthetic(algorithm: str):
    """The ``"synthetic"`` column of the Figure 3 panels."""
    if algorithm == "collaborative_filtering":
        return netflix_like_ratings(scale=13, num_items=290, seed=777)
    if algorithm == "triangle_counting":
        return rmat_triangle_graph(scale=13, edge_factor=16, seed=778)
    return rmat_graph(scale=13, edge_factor=16, seed=778,
                      directed=algorithm == "pagerank")


# -- weak scaling (Figure 4) -------------------------------------------------

#: Proxy edge budget per node for weak-scaling runs. Small enough that a
#: 64-node run executes in seconds, large enough that per-node counters
#: are stable.
PROXY_EDGES_PER_NODE = {
    "pagerank": 16384,
    "bfs": 16384,
    "collaborative_filtering": 24576,
    "triangle_counting": 6144,
    "wcc": 16384,
    "sssp": 16384,
    "k_core": 8192,
    "label_propagation": 16384,
}


def _scale_for_nodes(base_scale: int, nodes: int) -> int:
    scale = base_scale
    remaining = nodes
    while remaining > 1:
        scale += 1
        remaining //= 2
    return scale


@pinning()
def weak_scaling_graph(algorithm: str, nodes: int):
    """Graph with ~PROXY_EDGES_PER_NODE[algorithm] x nodes edges."""
    if algorithm == "triangle_counting":
        return rmat_triangle_graph(_scale_for_nodes(10, nodes),
                                   edge_factor=8, seed=900 + nodes)
    directed = algorithm == "pagerank"
    return rmat_graph(_scale_for_nodes(10, nodes), edge_factor=16,
                      seed=900 + nodes, directed=directed)


@pinning()
def weak_scaling_ratings(nodes: int):
    return netflix_like_ratings(_scale_for_nodes(11, nodes),
                                num_items=64 * nodes, seed=900 + nodes)


#: Triangle counting's work and message volume grow superlinearly in the
#: edge count on heavy-tailed graphs (both scale with sum of squared
#: degrees, ~E^1.25 for RMAT), so its paper-scale extrapolation applies
#: this exponent to the edge ratio instead of scaling linearly.
TRIANGLE_SCALE_EXPONENT = 1.25


def scale_factor_for(algorithm: str, paper_size: float,
                     proxy_size: float) -> float:
    """Extrapolation factor from a proxy size to a paper size."""
    ratio = paper_size / max(proxy_size, 1.0)
    if algorithm == "triangle_counting":
        return ratio ** TRIANGLE_SCALE_EXPONENT
    return ratio


def clear_proxy_caches() -> None:
    """Empty the process's resident set (not the disk cache), so the
    next dataset request reaches the disk cache."""
    clear_pins()


def _size(data) -> int:
    """Ratings of a ratings matrix, edges of a graph."""
    return data.num_ratings if hasattr(data, "num_ratings") \
        else data.num_edges


def weak_scaling_dataset(algorithm: str, nodes: int):
    """(dataset, scale_factor) for one weak-scaling point."""
    if nodes < 1:
        raise SpecError(f"nodes must be >= 1, got {nodes!r}")
    if algorithm == "collaborative_filtering":
        data = weak_scaling_ratings(nodes)
    else:
        data = weak_scaling_graph(algorithm, nodes)
    factor = scale_factor_for(algorithm, PAPER_EDGES_PER_NODE[algorithm],
                              _size(data) / nodes)
    return data, factor


def experiment_dataset(algorithm: str, dataset: str = None, nodes: int = 1):
    """(dataset, scale_factor) for one cell of the study.

    The only place the paper's three placements are resolved:
    ``dataset=None`` is a weak-scaling point at ``nodes`` (Figure 4,
    Tables 4/6/7, Figure 6), ``"synthetic"`` the single-node R-MAT
    column of Figure 3 / Table 5, and any other name that catalog
    dataset's per-algorithm proxy (Figure 3's real-world columns,
    Figure 5's large graphs on several nodes). Catalog entries without
    a paper size (the ``rmat_mini`` family) are their own dataset:
    factor 1.
    """
    if dataset is None:
        return weak_scaling_dataset(algorithm, nodes)
    if dataset == "synthetic":
        data = _single_node_synthetic(algorithm)
        paper_size = SYNTHETIC_SINGLE_NODE_EDGES
    else:
        data = single_node_ratings(dataset) \
            if algorithm == "collaborative_filtering" \
            else single_node_graph(dataset, algorithm)
        paper_size = CATALOG[dataset].paper_edges
    if paper_size <= 0:
        return data, 1.0
    return data, scale_factor_for(algorithm, paper_size, _size(data))
