"""Synthetic data generators and the dataset catalog (paper Section 4.1)."""

from .cache import (
    clear as clear_cache,
    clear_report as clear_cache_report,
    entries as cache_entries,
    pinned_memory,
    stats as cache_stats,
)
from .ratings import (
    filter_min_degree,
    fold_to_bipartite,
    netflix_like_ratings,
    uniform_ratings,
)
from .reference import CATALOG, bfs_variant, dataset, triangle_variant
from .rmat import (
    GRAPH500_PARAMS,
    OUT_OF_CORE_ENV,
    RATINGS_PARAMS,
    TRIANGLE_PARAMS,
    RMATParams,
    rmat_edges,
    rmat_graph,
    rmat_graph_sharded,
    rmat_triangle_graph,
    rmat_triangle_graph_sharded,
)
from .stream import DEFAULT_CHUNK_EDGES, RMATStream

__all__ = [
    "CATALOG",
    "DEFAULT_CHUNK_EDGES",
    "OUT_OF_CORE_ENV",
    "RMATStream",
    "cache_entries",
    "cache_stats",
    "clear_cache",
    "clear_cache_report",
    "pinned_memory",
    "rmat_graph_sharded",
    "rmat_triangle_graph_sharded",
    "GRAPH500_PARAMS",
    "RATINGS_PARAMS",
    "TRIANGLE_PARAMS",
    "RMATParams",
    "bfs_variant",
    "dataset",
    "filter_min_degree",
    "fold_to_bipartite",
    "netflix_like_ratings",
    "rmat_edges",
    "rmat_graph",
    "rmat_triangle_graph",
    "triangle_variant",
    "uniform_ratings",
]
