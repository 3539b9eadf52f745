"""Graph substrate: storage formats, partitioners and graph statistics."""

from .bipartite import RatingsMatrix, bipartite_graph
from .bitvector import BitVector
from .csr import CSRGraph
from .edgelist import EdgeList
from .partition import (
    Partition1D,
    Partition2D,
    VertexCutPartition,
    partition_2d,
    partition_edges_1d,
    partition_vertex_cut,
    partition_vertices_1d,
)
from .sharded import (
    CSRPartition,
    ShardedCSRGraph,
    build_sharded_csr,
    graph_digests,
    iter_csr_blocks,
    partition_bounds,
)
from .properties import (
    PowerLawFit,
    count_triangles_exact,
    degree_histogram,
    fit_power_law,
    gini_coefficient,
    tail_distance,
)

__all__ = [
    "BitVector",
    "CSRGraph",
    "CSRPartition",
    "EdgeList",
    "ShardedCSRGraph",
    "build_sharded_csr",
    "graph_digests",
    "iter_csr_blocks",
    "partition_bounds",
    "Partition1D",
    "Partition2D",
    "PowerLawFit",
    "RatingsMatrix",
    "bipartite_graph",
    "VertexCutPartition",
    "count_triangles_exact",
    "degree_histogram",
    "fit_power_law",
    "gini_coefficient",
    "partition_2d",
    "partition_edges_1d",
    "partition_vertex_cut",
    "partition_vertices_1d",
    "tail_distance",
]
