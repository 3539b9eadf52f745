"""Golden references and algorithm-level utilities for the workloads."""

from .bfs import UNREACHED, bfs_reference, validate_distances
from .collaborative import regularized_loss, rmse
from .kcore import kcore_reference, validate_kcore
from .labelprop import (
    initial_labels,
    label_propagation_reference,
    lp_step_reference,
)
from .pagerank import pagerank_matrix_form, pagerank_reference
from .sssp import (
    UNREACHED_DIST,
    edge_weights_for,
    sssp_reference,
    validate_sssp,
)
from .triangles import per_vertex_triangles, triangle_count_reference
from .wcc import validate_components, wcc_reference

__all__ = [
    "UNREACHED",
    "UNREACHED_DIST",
    "bfs_reference",
    "edge_weights_for",
    "initial_labels",
    "kcore_reference",
    "label_propagation_reference",
    "lp_step_reference",
    "pagerank_matrix_form",
    "pagerank_reference",
    "per_vertex_triangles",
    "regularized_loss",
    "rmse",
    "sssp_reference",
    "triangle_count_reference",
    "validate_components",
    "validate_distances",
    "validate_kcore",
    "validate_sssp",
    "wcc_reference",
]
