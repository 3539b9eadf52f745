"""KDT front-end: the Python productivity layer over CombBLAS.

The paper's framework list opens with "CombBLAS/KDT" (Sections 1 and 3
cite [11, 22]): the Knowledge Discovery Toolbox exposes CombBLAS's
distributed semiring kernels to Python. Its published characteristic is
exactly the paper's "Ninja gap" in miniature — the heavy kernels run at
CombBLAS speed, but any *semiring callback crossing into Python* pays
interpreter cost per nonzero (the published KDT/CombBLAS gap is ~3-10x
for callback-bearing operations, and near-1x for built-in semirings).

KDT's registry row is CombBLAS's plus one :data:`BOUNDARIES` row per
workload, charged after the CombBLAS run (:func:`add_python_overhead`):

* built-in semirings (PageRank's plus-times) — a small constant setup
  cost per kernel call;
* user-defined semiring callbacks (BFS's visited-filtering, triangle
  counting's masked ops) — per-nonzero interpreter overhead.
"""

from __future__ import annotations

from ...cluster import Cluster

#: Per-nonzero cost of a user-defined semiring callback, per node.
#: Raw CPython dispatch would be ~100x worse; KDT's answer is SEJITS —
#: callbacks are specialized to C++ at first use — leaving a residual
#: ~0.5 G nnz/s/node (a few x below the built-in kernels), which is what
#: produces KDT's published 3-10x gap on callback-bearing operations.
CALLBACK_SECONDS_PER_NNZ = 2e-9
#: Fixed per-kernel-call overhead of the Python driver layer (seconds).
PYTHON_CALL_OVERHEAD_S = 2e-3


def add_python_overhead(cluster: Cluster, callback_nnz: float,
                        kernel_calls: int) -> None:
    """Charge the Python-boundary cost on top of a CombBLAS run.

    Callback work is proxy-scale (counted nonzeros) and must be
    extrapolated; the per-kernel-call driver overhead is a fixed cost.
    """
    callback_seconds = (CALLBACK_SECONDS_PER_NNZ * callback_nnz
                        / cluster.num_nodes)
    cluster.tick(callback_seconds * cluster.scale_factor
                 + kernel_calls * PYTHON_CALL_OVERHEAD_S)


def _per_round(graph, result):
    """Built-in semirings: near-CombBLAS speed, driver cost per round."""
    return 0.0, result.iterations


#: One row per workload: what crosses the Python boundary, as
#: ``boundary(dataset, result) -> (callback_nnz, kernel_calls)`` — the
#: nonzeros whose semiring callback crosses into Python, and how many
#: kernel invocations the Python driver issued.
BOUNDARIES = {
    "pagerank": _per_round,     # plus-times
    "wcc": _per_round,          # min
    "sssp": _per_round,         # min-plus
    # Frontier filtering runs as a Python callback per touched nonzero:
    # only the nonzeros adjacent to ever-visited vertices cross the
    # boundary; approximate with the reached share of all edges.
    "bfs": lambda graph, result: (
        graph.num_edges * (result.extras["reached"]
                           / max(graph.num_vertices, 1)),
        result.iterations),
    # The masked-multiply filter is a per-multiply Python callback.
    "triangle_counting": lambda graph, result: (
        result.extras["spgemm_flops"] / 2.0, 3),
    # Dense-vector updates between SpMVs run in the Python driver.
    "collaborative_filtering": lambda ratings, result: (
        0.0, result.iterations * result.extras["hidden_dim"]),
    # The liveness mask is a Python filter over every peeled nonzero.
    "k_core": lambda graph, result: (result.extras["peeled_edges"],
                                     result.iterations),
    # The mode aggregation is a user-defined add: per-nnz callback.
    "label_propagation": lambda graph, result: (
        float(graph.num_edges) * result.iterations, result.iterations),
}
