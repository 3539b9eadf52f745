"""User-defined semirings, CombBLAS's core abstraction.

"Graph computations are expressed as operations among sparse matrices and
vectors using arbitrary user-defined semirings" (Section 3). A semiring
supplies the (add, multiply, zero) triple; the classic instances used by
the paper's four algorithms:

* ``PLUS_TIMES`` — ordinary linear algebra: PageRank's rank propagation
  (equation 9) and the path-counting ``A @ A`` of triangle counting;
* ``MIN_PLUS`` — tropical semiring: SSSP's distance relaxation, and
  (with 0-valued edges) WCC's min-label propagation;
* ``OR_AND`` — boolean: BFS frontier expansion (equation 10).

``semiring_spmv`` is a direct, vectorized y = A^T x over any semiring —
the reference CombBLAS kernel the engine's accounting is attached to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ...graph import CSRGraph


@dataclass(frozen=True)
class Semiring:
    """(add, multiply, zero) with NumPy ufunc-style vector operations."""

    name: str
    add_reduce: Callable      # (values, segment_ids, n) -> per-segment fold
    multiply: Callable        # (a_values, x_values) -> combined values
    zero: float

    def __repr__(self) -> str:
        return f"Semiring({self.name})"


def _segment_sum(values, segments, n):
    # An empty bincount ignores its weights and comes back integer.
    return np.bincount(segments, weights=values,
                       minlength=n).astype(np.float64, copy=False)


def _segment_min(values, segments, n):
    out = np.full(n, np.inf)
    np.minimum.at(out, segments, values)
    return out


def _segment_or(values, segments, n):
    out = np.zeros(n)
    np.maximum.at(out, segments, (values != 0).astype(float))
    return out


PLUS_TIMES = Semiring(
    name="plus-times",
    add_reduce=_segment_sum,
    multiply=lambda a, x: a * x,
    zero=0.0,
)

MIN_PLUS = Semiring(
    name="min-plus",
    add_reduce=_segment_min,
    multiply=lambda a, x: a + x,
    zero=np.inf,
)

OR_AND = Semiring(
    name="or-and",
    add_reduce=_segment_or,
    multiply=lambda a, x: ((a != 0) & (x != 0)).astype(float),
    zero=0.0,
)

SEMIRINGS = {s.name: s for s in (PLUS_TIMES, MIN_PLUS, OR_AND)}


def semiring_spmv(graph: CSRGraph, x: np.ndarray,
                  semiring: Semiring = PLUS_TIMES,
                  edge_values: np.ndarray = None) -> np.ndarray:
    """``y = A^T (x)`` over the semiring, where A is the graph's adjacency.

    ``y[v] = add-reduce over edges (u, v) of multiply(A[u, v], x[u])``;
    entries with no incident edges get the semiring zero. ``edge_values``
    defaults to 1 for every edge (unweighted adjacency).

    The numeric work is delegated to :func:`repro.kernels.semiring_spmv`
    (imported lazily — ``repro.kernels`` must not be a hard import-time
    dependency of the semiring definitions it duck-types).
    """
    from ...kernels.spmv import semiring_spmv as _kernel_spmv

    return _kernel_spmv(graph, x, semiring, edge_values)
