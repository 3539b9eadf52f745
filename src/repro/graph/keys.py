"""One sorted int64 key per edge: the core every CSR build shares.

An edge ``src -> dst`` of a graph on ``V`` vertices is the single
integer ``src * V + dst``. Sorting those keys *is* the CSR order — rows
ascending, each adjacency segment ascending — equal keys are duplicate
edges and sit next to each other, and ``divmod(key, V)`` gives the row
and the target back. So one value sort yields deduplication, the CSR
layout and, because the result depends only on the *set* of keys, the
same bytes whether the keys arrived all at once
(:meth:`~repro.graph.csr.CSRGraph.from_edges`) or partition by
partition through spill files
(:func:`~repro.graph.sharded.build_sharded_csr`).
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphFormatError


def edge_keys(src: np.ndarray, dst: np.ndarray, num_vertices: int) -> np.ndarray:
    """``src * num_vertices + dst`` as a fresh int64 array.

    The largest key is ``num_vertices**2 - 1``; a vertex universe whose
    square does not fit int64 would wrap silently, so it is refused.
    """
    if num_vertices * num_vertices >= 2 ** 63:
        raise GraphFormatError(
            f"num_vertices={num_vertices} overflows the int64 sort key")
    keys = np.multiply(src, np.int64(num_vertices), dtype=np.int64)
    keys += dst
    return keys


def prepared_keys(src, dst, num_vertices: int, weights=None, *,
                  drop_self_loops: bool = False, symmetrize: bool = False,
                  orient_by_id: bool = False):
    """Keys of an edge block after the paper's Section 4.1.2 preprocessing.

    ``drop_self_loops`` removes ``v -> v``; ``symmetrize`` appends the
    reverse of every edge (BFS input); ``orient_by_id`` points every
    edge from its smaller to its larger endpoint and drops self loops
    (triangle-counting input). Returns ``(keys, weights)`` in input
    order — reversed edges after the originals — with ``weights``
    carried along when given.
    """
    if symmetrize and orient_by_id:
        raise GraphFormatError("symmetrize and orient_by_id are exclusive")
    if drop_self_loops or orient_by_id:
        keep = src != dst
        src, dst = src[keep], dst[keep]
        if weights is not None:
            weights = weights[keep]
    if orient_by_id:
        src, dst = np.minimum(src, dst), np.maximum(src, dst)
    keys = edge_keys(src, dst, num_vertices)
    if symmetrize:
        keys = np.concatenate([keys, edge_keys(dst, src, num_vertices)])
        if weights is not None:
            weights = np.concatenate([weights, weights])
    return keys, weights


def run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Boolean mask of the first key of every run of equal keys."""
    first = np.ones(sorted_keys.size, dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return first


def sort_unique(keys: np.ndarray) -> np.ndarray:
    """Sort ``keys`` in place; return its distinct values, ascending."""
    keys.sort()
    return keys[run_starts(keys)]


def csr_rows(keys: np.ndarray, num_vertices: int, lo: int, hi: int,
             unique: bool, weights: np.ndarray = None):
    """Sort ``keys`` (in place) into the CSR rows ``[lo, hi)`` they span.

    Returns ``(degrees, targets, weights)``: ``degrees[i]`` counts the
    edges of row ``lo + i``, ``targets`` is the concatenation of the
    rows' ascending adjacency segments, ``weights`` (when given) is
    aligned with it. Equal keys keep their input order; ``unique`` keeps
    only the first of them.
    """
    if weights is None:
        if unique:
            keys = sort_unique(keys)
        else:
            keys.sort()
    else:
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        if unique:
            first = run_starts(keys)
            keys, order = keys[first], order[first]
        weights = weights[order]
    rows, targets = np.divmod(keys, np.int64(num_vertices))
    rows -= lo
    return np.bincount(rows, minlength=hi - lo), targets, weights
