"""Semiring SpMV / SpMSpV kernels: PageRank pull and BFS frontier push.

These are the two hot loops the paper's iterative workloads share across
every framework family. The vectorized backend is numpy segment algebra
(``np.repeat`` + ``np.bincount`` is y = A^T x over plus-times); the
interpreted backend replays the same accumulation *order* edge by edge
in pure Python, so the two agree bit-for-bit on the outputs (``bincount``
folds weights in input order, which the Python loop replicates exactly).
"""

from __future__ import annotations

import numpy as np

from .backend import interpreted
from .base import Kernel, KernelWork
from ..graph.csr import edge_slots
from .segments import distinct


class PageRankPull(Kernel):
    """One pull-direction PageRank iteration: ``r' = d + (1-d) A^T (r/deg)``.

    The unnormalized equation-1 update every engine runs (paper r=0.3),
    expressed as a plus-times SpMV over degree-scaled ranks.
    """

    algorithm = "pagerank"
    direction = "pull"

    def __init__(self, damping: float = 0.3):
        self.damping = damping

    def prepare(self, graph):
        self.graph = graph
        self.out_degrees = graph.out_degrees()
        self.safe = np.maximum(self.out_degrees, 1)
        return self

    def step(self, ranks):
        graph = self.graph
        n = graph.num_vertices
        if interpreted():
            gathered = self._gather_interpreted(ranks)
        else:
            contributions = np.where(self.out_degrees > 0,
                                     ranks / self.safe, 0.0)
            if hasattr(graph, "partitions"):
                gathered = self._gather_sharded(graph, contributions, n)
            else:
                per_edge = np.repeat(contributions, self.out_degrees)
                gathered = np.bincount(graph.targets, weights=per_edge,
                                       minlength=n)
        new_ranks = self.damping + (1.0 - self.damping) * gathered
        work = KernelWork(edges=float(graph.num_edges), vertices=float(n))
        return new_ranks, work

    @staticmethod
    def _gather_sharded(graph, contributions, n):
        """Partition-at-a-time gather over an out-of-core graph.

        ``np.add.at`` into one shared accumulator replays ``bincount``'s
        edge-order accumulation exactly (both fold float64 addends in
        ascending edge index), so sharded PageRank is bit-identical to
        the dense path while touching one partition's targets at a time.
        """
        gathered = np.zeros(n, dtype=np.float64)
        for part in graph.partitions():
            per_edge = np.repeat(contributions[part.lo:part.hi],
                                 part.out_degrees())
            np.add.at(gathered, part.targets, per_edge)
        return gathered

    def _gather_interpreted(self, ranks):
        """Edge-at-a-time oracle, in ``bincount``'s accumulation order."""
        graph = self.graph
        n = graph.num_vertices
        offsets = graph.offsets.tolist()
        targets = graph.targets.tolist()
        gathered = [0.0] * n
        for u in range(n):
            start, end = offsets[u], offsets[u + 1]
            if end == start:
                continue
            contribution = float(ranks[u]) / (end - start)
            for e in range(start, end):
                gathered[targets[e]] += contribution
        return np.array(gathered, dtype=np.float64)


class BFSPush(Kernel):
    """BFS frontier expansion: the boolean SpMSpV of equation 10.

    ``step(frontier)`` returns the sorted unique neighbor candidates of
    the frontier; the caller masks them against its visited structure
    (dense distances array, bit-vector, ...), which is engine policy,
    not kernel numerics. Vertex ids are bounded, so the dedup is
    :func:`~.segments.distinct` — a mask scatter on a wide level, a
    sort of the gather on a narrow one — never ``np.unique``.
    """

    algorithm = "bfs"
    direction = "push"

    def prepare(self, graph):
        self.graph = graph
        self.out_degrees = graph.out_degrees()
        return self

    def step(self, frontier):
        gather = None
        if interpreted():
            candidates = self._expand_interpreted(frontier)
        elif hasattr(self.graph, "frontier_neighbors_unique"):
            # Out-of-core path: the union fills one partition's gather
            # at a time, never holding the whole frontier gather.
            candidates, _ = self.graph.frontier_neighbors_unique(frontier)
        else:
            neighbors, _ = gather = self.graph.neighbors_of_many(frontier)
            candidates = distinct(neighbors, self.graph.num_vertices)
        work = KernelWork(edges=float(self.out_degrees[frontier].sum()),
                          frontier=float(frontier.size), gather=gather)
        return candidates, work

    def _expand_interpreted(self, frontier):
        offsets = self.graph.offsets.tolist()
        targets = self.graph.targets.tolist()
        seen = set()
        for u in frontier.tolist():
            for e in range(offsets[u], offsets[u + 1]):
                seen.add(targets[e])
        return np.array(sorted(seen), dtype=np.int64)


_ORACLE_SEMIRINGS = ("plus-times", "min-plus", "or-and")


def _checked_operands(graph, x, edge_values):
    """Validate ``x`` / ``edge_values`` shapes; both come back float64."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (graph.num_vertices,):
        raise ValueError(
            f"x must have {graph.num_vertices} entries, got {x.shape}"
        )
    if edge_values is not None:
        edge_values = np.asarray(edge_values, dtype=np.float64)
        if edge_values.shape != (graph.num_edges,):
            raise ValueError("edge_values must have one entry per edge")
    return x, edge_values


def semiring_spmv(graph, x, semiring, edge_values=None):
    """``y = A^T x`` over an arbitrary ``(add, multiply, zero)`` semiring.

    The CombBLAS primitive (matrix family): plus-times carries PageRank,
    min-plus relaxes BFS distances, or-and expands boolean frontiers.
    The interpreted oracle covers those three named semirings with
    scalar loops; other (user-defined) semirings always run vectorized,
    because their ``add_reduce`` is a segment callable the oracle cannot
    replay element-wise.
    """
    x, edge_values = _checked_operands(graph, x, edge_values)
    if interpreted() and semiring.name in _ORACLE_SEMIRINGS:
        return _semiring_rows_interpreted(graph, x, range(graph.num_vertices),
                                          semiring, edge_values)
    values = 1.0 if edge_values is None else edge_values
    # x per edge, straight from the row lengths (no source ids needed).
    combined = semiring.multiply(values,
                                 np.repeat(x, np.diff(graph.offsets)))
    reduced = semiring.add_reduce(combined, graph.targets, graph.num_vertices)
    # Positions never reduced into hold the additive identity.
    touched = np.zeros(graph.num_vertices, dtype=bool)
    touched[graph.targets] = True
    return np.where(touched, reduced, semiring.zero)


def semiring_spmspv(graph, x, present, semiring, edge_values=None):
    """``semiring_spmv`` visiting only the out-edges of ``present`` rows.

    ``present`` is the ascending vertex ids with ``x != semiring.zero``.
    The zero annihilates, so an absent row adds only the additive
    identity to the dense product: ``a * 0.0`` adds nothing to a
    ``bincount`` that folds in ascending edge order (kept here — the
    slots come out in ascending order), ``a + inf`` never wins a ``min``
    and or-and of 0 is 0, for finite edge values. Skipping those rows is
    therefore bit-identical on the three named semirings, at O(frontier
    edges) instead of O(all edges); ``add_reduce`` starts every segment
    at the semiring zero, so untouched positions need no mask.
    """
    x, edge_values = _checked_operands(graph, x, edge_values)
    present = np.asarray(present, dtype=np.int64)
    if interpreted() and semiring.name in _ORACLE_SEMIRINGS:
        return _semiring_rows_interpreted(graph, x, present.tolist(),
                                          semiring, edge_values)
    slots, lengths = edge_slots(graph.offsets, present)
    values = 1.0 if edge_values is None else edge_values[slots]
    combined = semiring.multiply(values, np.repeat(x[present], lengths))
    return semiring.add_reduce(combined, graph.targets[slots],
                               graph.num_vertices)


def _semiring_rows_interpreted(graph, x, rows, semiring, edge_values):
    """Scalar edge loop over ``rows`` (ascending) for the paper semirings.

    Order-matched to the vectorized fold; ``edge_values=None`` is the
    unweighted adjacency. Only the visited rows' slices are unpacked, so
    a sparse product stays frontier-proportional here too.
    """
    n = graph.num_vertices
    offsets = graph.offsets
    zero = float(semiring.zero)
    out = [zero] * n
    touched = [False] * n
    name = semiring.name
    for u in rows:
        xu = float(x[u])
        row = slice(int(offsets[u]), int(offsets[u + 1]))
        values = (None if edge_values is None
                  else edge_values[row].tolist())
        for i, t in enumerate(graph.targets[row].tolist()):
            a = 1.0 if values is None else values[i]
            if name == "plus-times":
                combined = a * xu
                out[t] = combined if not touched[t] else out[t] + combined
            elif name == "min-plus":
                combined = a + xu
                out[t] = combined if not touched[t] else min(out[t], combined)
            else:  # or-and
                combined = 1.0 if (a != 0.0 and xu != 0.0) else 0.0
                out[t] = combined if not touched[t] else max(out[t], combined)
            touched[t] = True
    return np.array(out, dtype=np.float64)
