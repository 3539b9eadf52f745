"""Compressed Sparse Row graph storage.

The paper's native implementation stores the graph "in a Compressed-Sparse
Row (CSR) format [...] allow[ing] for the edges to be stored as a single,
contiguous array" so that edge scans are streaming accesses that the
hardware prefetcher can hide (Section 3.1). PageRank notably stores the
*incoming* edges in CSR, because each vertex reads the ranks of its
in-neighbors.

:class:`CSRGraph` provides both orientations on demand and the segment
helpers (``offsets``/``targets``) every engine in this package consumes.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphFormatError
from .edgelist import EdgeList
from .keys import csr_rows, prepared_keys


def resident_nbytes_of(*arrays) -> int:
    """Bytes of the given arrays actually backed by anonymous memory.

    Cache-loaded datasets are ``np.load(..., mmap_mode="r")`` views: the
    kernel faults their pages in and can discard them under pressure, so
    counting ``nbytes`` as held memory double-counts the page cache.
    An array whose base buffer is an ``mmap``/``np.memmap`` contributes
    zero here; everything else contributes its full ``nbytes``.
    """
    total = 0
    for array in arrays:
        if array is None:
            continue
        base = array
        while isinstance(base, np.ndarray) and base.base is not None:
            base = base.base
        if isinstance(base, np.memmap) or type(base).__name__ == "mmap":
            continue
        total += int(array.nbytes)
    return total


def edge_slots(offsets: np.ndarray, vertices) -> "tuple[np.ndarray, np.ndarray]":
    """Flat CSR slots of ``vertices``' rows in input order, and row lengths.

    The ragged gather every frontier step starts with, done without a
    Python-level loop: a slot is its row's start plus its rank within
    the gathered output, minus the output position where the row began.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    starts = offsets[vertices]
    lengths = offsets[vertices + 1] - starts
    begins = np.cumsum(lengths)
    total = int(begins[-1]) if begins.size else 0
    if total == 0:
        return np.zeros(0, dtype=np.int64), lengths
    begins -= lengths       # output position where each row begins
    return (np.repeat(starts - begins, lengths)
            + np.arange(total, dtype=np.int64)), lengths


def _arrays_in(value) -> list:
    """The arrays of a derived value: itself, or its array attributes."""
    fields = (value,) if isinstance(value, np.ndarray) \
        else vars(value).values()
    return [field for field in fields if isinstance(field, np.ndarray)]


#: What a derived value's attributes may be besides arrays: nothing that
#: could hold an array :meth:`CSRGraph.resident_nbytes` would not count.
_SCALARS = (type(None), bool, int, float, str, np.generic)


def holds(graph) -> bool:
    """Whether :func:`derived` holds values on ``graph`` (a dense
    ``CSRGraph`` or a ``RatingsMatrix``)."""
    return hasattr(graph, "_derived")


def derived(graph, key, build):
    """``build()``, computed once per resident graph object and then shared.

    For what depends only on the graph and ``key`` — per-edge sources,
    the study's hash weights, a partition, a round program's recorded
    run (:func:`repro.frameworks.rounds.run_program` replays it for
    every later engine) — which every cell on a resident graph would
    otherwise rebuild. The value (an array, or an object whose
    attributes are arrays or scalars) is held beside the graph's view
    (a :class:`CSRGraph`'s reverse, a ``RatingsMatrix``'s bipartite
    graph) and dies with it; its arrays are made read-only, because
    every later caller receives the same object. A value with any other
    attribute (a list, tuple or dict, which may hold arrays
    ``resident_nbytes`` cannot see) is refused with a ``TypeError`` and
    not held. Nothing is held for other types (:func:`holds`): an
    out-of-core graph must not pin O(edges) arrays.
    """
    if not holds(graph):
        return build()
    if key in graph._derived:
        return graph._derived[key]
    value = build()
    if not isinstance(value, np.ndarray):
        for name, field in vars(value).items():
            if not isinstance(field, (np.ndarray, *_SCALARS)):
                raise TypeError(
                    f"derived value {key!r} holds {type(field).__name__} "
                    f"{name!r}: only arrays and scalars are counted")
    for array in _arrays_in(value):
        array.setflags(write=False)
    graph._derived[key] = value
    return value


def held(graph, key):
    """What :func:`derived` holds on ``graph`` for ``key``, or None."""
    return graph._derived.get(key) if holds(graph) else None


def held_keys(graph) -> tuple:
    """The keys :func:`derived` holds values for on ``graph``."""
    return tuple(graph._derived) if holds(graph) else ()


def held_nbytes(graph) -> int:
    """Anonymous bytes of every value :func:`derived` holds on ``graph``."""
    return sum(resident_nbytes_of(*_arrays_in(value))
               for value in graph._derived.values())


class CSRGraph:
    """Immutable directed graph in CSR form.

    ``offsets`` has length ``num_vertices + 1``; the out-neighbors of
    vertex ``v`` are ``targets[offsets[v]:offsets[v+1]]``, sorted
    ascending. ``edge_weights`` (optional) is aligned with ``targets``.
    ``symmetric`` records that the graph was built from a symmetrized,
    unweighted edge set, so it is its own transpose.
    """

    __slots__ = ("num_vertices", "offsets", "targets", "edge_weights",
                 "symmetric", "_in_view", "_derived")

    def __init__(self, num_vertices, offsets, targets, edge_weights=None,
                 symmetric=False):
        self.num_vertices = int(num_vertices)
        self.symmetric = bool(symmetric)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.targets = np.asarray(targets, dtype=np.int64)
        self.edge_weights = (
            None if edge_weights is None else np.asarray(edge_weights, dtype=np.float64)
        )
        self._in_view = None
        self._derived = {}
        if self.offsets.shape != (self.num_vertices + 1,):
            raise GraphFormatError("offsets must have num_vertices + 1 entries")
        if self.offsets[0] != 0 or self.offsets[-1] != self.targets.size:
            raise GraphFormatError("offsets must start at 0 and end at num_edges")
        if np.any(np.diff(self.offsets) < 0):
            raise GraphFormatError("offsets must be non-decreasing")
        if self.targets.size and (
            self.targets.min() < 0 or self.targets.max() >= self.num_vertices
        ):
            raise GraphFormatError("target vertex id out of range")
        if self.edge_weights is not None and self.edge_weights.shape != self.targets.shape:
            raise GraphFormatError("edge_weights must align with targets")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_edges(cls, edges: EdgeList, *, deduplicate: bool = False,
                   drop_self_loops: bool = False, symmetrize: bool = False,
                   orient_by_id: bool = False) -> "CSRGraph":
        """Build out-edge CSR from an edge list with one sort of its keys.

        Every adjacency segment comes out ascending — required by the
        linear-time set intersections in triangle counting (paper
        Algorithm 4). Parallel edges are kept, in input order, unless
        ``deduplicate``; the preprocessing flags are those of
        :func:`~repro.graph.sharded.build_sharded_csr`
        (:func:`~repro.graph.keys.prepared_keys`), and ``symmetrize`` /
        ``orient_by_id`` imply ``deduplicate``. A duplicate keeps the
        first weight seen — so a weighted symmetrized graph is not marked
        ``symmetric``: w(u, v) and w(v, u) may differ.
        """
        num_vertices = edges.num_vertices
        keys, weights = prepared_keys(
            edges.src, edges.dst, num_vertices, edges.weights,
            drop_self_loops=drop_self_loops, symmetrize=symmetrize,
            orient_by_id=orient_by_id)
        degrees, targets, weights = csr_rows(
            keys, num_vertices, 0, num_vertices, weights=weights,
            unique=deduplicate or symmetrize or orient_by_id)
        offsets = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        return cls(num_vertices, offsets, targets, weights,
                   symmetric=symmetrize and weights is None)

    # -- views ----------------------------------------------------------------

    def reverse(self) -> "CSRGraph":
        """CSR of the transposed graph (in-edges); cached after first call.
        A symmetric graph's is ``self``, not held, so it counts once."""
        if self.symmetric:
            return self
        if self._in_view is None:
            # A transient expansion: one build must not pin E row ids.
            edges = EdgeList(self.num_vertices, self.targets, self._row_ids(),
                             self.edge_weights)
            self._in_view = CSRGraph.from_edges(edges)
        return self._in_view

    def _row_ids(self) -> np.ndarray:
        return np.repeat(np.arange(self.num_vertices, dtype=np.int64),
                         np.diff(self.offsets))

    def sources(self) -> np.ndarray:
        """Per-edge source vertex (the CSR row index, expanded); read-only."""
        return derived(self, "sources", self._row_ids)

    def __reduce__(self):
        # The reverse view and the derived arrays are rebuilt on demand:
        # a pickled or copied graph carries only what defines it.
        return (CSRGraph, (self.num_vertices, self.offsets, self.targets,
                           self.edge_weights, self.symmetric))

    # -- accessors --------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return int(self.targets.size)

    def neighbors(self, v: int) -> np.ndarray:
        v = int(v)
        if not 0 <= v < self.num_vertices:
            raise IndexError(f"vertex {v} out of range")
        return self.targets[self.offsets[v]:self.offsets[v + 1]]

    def degree(self, v: int) -> int:
        v = int(v)
        return int(self.offsets[v + 1] - self.offsets[v])

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def neighbors_of_many(self, vertices) -> "tuple[np.ndarray, np.ndarray]":
        """Concatenated adjacency of ``vertices`` (vectorized frontier gather).

        Returns ``(targets, segment_lengths)`` where ``targets`` is the
        concatenation of each vertex's neighbor list in input order. This
        is the hot gather of frontier-based BFS, implemented without a
        Python-level loop over the frontier.
        """
        slots, lengths = edge_slots(self.offsets, vertices)
        return self.targets[slots], lengths

    def has_edge(self, u: int, v: int) -> bool:
        """Binary search within u's sorted adjacency segment."""
        seg = self.neighbors(u)
        pos = np.searchsorted(seg, v)
        return bool(pos < seg.size and seg[pos] == v)

    def nbytes(self) -> int:
        """Virtual size of the graph's arrays (mmap-backed or not)."""
        total = self.offsets.nbytes + self.targets.nbytes
        if self.edge_weights is not None:
            total += self.edge_weights.nbytes
        return total

    def resident_nbytes(self) -> int:
        """Bytes held as anonymous memory; mmap-backed arrays count zero.

        A cache-loaded graph reports ~0 (its pages live in the page
        cache, reclaimable), while a freshly built one reports
        ``nbytes()`` — the distinction serve admission and the sweep
        supervisor budget against. The reverse view and every
        :func:`derived` array count too: they are anonymous memory the
        graph keeps alive.
        """
        total = resident_nbytes_of(self.offsets, self.targets,
                                   self.edge_weights)
        if self._in_view is not None:
            total += self._in_view.resident_nbytes()
        return total + held_nbytes(self)

    def __repr__(self) -> str:
        return (
            f"CSRGraph(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges})"
        )
