"""Sort-free set and segment primitives over bounded integer ids.

Every vertex, table key and owner id on the superstep path is an integer
in ``[0, universe)``, so "distinct", "first occurrence" and "most
frequent" need no comparison sort of composite keys followed by a second
sort: a dense scratch of ``universe`` slots answers the first two in one
scatter, and one in-place sort of a packed key answers the third. When
the universe is much larger than the input (a tiny frontier in a big
graph) the dense scratch would cost more than sorting the input, so each
primitive sorts instead — a size test on its own arguments, invisible to
callers. Either way the results equal the ``np.unique`` / stable
``argsort`` / ``np.lexsort`` expressions they replace, element for
element (``tests/test_segments.py`` keeps those as oracles).
"""

from __future__ import annotations

import numpy as np

#: A dense scratch is used while ``universe <= _DENSE_FACTOR * len(ids)``.
_DENSE_FACTOR = 8


def _dense(universe: int, size: int) -> bool:
    return universe <= _DENSE_FACTOR * size


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values."""
    first = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return first


def distinct(ids: np.ndarray, universe: int) -> np.ndarray:
    """Ascending distinct values of ``ids``; equals ``np.unique(ids)``."""
    if _dense(universe, ids.size):
        seen = np.zeros(universe, dtype=bool)
        seen[ids] = True
        return np.flatnonzero(seen)
    ordered = np.sort(ids)
    return ordered[_run_starts(ordered)]


def distinct_union(chunks, universe: int, size: int) -> np.ndarray:
    """:func:`distinct` of the concatenated int64 ``chunks`` (``size``
    ids in all); the dense scratch takes one chunk at a time."""
    if not _dense(universe, size):
        return distinct(np.concatenate([np.zeros(0, dtype=np.int64),
                                        *chunks]), universe)
    seen = np.zeros(universe, dtype=bool)
    for chunk in chunks:
        seen[chunk] = True
    return np.flatnonzero(seen)


def decrement_at(counts: np.ndarray, ids: np.ndarray) -> None:
    """``counts[i] -= 1`` per occurrence of ``i`` in ``ids``, in place."""
    if _dense(counts.size, ids.size):
        counts -= np.bincount(ids, minlength=counts.size)
    else:
        np.subtract.at(counts, ids, 1)


def first_occurrence(keys: np.ndarray, universe: int):
    """``(distinct keys ascending, index of each key's first appearance)``.

    What a stable ``argsort`` followed by a run-start mask yields: the
    element a sender-side combiner keeps for each key.
    """
    if _dense(universe, keys.size):
        first = np.full(universe, keys.size, dtype=np.int64)
        np.minimum.at(first, keys, np.arange(keys.size, dtype=np.int64))
        present = np.flatnonzero(first < keys.size)
        return present, first[present]
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    starts = _run_starts(ordered)
    return ordered[starts], order[starts]


def stable_order(keys: np.ndarray, universe: int) -> np.ndarray:
    """Indices ordering ``keys`` ascending, equal keys in input order.

    Equals ``np.argsort(keys, kind="stable")``: a binary radix sort, one
    stable split per bit of ``universe``, so no comparison is made.
    """
    order = np.arange(keys.size)
    for bit in range(max(int(universe) - 1, 1).bit_length()):
        ones = ((keys[order] >> bit) & 1).astype(bool)
        order = np.concatenate([order[~ones], order[ones]])
    return order


def segment_mode(segment_ids: np.ndarray, labels: np.ndarray, universe: int):
    """Most frequent label of each segment, smallest label on ties.

    ``labels`` lie in ``[0, universe)``. Returns ``(segments, modes)``:
    the ascending distinct ``segment_ids`` and the winning label of
    each. One sort of the packed ``(segment, label)`` key groups equal
    pairs into runs; a run's length is its tally, and the per-segment
    maximum of ``(tally, -label)`` — one ``reduceat`` — is the mode.
    Key and score are ``int32`` when their values fit (a size test on
    the arguments, like :func:`_dense`); the results are ``int64``.
    """
    if segment_ids.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    shift = max(int(universe) - 1, 1).bit_length()
    # A 32-bit key sorts in about half the time of a 64-bit one: pack
    # narrow whenever the segments fit the bits the labels leave.
    narrow = shift < 31 and int(segment_ids.max()) >> (31 - shift) == 0
    key = np.int32 if narrow else np.int64
    low = key((1 << shift) - 1)
    packed = (segment_ids.astype(key, copy=False) << shift) \
        | labels.astype(key, copy=False)
    packed.sort()
    run_at = np.flatnonzero(_run_starts(packed))
    tallies = np.diff(run_at, append=packed.size)
    if narrow and int(tallies.max()) >> (31 - shift) == 0:
        tallies = tallies.astype(key)       # else the score widens itself
    runs = packed[run_at]
    run_segment = runs >> shift
    # Larger tally first, then smaller label: rank both in one integer.
    score = (tallies << shift) | (low - (runs & low))
    segment_at = np.flatnonzero(_run_starts(run_segment))
    best = np.maximum.reduceat(score, segment_at)
    return (run_segment[segment_at].astype(np.int64, copy=False),
            (low - (best & low)).astype(np.int64, copy=False))


def pair_traffic(src_owner: np.ndarray, dst_owner: np.ndarray, weights,
                 nodes: int) -> np.ndarray:
    """``(nodes, nodes)`` matrix of ``weights`` summed per owner pair.

    ``np.bincount`` folds float64 weights in ascending input order,
    exactly as ``np.add.at(zeros, (src_owner, dst_owner), weights)``
    does, so the sums are bitwise equal. ``weights`` may be a scalar.
    """
    weights = np.broadcast_to(np.asarray(weights, dtype=np.float64),
                              src_owner.shape)
    return np.bincount(src_owner * nodes + dst_owner, weights=weights,
                       minlength=nodes * nodes).reshape(nodes, nodes)


def list_traffic(vertices: np.ndarray, to_nodes: np.ndarray, owner_of,
                 list_bytes: np.ndarray, nodes: int) -> np.ndarray:
    """``(nodes, nodes)`` bytes of shipping neighbour lists on request.

    Request ``i`` wants vertex ``vertices[i]``'s list on node
    ``to_nodes[i]``; ``list_bytes[v]`` leaves ``owner_of(v)`` once per
    distinct (vertex, node) pair, and a node never ships to itself —
    triangle counting's neighbourhood exchange (native, SociaLite).
    """
    cross = owner_of(vertices) != to_nodes
    pairs = distinct(vertices[cross] * np.int64(nodes) + to_nodes[cross],
                     list_bytes.size * nodes)
    sent = pairs // nodes
    return pair_traffic(owner_of(sent), pairs % nodes, list_bytes[sent],
                        nodes)
