"""Second-generation propagation kernels: WCC, SSSP, k-core, LP.

Four more numeric hot loops shared by every engine family, following
the PR-6 contract: the vectorized backend is numpy segment algebra, the
interpreted backend replays the same accumulation in pure Python, and
the two agree bit-for-bit because every reduction here is
order-independent (min over exact integers/integer-valued floats, and
integer tallies with a min tie-break). Counted work stays analytic —
sizes and degree sums, never loop trip counts.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import edge_slots
from .backend import interpreted
from .base import Kernel, KernelWork
from .segments import decrement_at, distinct, segment_mode


class WCCPropagate(Kernel):
    """WCC min-label push: frontier vertices offer their label out-edge.

    ``step(labels, frontier)`` returns ``(new_labels, changed)`` where
    ``changed`` is the sorted vertices whose label shrank — the next
    frontier of the delta fixpoint. Min over int64 ids is
    order-independent, so both backends agree exactly.
    """

    algorithm = "wcc"
    direction = "propagate"

    def prepare(self, graph):
        self.graph = graph
        self.out_degrees = graph.out_degrees()
        return self

    def step(self, labels, frontier):
        gather = None
        if interpreted():
            new = self._push_interpreted(labels, frontier)
        else:
            neighbors, lengths = gather = \
                self.graph.neighbors_of_many(frontier)
            new = labels.copy()
            np.minimum.at(new, neighbors, np.repeat(labels[frontier], lengths))
        changed = np.flatnonzero(new < labels)
        work = KernelWork(edges=float(self.out_degrees[frontier].sum()),
                          vertices=float(labels.size),
                          frontier=float(frontier.size), gather=gather)
        return (new, changed), work

    def _push_interpreted(self, labels, frontier):
        offsets = self.graph.offsets.tolist()
        targets = self.graph.targets.tolist()
        new = labels.copy()
        for u in frontier.tolist():
            label = labels[u]
            for e in range(offsets[u], offsets[u + 1]):
                t = targets[e]
                if label < new[t]:
                    new[t] = label
        return new


class SSSPRelax(Kernel):
    """Min-plus frontier relaxation (Bellman-Ford delta rounds).

    ``step(distances, frontier)`` relaxes every out-edge of the frontier
    and returns ``(new_distances, changed)``. Weights bind at
    ``prepare`` (the study's unordered-pair hash unless the graph
    carries explicit weights); integer-valued weights keep the float64
    sums exact, so min is order-independent across backends.
    """

    algorithm = "sssp"
    direction = "relax"

    def __init__(self, weights=None):
        self.weights = weights

    def prepare(self, graph):
        from ..algorithms.sssp import edge_weights_for

        self.graph = graph
        self.out_degrees = graph.out_degrees()
        if self.weights is None:
            self.weights = edge_weights_for(graph)
        return self

    def step(self, distances, frontier):
        gather = None
        if interpreted():
            new = self._relax_interpreted(distances, frontier)
        else:
            # The weights ride the same slots the targets come from.
            slots, lengths = edge_slots(self.graph.offsets, frontier)
            targets = self.graph.targets[slots]
            gather = targets, lengths
            new = distances.copy()
            candidates = (np.repeat(distances[frontier], lengths)
                          + self.weights[slots])
            np.minimum.at(new, targets, candidates)
        changed = np.flatnonzero(new < distances)
        work = KernelWork(edges=float(self.out_degrees[frontier].sum()),
                          vertices=float(distances.size),
                          frontier=float(frontier.size), gather=gather)
        return (new, changed), work

    def _relax_interpreted(self, distances, frontier):
        offsets = self.graph.offsets.tolist()
        targets = self.graph.targets.tolist()
        weights = self.weights.tolist()
        new = distances.copy()
        for u in frontier.tolist():
            base = distances[u]
            for e in range(offsets[u], offsets[u + 1]):
                candidate = base + weights[e]
                t = targets[e]
                if candidate < new[t]:
                    new[t] = candidate
        return new


class KCorePeel(Kernel):
    """One k-core cascade wave: find the live vertices under degree k
    and delete them.

    ``step(degrees, alive, k, live, touched=None)`` returns the wave —
    the sorted live vertices with ``degrees < k`` — after decrementing
    ``degrees`` *in place* once per edge out of it; ``work.gather`` is
    those edges. A level opens with ``touched=None``, the one full scan;
    inside a level the caller marks each wave dead and hands the next
    step the last gather's targets as ``touched``: every live vertex
    under ``k`` was in the last wave unless that wave just decremented
    it, so nothing else can have dropped and a wave costs O(its edges),
    not O(V). ``live`` is the number of live vertices, carried by the
    caller. Integer decrements commute, so both backends agree exactly.
    Dead neighbors are decremented too; they are never re-examined, and
    doing so keeps the numerics branch-free.
    """

    algorithm = "k_core"
    direction = "peel"

    def prepare(self, graph):
        self.graph = graph
        return self

    def step(self, degrees, alive, k, live, touched=None):
        if interpreted():
            removed, gather = self._peel_interpreted(degrees, alive, k,
                                                     touched)
        else:
            if touched is None:
                removed = np.flatnonzero(alive & (degrees < k))
            else:
                near = distinct(touched, degrees.size)
                removed = near[alive[near] & (degrees[near] < k)]
            neighbors, _ = gather = self.graph.neighbors_of_many(removed)
            decrement_at(degrees, neighbors)
        return removed, KernelWork(edges=float(gather[0].size),
                                   vertices=float(live),
                                   frontier=float(removed.size),
                                   gather=gather)

    def _peel_interpreted(self, degrees, alive, k, touched):
        offsets, targets = self.graph.offsets, self.graph.targets
        near = range(degrees.size) if touched is None \
            else sorted(set(touched.tolist()))
        removed = [v for v in near if alive[v] and degrees[v] < k]
        neighbors, lengths = [], []
        for u in removed:
            row = targets[offsets[u]:offsets[u + 1]].tolist()
            lengths.append(len(row))
            neighbors += row
            for t in row:
                degrees[t] -= 1
        return np.array(removed, dtype=np.int64), (
            np.array(neighbors, dtype=np.int64),
            np.array(lengths, dtype=np.int64))


class LPSync(Kernel):
    """One synchronous label-propagation round over all edges.

    ``step(labels)`` returns the new labels: each vertex with incoming
    edges adopts the most frequent in-neighbor label, frequency ties
    broken toward the smallest label; isolated vertices keep theirs.
    The (max count, min label) mode is a set function of the incoming
    multiset — evaluation order cannot move it — so the vectorized
    backend takes it from :func:`~.segments.segment_mode`: one sort of
    the packed (target, label) key per round, tallies as run lengths.
    """

    algorithm = "label_propagation"
    direction = "sync"

    def prepare(self, graph):
        self.graph = graph
        self.src = graph.sources()
        return self

    def step(self, labels):
        n = labels.size
        work = KernelWork(edges=float(self.graph.num_edges),
                          vertices=float(n))
        if interpreted():
            return self._mode_interpreted(labels), work
        reached, modes = segment_mode(self.graph.targets, labels[self.src], n)
        new = labels.copy()
        new[reached] = modes
        return new, work

    def _mode_interpreted(self, labels):
        offsets = self.graph.offsets.tolist()
        targets = self.graph.targets.tolist()
        values = labels.tolist()
        tallies = [None] * labels.size
        for u in range(labels.size):
            label = values[u]
            for e in range(offsets[u], offsets[u + 1]):
                t = targets[e]
                tally = tallies[t]
                if tally is None:
                    tally = tallies[t] = {}
                tally[label] = tally.get(label, 0) + 1
        new = labels.copy()
        for v, tally in enumerate(tallies):
            if tally:
                new[v] = max(tally.items(),
                             key=lambda item: (item[1], -item[0]))[0]
        return new
