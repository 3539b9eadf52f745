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
from .segments import segment_mode


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
        work = KernelWork(edges=float(self.out_degrees[frontier].sum()),
                          vertices=float(labels.size),
                          frontier=float(frontier.size))
        if interpreted():
            new = self._push_interpreted(labels, frontier)
        else:
            neighbors, lengths = self.graph.neighbors_of_many(frontier)
            new = labels.copy()
            np.minimum.at(new, neighbors, np.repeat(labels[frontier], lengths))
        changed = np.flatnonzero(new < labels)
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
        work = KernelWork(edges=float(self.out_degrees[frontier].sum()),
                          vertices=float(distances.size),
                          frontier=float(frontier.size))
        if interpreted():
            new = self._relax_interpreted(distances, frontier)
        else:
            slots, lengths = edge_slots(self.graph.offsets, frontier)
            new = distances.copy()
            candidates = (np.repeat(distances[frontier], lengths)
                          + self.weights[slots])
            np.minimum.at(new, self.graph.targets[slots], candidates)
        changed = np.flatnonzero(new < distances)
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
    """One k-core cascade wave: delete live vertices under degree k.

    ``step(degrees, alive, k)`` returns ``(removed, new_degrees)`` —
    the vertices peeled this wave (sorted) and the degrees after
    decrementing their neighbors. Integer decrements commute, so both
    backends agree exactly. Dead neighbors are decremented too; they are
    never re-examined, and doing so keeps the numerics branch-free.
    """

    algorithm = "k_core"
    direction = "peel"

    def prepare(self, graph):
        self.graph = graph
        self.out_degrees = graph.out_degrees()
        return self

    def step(self, degrees, alive, k):
        removed = np.flatnonzero(alive & (degrees < k))
        work = KernelWork(edges=float(self.out_degrees[removed].sum()),
                          vertices=float(alive.sum()),
                          frontier=float(removed.size))
        if removed.size == 0:
            return (removed, degrees), work
        if interpreted():
            new = self._peel_interpreted(degrees, removed)
        else:
            neighbors, _ = self.graph.neighbors_of_many(removed)
            new = degrees - np.bincount(neighbors, minlength=degrees.size)
        return (removed, new), work

    def _peel_interpreted(self, degrees, removed):
        offsets = self.graph.offsets.tolist()
        targets = self.graph.targets.tolist()
        new = degrees.copy()
        for u in removed.tolist():
            for e in range(offsets[u], offsets[u + 1]):
                new[targets[e]] -= 1
        return new


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
