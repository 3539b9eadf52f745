"""Asynchronous vertex execution — GraphLab's native mode.

The paper describes GraphLab as "letting vertices read incoming
messages, update the values and send messages *asynchronously*"
(Section 3), and cites [24]'s bulk-synchronous-vs-autonomous comparison
as complementary work. This module implements the autonomous side:

* :class:`AsyncScheduler` — a priority scheduler over vertices: the
  vertex with the largest pending *residual* runs next, immediately
  observing its neighbors' freshest values (no superstep barrier);
* :func:`pagerank_delta_async` — the classic showcase: delta-PageRank,
  which converges with far fewer vertex updates than synchronous
  sweeps because work concentrates where rank is still moving.

The scheduler is a real executor (each update reads/writes live state),
so the update-count comparison against synchronous iteration is a
measured result, not a model.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ...graph import CSRGraph
from ...observability import NULL_TRACER


@dataclass
class AsyncStats:
    """What an asynchronous run did."""

    updates: int
    edge_operations: float
    max_residual: float


class AsyncScheduler:
    """Priority-ordered vertex scheduler with lazy deletion.

    ``push(vertex, priority)`` schedules (or re-prioritizes) a vertex;
    ``pop()`` returns the currently highest-priority vertex. Stale heap
    entries are skipped on pop — the standard lazy-deletion pattern
    GraphLab's priority schedulers use.
    """

    def __init__(self):
        self._heap = []
        self._priority = {}
        self._counter = 0

    def push(self, vertex: int, priority: float) -> None:
        current = self._priority.get(vertex)
        if current is not None and current >= priority:
            return
        self._priority[vertex] = priority
        self._counter += 1
        heapq.heappush(self._heap, (-priority, self._counter, vertex))

    def pop(self):
        while self._heap:
            negative_priority, _, vertex = heapq.heappop(self._heap)
            if self._priority.get(vertex) == -negative_priority:
                del self._priority[vertex]
                return vertex, -negative_priority
        return None

    def __len__(self) -> int:
        return len(self._priority)

    def __bool__(self) -> bool:
        return bool(self._priority)


def pagerank_delta_async(graph: CSRGraph, damping: float = 0.3,
                         tolerance: float = 1e-4,
                         max_updates: int = None,
                         tracer=NULL_TRACER):
    """Asynchronous delta-PageRank to ``tolerance``.

    Returns ``(ranks, AsyncStats)``. Each vertex keeps its rank plus a
    pending residual; applying a vertex folds its residual into the rank
    and pushes ``(1 - r) * residual / degree`` to each out-neighbor's
    residual. Converges to the same fixpoint as the synchronous
    iteration (equation 1 run to convergence).
    """
    num_vertices = graph.num_vertices
    if max_updates is None:
        max_updates = 500 * max(num_vertices, 1)
    out_degrees = graph.out_degrees()

    ranks = np.full(num_vertices, damping)
    # Initial residual: the first-iteration inflow under PR(v)=r start.
    residuals = np.zeros(num_vertices)
    contributions = np.where(out_degrees > 0,
                             (1.0 - damping) * damping
                             / np.maximum(out_degrees, 1), 0.0)
    np.add.at(residuals, graph.targets,
              np.repeat(contributions, out_degrees))

    scheduler = AsyncScheduler()
    for vertex in np.nonzero(residuals > tolerance)[0]:
        scheduler.push(int(vertex), float(residuals[vertex]))

    updates = 0
    edge_operations = 0.0
    with tracer.span("async-pagerank", tolerance=tolerance):
        while scheduler and updates < max_updates:
            vertex, _ = scheduler.pop()
            delta = residuals[vertex]
            if delta <= tolerance:
                continue
            residuals[vertex] = 0.0
            ranks[vertex] += delta
            updates += 1
            tracer.advance(1.0)
            degree = int(out_degrees[vertex])
            if degree == 0:
                continue
            edge_operations += degree
            spread = (1.0 - damping) * delta / degree
            neighbors = graph.neighbors(vertex)
            residuals[neighbors] += spread
            for neighbor in neighbors:
                neighbor = int(neighbor)
                if residuals[neighbor] > tolerance:
                    scheduler.push(neighbor, float(residuals[neighbor]))
    if tracer.enabled:
        tracer.count("updates", updates)
        tracer.count("edge_operations", edge_operations)

    stats = AsyncStats(updates=updates, edge_operations=edge_operations,
                       max_residual=float(residuals.max(initial=0.0)))
    return ranks, stats


def pagerank_sync_to_tolerance(graph: CSRGraph, damping: float = 0.3,
                               tolerance: float = 1e-4,
                               max_iterations: int = 10_000):
    """Synchronous PageRank run until max |delta| < tolerance.

    Returns ``(ranks, iterations, vertex_updates)`` — the comparison
    baseline for the async scheduler (every vertex updates every sweep).
    """
    num_vertices = graph.num_vertices
    out_degrees = graph.out_degrees()
    safe = np.maximum(out_degrees, 1)
    ranks = np.full(num_vertices, 1.0)
    for iteration in range(1, max_iterations + 1):
        scaled = np.where(out_degrees > 0, ranks / safe, 0.0)
        gathered = np.bincount(graph.targets,
                               weights=np.repeat(scaled, out_degrees),
                               minlength=num_vertices)
        new_ranks = damping + (1.0 - damping) * gathered
        delta = float(np.abs(new_ranks - ranks).max())
        ranks = new_ranks
        if delta < tolerance:
            return ranks, iteration, iteration * num_vertices
    return ranks, max_iterations, max_iterations * num_vertices
