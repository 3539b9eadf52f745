"""Galois front-end: single-node task-parallel versions of the workloads.

Paper characteristics bound here (Sections 3, 5.2, 6.2):

* single node only ("Galois is currently only a single node
  framework"): the profile's ``multinode=False``, so the registry
  refuses a multi-node cluster before any work;
* within 1.1-1.2x of native for PageRank/BFS/CF and ~2.5x for triangle
  counting (Table 5): Galois prefetches and uses scalable data
  structures, but its triangle counting uses sorted-merge intersections
  (Algorithm 4) rather than the native bit-vector;
* Galois is the only framework implementing true SGD for collaborative
  filtering, "in a fashion similar to that of the native implementation"
  (Section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...cluster import Cluster, ComputeWork
from ..base import GALOIS
from ..rounds import Engine

_PROFILE = GALOIS


def _work(streamed, random, ops) -> ComputeWork:
    return ComputeWork(streamed_bytes=streamed, random_bytes=random, ops=ops,
                       cpu_efficiency=_PROFILE.cpu_efficiency,
                       cores_fraction=_PROFILE.cores_fraction,
                       prefetch=_PROFILE.prefetch)


def _step(cluster: Cluster, streamed, random, ops) -> None:
    cluster.superstep(_work(streamed, random, ops),
                      overhead_s=_PROFILE.superstep_overhead_s)


@dataclass(frozen=True)
class TaskCost:
    """Cost row of one round program as Galois work items.

    One round charges ``edge_* x`` the edges its work items visit,
    ``active_stream x`` the items themselves, ``changed_random x`` the
    vertices they update and ``vertex_ops x`` every vertex — the same
    per-edge traffic as the native kernels (scan + dedup and scatter
    passes + probes, prefetched gathers at cache-line granularity) at
    Galois's slightly lower per-op efficiency plus its small
    per-work-item scheduling cost.
    """

    state: tuple                   #: (label, bytes per vertex)
    edge_stream: float
    active_stream: float
    edge_random: float
    edge_ops: float
    extras: tuple
    graph_edge_bytes: float = 8.0  #: 16 with stored weights
    changed_random: float = 0.0
    tally_random: float = 0.0      #: per-edge hash probe (label tallies)
    vertex_ops: float = 0.0
    #: k_core: per-level rescan of the live degrees for seeds.
    rescan_vertex_stream: float = 0.0


COSTS = {
    # Per-vertex work items updating ranks, like GraphLab's but local.
    "pagerank": TaskCost(
        state=("ranks", 24.0), edge_stream=8.0 + 64.0, active_stream=16.0,
        edge_random=0.05 * 64.0, edge_ops=5.0, vertex_ops=8.0, extras=()),
    # Algorithm 3: bulk-synchronous worklists, one round per level.
    "bfs": TaskCost(
        state=("levels+worklists", 12.0), edge_stream=8.0 + 12.0,
        active_stream=8.0, edge_random=1.0, changed_random=4.0,
        edge_ops=6.0, extras=("frontier_sizes", "reached")),
    # Every vertex starts on the worklist with its own id; a round
    # re-enqueues vertices whose label dropped.
    "wcc": TaskCost(
        state=("labels+worklists", 16.0), edge_stream=8.0 + 12.0,
        active_stream=8.0, edge_random=1.0, changed_random=8.0,
        edge_ops=4.0, extras=("components",)),
    # Bellman-Ford rounds over the improved-distance worklist.
    "sssp": TaskCost(
        state=("distances+worklists", 16.0), graph_edge_bytes=16.0,
        edge_stream=8.0 + 12.0 + 8.0, active_stream=8.0, edge_random=1.0,
        changed_random=8.0, edge_ops=5.0, extras=("reached",)),
    # Ascending-k cascade peel; one worklist round per cascade wave.
    "k_core": TaskCost(
        state=("degrees+core", 16.0), edge_stream=8.0 + 12.0,
        active_stream=8.0, edge_random=8.0, edge_ops=2.0, vertex_ops=1.0,
        rescan_vertex_stream=8.0, extras=("max_core", "cascade_waves")),
    # Synchronous CDLP rounds, one tallying work item per vertex.
    "label_propagation": TaskCost(
        state=("labels+tallies", 32.0), edge_stream=8.0 + 64.0,
        active_stream=16.0, edge_random=0.05 * 64.0, tally_random=16.0,
        edge_ops=6.0, vertex_ops=4.0, extras=("communities",)),
}


class GaloisEngine(Engine):
    """Shared-memory worklists: no routing, one superstep per round."""

    def __init__(self, program, graph, cluster):
        super().__init__(program, graph, cluster, COSTS[program.algorithm])
        self.per_level = program.algorithm == "k_core"
        self._vertices = float(graph.num_vertices)
        label, per_vertex = self.cost.state
        cluster.allocate(0, "graph",
                         self.cost.graph_edge_bytes * graph.num_edges
                         + 8.0 * (graph.num_vertices + 1))
        cluster.allocate(0, label, per_vertex * graph.num_vertices)

    def _columns(self, edges, active, changed) -> tuple:
        cost = self.cost
        return (cost.edge_stream * edges + cost.active_stream * active,
                cost.edge_random * edges + cost.changed_random * changed
                + cost.tally_random * edges,
                cost.edge_ops * edges + cost.vertex_ops * self._vertices)

    def charge(self, rounds) -> None:
        """A superstep per round; k_core's levels each add a rescan of
        the live degrees after their waves and mark the iteration."""
        columns = self._columns(rounds.edges, rounds.sizes, rounds.handed)
        tracer, count = self.cluster.tracer, rounds.count
        marks, trace = np.arange(1, count + 1), None
        if self.per_level:
            ends = rounds.level_bounds()[1:]
            rescans = ends + np.arange(ends.size)
            marks = rescans + 1
            columns = np.insert(np.array(columns), ends, [
                [self.cost.rescan_vertex_stream * self._vertices], [0.0],
                [self._vertices]], axis=1)
            if tracer.enabled:
                waves = np.delete(np.arange(count + ends.size), rescans)
                trace = rounds.level_frames(
                    "level", lambda row: [("step", waves[row])],
                    lambda level: [("step", rescans[level])])
        elif tracer.enabled:
            trace = rounds.frames(self.program.span,
                                  lambda row: [("step", row)])
        self.cluster.supersteps(
            _work(*(np.asarray(column)[:, None] for column in columns)),
            marks=marks, trace=trace,
            overhead_s=_PROFILE.superstep_overhead_s)

    def sweep(self) -> None:
        _step(self.cluster, *self._columns(float(self.graph.num_edges),
                                           self._vertices, 0.0))


class GaloisTCEngine(Engine):
    """Algorithm 4: sorted-merge set intersections, one task per vertex.

    The sorted adjacency lists make each intersection linear in
    ``deg(u) + deg(v)`` — more element reads than the native bit-vector
    probes, which is where the paper's 2.5x gap comes from.
    """

    def __init__(self, program, graph, cluster):
        super().__init__(program, graph, cluster)
        cluster.allocate(0, "graph",
                         8.0 * graph.num_edges + 8.0 * (graph.num_vertices + 1))
        degrees = program.degrees
        self._probes = float(degrees[graph.sources()].sum())
        self.merge_reads = self._probes + float(degrees[graph.targets].sum())

    def iteration_span(self, index: int):
        return self.cluster.trace_span("sorted-merge-intersect",
                                       merge_reads=self.merge_reads)

    def sweep(self) -> None:
        # Sorted-merge intersections: the second list's elements are
        # pulled from cold lines with partial reuse, costlier than the
        # native bit-vector probes (Table 5's 2.5x TC gap).
        _step(self.cluster,
              streamed=8.0 * self.merge_reads + 8.0 * self.graph.num_edges,
              random=24.0 * self._probes, ops=4.0 * self.merge_reads)

    def diagnostics(self) -> dict:
        return {"merge_reads": self.merge_reads}


class GaloisCFEngine(Engine):
    """One SGD work item per rating edge, one superstep an iteration.

    "Each work-item in Galois performs the SGD update on a single edge
    (u, v) i.e. it updates both p_u and q_v" (Section 3.2) — the native
    schedule on its one node, at Galois's per-op efficiency and small
    scheduling overhead.
    """

    def __init__(self, program, ratings, cluster, options=None):
        # Native's toggles are accepted: they change nothing on one node.
        super().__init__(program, ratings, cluster)
        k, count = program.hidden_dim, float(ratings.num_ratings)
        cluster.allocate(0, "factors+ratings",
                         8.0 * k * (ratings.num_users + ratings.num_items)
                         / program.density + 24.0 * count)
        factor_bytes = 4.0 * k * 8.0 * count
        self._charge = (0.75 * factor_bytes + 16.0 * count,
                        0.25 * factor_bytes, 8.0 * k * count)

    def iteration_span(self, index: int):
        return self.cluster.trace_span("iteration", index=index, method="sgd")

    def sweep(self) -> None:
        _step(self.cluster, *self._charge)
