"""SociaLite front-end: the paper's Datalog programs, executed for real.

The rules below are the ones printed in the paper; each runner parses
its rule from this notation and evaluates it over the graph's own CSR
(:meth:`TupleTable.of_graph`):

* PageRank (Section 3.1, distributed version)::

      RANK[n](t+1, $SUM(v)) :- v = r
                             :- RANK[s](t, v0), OUTEDGE[s](n),
                                OUTDEG[s](d), v = (1-r) v0 / d.

* BFS (Section 3.2), evaluated semi-naively as in [31]::

      BFS(t, $MIN(d)) :- t = SRC, d = 0
                      :- BFS(s, d0), EDGE(s, t), d = d0 + 1.

* Triangle counting (Section 3.2), a three-way join::

      TRIANGLE(0, $INC(1)) :- EDGE(x, y), EDGE(y, z), EDGE(x, z).

* Collaborative filtering: vector tables joined with the rating table;
  "it is helpful to transfer the tables to target machines in the
  beginning of each iteration, so that the rest of the computations do
  not involve any communication" (Section 3.2). The factorization is the
  shared round program; :class:`TableCFEngine` charges it as a bulk
  prefetch of the needed factor rows.

Two network stacks are provided (Section 6.1.3 / Table 7): the published
single-socket SociaLite and the optimized multi-socket version. Pass
``optimized=False`` for the former; the packaged default is the latter,
matching the paper ("the results in this paper correspond to the
optimized version").
"""

from __future__ import annotations

import numpy as np

from ...algorithms.triangles import require_oriented
from ...cluster import Cluster, ComputeWork, node_volumes
from ...errors import ExpressibilityError
from ...frameworks.base import SOCIALITE, SOCIALITE_PUBLISHED, FrameworkProfile
from ...graph import CSRGraph, partition_vertices_1d
from ...kernels.segments import distinct, list_traffic, pair_traffic
from ..results import AlgorithmResult
from ..rounds import Engine, check_params
from .engine import EvalStats, SocialiteEngine
from .parser import parse_rule
from .rules import Rule
from .table import AggregateTable, TupleTable


def _profile(optimized: bool,
             override: FrameworkProfile = None) -> FrameworkProfile:
    if override is not None:
        return override
    return SOCIALITE if optimized else SOCIALITE_PUBLISHED


def _charge(cluster: Cluster, profile: FrameworkProfile, stats: EvalStats,
            extra_streamed: float = 0.0) -> None:
    """Convert one rule evaluation's stats into a cluster superstep."""
    share = stats.work_share if stats.work_share is not None else \
        np.full(cluster.num_nodes, 1.0 / cluster.num_nodes)
    traffic = stats.traffic * profile.message_overhead_factor
    span = cluster.trace_span("rule-eval",
                              scanned_bytes=stats.scanned_bytes,
                              join_rows=stats.join_output_rows,
                              produced=stats.produced_tuples)
    work = ComputeWork(
        # Tail-nested tables are CSR-shaped, so scans stream; the
        # per-tuple head updates and dense-array probes are irregular at
        # cache-line granularity.
        streamed_bytes=(stats.scanned_bytes * share
                        + extra_streamed / cluster.num_nodes
                        + 2.0 * node_volumes(traffic)),
        random_bytes=0.5 * stats.scanned_bytes * share,
        ops=stats.ops * share,
        cpu_efficiency=profile.cpu_efficiency,
        cores_fraction=profile.cores_fraction,
        prefetch=profile.prefetch,
    )
    with span:
        cluster.superstep(work, traffic,
                          overlap=profile.overlaps_communication,
                          layer=profile.comm_layer,
                          overhead_s=profile.superstep_overhead_s)


def _database(graph: CSRGraph, cluster: Cluster, edge: str, *tables,
              weights=()) -> SocialiteEngine:
    """The cell's engine: ``graph`` as the tail-nested table ``edge``
    (``weights`` its third column, if given) plus ``tables``, allocated
    on ``cluster``.
    """
    engine = SocialiteEngine(cluster.num_nodes,
                             vertex_universe=graph.num_vertices,
                             tracer=cluster.tracer)
    engine.add(TupleTable.of_graph(edge, graph, *weights,
                                   num_shards=cluster.num_nodes))
    for table in tables:
        engine.add(table)
    total = sum(table.nbytes() for table in engine.tables.values())
    cluster.allocate_all("tables", 1.5 * total / cluster.num_nodes)
    return engine


def _semi_naive(cluster: Cluster, profile: FrameworkProfile,
                engine: SocialiteEngine, rule: Rule, changed) -> int:
    """Evaluate a recursive rule on its delta until nothing changes.

    One round per delta set, each charged as a rule evaluation; returns
    the number of rounds. ``frontier_size`` counts every round's delta.
    """
    rounds = 0
    while changed.size:
        rounds += 1
        cluster.tracer.count("frontier_size", int(changed.size))
        with cluster.trace_span("round", index=rounds,
                                delta=int(changed.size)):
            stats = engine.evaluate(rule, delta_keys=changed)
            _charge(cluster, profile, stats)
            cluster.mark_iteration()
        changed = stats.changed
    return rounds


def pagerank(graph: CSRGraph, cluster: Cluster, iterations: int = 10,
             damping: float = 0.3, optimized: bool = True,
             profile_override: FrameworkProfile = None) -> AlgorithmResult:
    """The paper's distributed PageRank rules, iterated."""
    check_params(iterations=iterations, damping=damping)
    profile = _profile(optimized, profile_override)
    n = graph.num_vertices
    outdeg = AggregateTable("outdeg", n, "sum", cluster.num_nodes)
    outdeg.combine(np.arange(n), graph.out_degrees().astype(np.float64))
    rank = AggregateTable("rank", n, "sum", cluster.num_nodes)
    rank.combine(np.arange(n), np.ones(n))
    rank_next = AggregateTable("rank_next", n, "sum", cluster.num_nodes)
    engine = _database(graph, cluster, "outedge", outdeg, rank, rank_next)

    # RANK_NEXT double-buffers the paper's RANK[n](t+1, ...). A joined s
    # has out-edges, so d >= 1.
    constants = {"r": float(damping)}
    main_rule = parse_rule("RANK_NEXT[n]($SUM(v)) :- RANK[s](v0), "
                           "OUTEDGE[s](n), OUTDEG[s](d), v = (1-r)*v0/d.",
                           constants)
    const_rule = parse_rule("RANK_NEXT[n]($SUM(r)) :- OUTDEG[n](d).",
                            constants)

    for iteration in range(iterations):
        with cluster.trace_span("iteration", index=iteration):
            rank_next.reset()
            stats_const = engine.evaluate(const_rule)
            stats_main = engine.evaluate(main_rule)
            stats_main.scanned_bytes += stats_const.scanned_bytes
            stats_main.ops += stats_const.ops
            _charge(cluster, profile, stats_main)
            cluster.mark_iteration()
            rank.values[:] = rank_next.values
            rank.present[:] = True

    ranks = rank.values.copy()
    return AlgorithmResult(
        algorithm="pagerank", framework=profile.name, values=ranks,
        iterations=iterations, metrics=cluster.metrics(),
        extras={"optimized": optimized},
    )


def bfs(graph: CSRGraph, cluster: Cluster, source: int = 0,
        optimized: bool = True) -> AlgorithmResult:
    """The recursive BFS rule, evaluated semi-naively to fixpoint."""
    check_params(graph.num_vertices, source=source)
    profile = _profile(optimized)
    bfs_table = AggregateTable("bfs", graph.num_vertices, "min",
                               cluster.num_nodes)
    engine = _database(graph, cluster, "edge", bfs_table)
    rule = parse_rule("BFS(t, $MIN(d)) :- BFS(s, d0), EDGE(s, t), "
                      "d = d0 + 1.")
    changed = bfs_table.combine(np.array([source]), np.array([0.0]))
    rounds = _semi_naive(cluster, profile, engine, rule, changed)

    from ...algorithms.bfs import UNREACHED
    distances = np.where(bfs_table.present,
                         bfs_table.values, UNREACHED).astype(np.int64)
    return AlgorithmResult(
        algorithm="bfs", framework=profile.name,
        values=distances.astype(np.int32), iterations=rounds,
        metrics=cluster.metrics(),
        extras={"optimized": optimized,
                "reached": int(bfs_table.present.sum())},
    )


def triangle_count(graph: CSRGraph, cluster: Cluster,
                   optimized: bool = True) -> AlgorithmResult:
    """The three-way join TRIANGLE(0, $INC(1)) :- EDGE, EDGE, EDGE."""
    require_oriented(graph)
    profile = _profile(optimized)
    triangle = AggregateTable("triangle", 1, "count", cluster.num_nodes)
    engine = _database(graph, cluster, "edge", triangle)
    stats = engine.evaluate(parse_rule(
        "TRIANGLE(0, $INC(1)) :- EDGE(x, y), EDGE(y, z), EDGE(x, z)."))

    # Distributed join shipping, which the local evaluator cannot see.
    # EDGE is sharded by its first column, so the (x, y) bindings and the
    # final EDGE(x, z) probe are both local to shard(x); what must move
    # is N(y) for every remote y in the middle atom — each unique
    # (y, requesting-shard) pair ships deg(y) ids. This is the same wire
    # pattern as the native/vertex neighborhood exchange, carried as
    # Java-serialized tuples (the profile's byte overhead applies in
    # ``_charge``), and it is what makes SociaLite's triangle counting
    # network-bound (Table 7) while staying best-in-class (Section 5.3).
    # Both terms are whole numbers of bytes (16-byte head tuples, 8-byte
    # ids), so their float64 sums are exact in any order.
    shard = engine.shard_partition
    stats.traffic += list_traffic(
        graph.targets, shard.owner_of_many(graph.sources()),
        shard.owner_of_many, 8.0 * graph.out_degrees(), cluster.num_nodes)

    # Each length-2-path binding is materialized as a fresh tuple before
    # the semi-join (allocation + copy + later scan): ~40 bytes of
    # traffic per path in the JVM heap.
    _charge(cluster, profile, stats,
            extra_streamed=40.0 * stats.join_output_rows)
    cluster.mark_iteration()

    return AlgorithmResult(
        algorithm="triangle_counting", framework=profile.name,
        values=int(triangle.values[0]), iterations=1,
        metrics=cluster.metrics(),
        extras={"optimized": optimized,
                "paths_materialized": stats.join_output_rows},
    )


class TableCFEngine(Engine):
    """Gradient descent with SociaLite's bulk table-transfer pattern.

    Users are sharded by range, item rows owned by range too. Each
    iteration prefetches the item-vector rows each user shard's ratings
    touch ("transfer the tables to target machines in the beginning of
    each iteration"), computes locally, then ships the updated rows
    back: one superstep whose traffic is the unique (user shard, item)
    pairs, vertex-proportional and so density-corrected.
    """

    def __init__(self, program, ratings, cluster, optimized: bool = True):
        super().__init__(program, ratings, cluster)
        self.optimized = optimized
        self.profile = profile = _profile(optimized)
        nodes, density = cluster.num_nodes, program.density
        user_part = partition_vertices_1d(max(ratings.num_users, 1), nodes)
        item_part = partition_vertices_1d(max(ratings.num_items, 1), nodes)
        user_shard = user_part.owner_of_many(ratings.users)
        pair = user_shard * np.int64(ratings.num_items) + ratings.items
        unique_pairs = distinct(pair, nodes * ratings.num_items)
        pair_node = (unique_pairs // ratings.num_items).astype(np.int64)
        pair_item_owner = item_part.owner_of_many(
            unique_pairs % ratings.num_items)
        row_bytes = 8.0 * program.hidden_dim
        cross = pair_node != pair_item_owner
        traffic = pair_traffic(pair_item_owner[cross], pair_node[cross],
                               row_bytes, nodes)
        self._traffic = traffic = (traffic + traffic.T) \
            * profile.message_overhead_factor / density
        per_node = np.bincount(user_shard, minlength=nodes).astype(float)
        cluster.allocate_all("tables",
                             row_bytes * (ratings.num_users / nodes) / density
                             + row_bytes * (ratings.num_items / nodes) / density
                             + 24.0 * per_node)
        # Vector payloads live in Java object arrays: the profile's
        # serialization factor inflates the touched bytes and half of
        # the row accesses are effectively irregular.
        factor_bytes = 4.0 * row_bytes * per_node \
            * profile.message_overhead_factor
        self._work = ComputeWork(
            streamed_bytes=0.5 * factor_bytes + 24.0 * per_node
            + 2.0 * node_volumes(traffic),
            random_bytes=0.5 * factor_bytes,
            ops=8.0 * program.hidden_dim * per_node,
            cpu_efficiency=profile.cpu_efficiency,
            cores_fraction=profile.cores_fraction,
        )

    def sweep(self) -> None:
        profile = self.profile
        self.cluster.superstep(self._work, self._traffic,
                               overlap=profile.overlaps_communication,
                               layer=profile.comm_layer,
                               overhead_s=profile.superstep_overhead_s)

    def diagnostics(self) -> dict:
        return {"optimized": self.optimized}


# ---------------------------------------------------------------------------
# Second-generation workloads.
# ---------------------------------------------------------------------------


def wcc(graph: CSRGraph, cluster: Cluster,
        optimized: bool = True) -> AlgorithmResult:
    """Recursive min-component rule, evaluated semi-naively::

        COMP(t, $MIN(c)) :- t = c              (every vertex seeds itself)
                         :- COMP(s, c), EDGE(s, t).

    The $MIN lattice makes the recursion monotone, so the delta
    evaluation converges to the min-id labelling on symmetrized graphs.
    """
    profile = _profile(optimized)
    n = graph.num_vertices
    comp = AggregateTable("comp", n, "min", cluster.num_nodes)
    engine = _database(graph, cluster, "edge", comp)
    rule = parse_rule("COMP(t, $MIN(c)) :- COMP(s, c), EDGE(s, t).")
    changed = comp.combine(np.arange(n), np.arange(n, dtype=np.float64))
    rounds = _semi_naive(cluster, profile, engine, rule, changed)

    labels = comp.values.astype(np.int64)
    return AlgorithmResult(
        algorithm="wcc", framework=profile.name, values=labels,
        iterations=rounds, metrics=cluster.metrics(),
        extras={"optimized": optimized,
                "components": int(np.unique(labels).size)},
    )


def sssp(graph: CSRGraph, cluster: Cluster, source: int = 0,
         optimized: bool = True) -> AlgorithmResult:
    """The BFS rule with a weighted 3-column edge table::

        DIST(t, $MIN(d)) :- t = SRC, d = 0
                         :- DIST(s, d0), EDGE(s, t, w), d = d0 + w.
    """
    from ...algorithms.sssp import edge_weights_for

    check_params(graph.num_vertices, source=source)
    profile = _profile(optimized)
    dist = AggregateTable("dist", graph.num_vertices, "min",
                          cluster.num_nodes)
    engine = _database(graph, cluster, "edge", dist,
                       weights=(edge_weights_for(graph),))
    rule = parse_rule("DIST(t, $MIN(d)) :- DIST(s, d0), EDGE(s, t, w), "
                      "d = d0 + w.")
    changed = dist.combine(np.array([source]), np.array([0.0]))
    rounds = _semi_naive(cluster, profile, engine, rule, changed)

    distances = np.where(dist.present, dist.values, np.inf)
    return AlgorithmResult(
        algorithm="sssp", framework=profile.name, values=distances,
        iterations=rounds, metrics=cluster.metrics(),
        extras={"optimized": optimized,
                "reached": int(dist.present.sum())},
    )


def k_core(graph: CSRGraph, cluster: Cluster,
           optimized: bool = True) -> AlgorithmResult:
    """Unsupported: peeling retracts facts, which Datalog cannot express.

    k-core deletes vertices and *lowers* degrees as it runs — a
    non-monotone computation. SociaLite's recursion converges only for
    monotone lattice aggregations ($MIN/$SUM/$INC over a meet
    semi-lattice, Section 3.1); there is no retraction mechanism to
    un-derive a vertex's degree once peeling removes a neighbor, so the
    decomposition is outside the language's expressible fragment.
    """
    raise ExpressibilityError(
        "socialite cannot express k_core: peeling requires retracting "
        "derived degree facts (non-monotone deletion cascades), but "
        "SociaLite recursion only converges for monotone lattice "
        "aggregations like $MIN/$SUM"
    )


def label_propagation(graph: CSRGraph, cluster: Cluster, iterations: int = 3,
                      seed: int = 0,
                      optimized: bool = True) -> AlgorithmResult:
    """Unsupported: the mode (most frequent label) is not a lattice.

    Each round's winner is the *most frequent* neighbor label — an
    argmax over counts that is neither associative-idempotent nor
    monotone, so it cannot be an $AGG head: SociaLite offers $MIN/$MAX/
    $SUM/$INC style lattice folds only, and a frequency argmax cannot be
    decomposed into them without per-(vertex, label) group-by state the
    language does not provide.
    """
    raise ExpressibilityError(
        "socialite cannot express label_propagation: the per-round "
        "most-frequent-label update is an argmax over counts, not a "
        "monotone lattice aggregation, so it has no $AGG encoding"
    )
