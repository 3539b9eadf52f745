"""Tests for the Datalog engine and SociaLite front-end."""

import numpy as np
import pytest

from repro.algorithms import (
    bfs_reference,
    pagerank_reference,
    triangle_count_reference,
)
from repro.algorithms.registry import runner
from repro.cluster import Cluster, paper_cluster
from repro.datagen import netflix_like_ratings, rmat_graph, rmat_triangle_graph
from repro.errors import ReproError, SpecError
from repro.frameworks.datalog import (
    AggregateTable,
    Assign,
    Atom,
    Head,
    Rule,
    SocialiteEngine,
    TupleTable,
    Var,
    socialite,
)


@pytest.fixture(scope="module")
def graph_small():
    return rmat_graph(scale=9, edge_factor=6, seed=41)


@pytest.fixture(scope="module")
def graph_small_undirected():
    return rmat_graph(scale=9, edge_factor=6, seed=41, directed=False)


@pytest.fixture(scope="module")
def graph_triangles():
    return rmat_triangle_graph(scale=8, edge_factor=6, seed=42)


def make_cluster(nodes=1, **kwargs):
    return Cluster(paper_cluster(nodes), **kwargs)


class TestTables:
    def test_tuple_table_basics(self):
        table = TupleTable("edge", [np.array([0, 1, 0]), np.array([1, 2, 2])],
                           num_shards=2, key_universe=3)
        assert table.arity == 2
        assert table.num_rows == 3
        assert table.rows_per_shard().sum() == 3

    def test_ragged_columns_rejected(self):
        with pytest.raises(ReproError):
            TupleTable("bad", [np.array([0, 1]), np.array([1])])

    def test_tail_nested_lookup(self):
        table = TupleTable("edge", [np.array([2, 0, 0]), np.array([5, 1, 3])],
                           key_universe=3, tail_nested=True)
        rows, counts = table.lookup(np.array([0, 1, 2]))
        np.testing.assert_array_equal(counts, [2, 0, 1])
        np.testing.assert_array_equal(table.columns[1][rows], [1, 3, 5])

    def test_lookup_requires_tail_nesting(self):
        table = TupleTable("edge", [np.array([0]), np.array([1])])
        with pytest.raises(ReproError):
            table.lookup(np.array([0]))

    def test_aggregate_sum(self):
        table = AggregateTable("rank", 4, "sum")
        changed = table.combine(np.array([1, 1, 2]), np.array([1.0, 2.0, 5.0]))
        np.testing.assert_array_equal(changed, [1, 2])
        assert table.values[1] == 3.0

    def test_aggregate_min_monotone(self):
        table = AggregateTable("bfs", 4, "min")
        table.combine(np.array([1]), np.array([5.0]))
        changed = table.combine(np.array([1, 1]), np.array([7.0, 3.0]))
        np.testing.assert_array_equal(changed, [1])
        assert table.values[1] == 3.0
        # No improvement -> no change reported.
        assert table.combine(np.array([1]), np.array([9.0])).size == 0

    def test_aggregate_count(self):
        table = AggregateTable("tri", 1, "count")
        table.combine(np.zeros(5, dtype=np.int64), np.ones(5))
        assert table.values[0] == 5.0

    def test_unknown_agg_rejected(self):
        with pytest.raises(ReproError):
            AggregateTable("x", 4, "max")


class TestRuleEvaluation:
    def test_two_way_join(self):
        # path(z, $SUM(1)) :- start(x, v), edge(x, z): count paths from
        # defined starts.
        engine = SocialiteEngine(num_shards=1, vertex_universe=4)
        engine.add(TupleTable("edge", [np.array([0, 0, 1]),
                                       np.array([1, 2, 3])],
                              key_universe=4, tail_nested=True))
        start = AggregateTable("start", 4, "sum")
        start.combine(np.array([0]), np.array([1.0]))
        engine.add(start)
        paths = AggregateTable("paths", 4, "sum")
        engine.add(paths)

        x, z, v = Var("x"), Var("z"), Var("v")
        rule = Rule(head=Head("paths", z, 1.0, agg="sum"),
                    body=[Atom("start", x, v), Atom("edge", x, z)])
        stats = engine.evaluate(rule)
        np.testing.assert_array_equal(paths.values, [0, 1, 1, 0])
        assert stats.produced_tuples == 2

    def test_assignment_pipeline(self):
        engine = SocialiteEngine(num_shards=1, vertex_universe=3)
        vals = AggregateTable("vals", 3, "sum")
        vals.combine(np.array([0, 1, 2]), np.array([2.0, 4.0, 8.0]))
        engine.add(vals)
        out = AggregateTable("out", 3, "sum")
        engine.add(out)
        n, v = Var("n"), Var("v")
        rule = Rule(
            head=Head("out", n, Var("w"), agg="sum"),
            body=[Atom("vals", n, v)],
            assigns=[Assign("w", lambda v_: v_ * 10, ("v",))],
        )
        engine.evaluate(rule)
        np.testing.assert_array_equal(out.values, [20, 40, 80])

    def test_semi_join_filters(self):
        # closed(x, $SUM(1)) :- edge(x, y), edge(y, x): mutual edges.
        engine = SocialiteEngine(num_shards=1, vertex_universe=3)
        engine.add(TupleTable("edge", [np.array([0, 1, 1]),
                                       np.array([1, 0, 2])],
                              key_universe=3, tail_nested=True))
        closed = AggregateTable("closed", 3, "sum")
        engine.add(closed)
        x, y = Var("x"), Var("y")
        rule = Rule(head=Head("closed", x, 1.0, agg="sum"),
                    body=[Atom("edge", x, y), Atom("edge", y, x)])
        engine.evaluate(rule)
        np.testing.assert_array_equal(closed.values, [1, 1, 0])

    def test_unknown_table_raises(self):
        engine = SocialiteEngine()
        with pytest.raises(ReproError):
            engine.evaluate(Rule(head=Head("out", Var("x"), 1.0),
                                 body=[Atom("missing", Var("x"), Var("y"))]))

    def test_traffic_counted_across_shards(self, graph_small):
        engine = SocialiteEngine(num_shards=4,
                                 vertex_universe=graph_small.num_vertices)
        engine.add(TupleTable("edge",
                              [graph_small.sources(), graph_small.targets],
                              4, key_universe=graph_small.num_vertices,
                              tail_nested=True))
        seed = AggregateTable("seed", graph_small.num_vertices, "sum", 4)
        seed.combine(np.arange(graph_small.num_vertices),
                     np.ones(graph_small.num_vertices))
        engine.add(seed)
        out = AggregateTable("out", graph_small.num_vertices, "sum", 4)
        engine.add(out)
        s, t, v = Var("s"), Var("t"), Var("v")
        rule = Rule(head=Head("out", t, 1.0, agg="sum"),
                    body=[Atom("seed", s, v), Atom("edge", s, t)])
        stats = engine.evaluate(rule)
        assert stats.traffic.sum() > 0
        assert np.all(np.diag(stats.traffic) == 0)


class TestSociaLite:
    def test_pagerank_matches_reference(self, graph_small):
        result = socialite.pagerank(graph_small, make_cluster(2), iterations=4)
        np.testing.assert_allclose(
            result.values, pagerank_reference(graph_small, 4), rtol=1e-10
        )

    def test_bfs_matches_reference(self, graph_small_undirected):
        result = socialite.bfs(graph_small_undirected, make_cluster(2))
        np.testing.assert_array_equal(
            result.values, bfs_reference(graph_small_undirected, 0)
        )

    def test_triangles_match_reference(self, graph_triangles):
        result = socialite.triangle_count(graph_triangles, make_cluster(2))
        assert result.values == triangle_count_reference(graph_triangles)

    def test_cf_converges(self):
        ratings = netflix_like_ratings(scale=9, num_items=48, seed=43)
        result = runner("collaborative_filtering", "socialite")(
            ratings, make_cluster(2), hidden_dim=8, iterations=3
        )
        curve = result.extras["rmse_curve"]
        assert curve[-1] < curve[0]

    def test_network_optimization_speedup(self, graph_small):
        # Table 7: multi-socket networking speeds up network-bound
        # algorithms ~2.4x (PageRank) at 4 nodes.
        scale = 1e5
        published = socialite.pagerank(
            graph_small, Cluster(paper_cluster(4), scale_factor=scale),
            iterations=3, optimized=False,
        )
        optimized = socialite.pagerank(
            graph_small, Cluster(paper_cluster(4), scale_factor=scale),
            iterations=3, optimized=True,
        )
        speedup = (published.time_per_iteration_s
                   / optimized.time_per_iteration_s)
        assert speedup > 1.2

    def test_results_identical_under_both_stacks(self, graph_small):
        published = socialite.pagerank(graph_small, make_cluster(2),
                                       iterations=3, optimized=False)
        optimized = socialite.pagerank(graph_small, make_cluster(2),
                                       iterations=3, optimized=True)
        np.testing.assert_allclose(published.values, optimized.values)

    def test_validates_arguments(self, graph_small):
        with pytest.raises(SpecError):
            socialite.pagerank(graph_small, make_cluster(1), iterations=0)
        with pytest.raises(SpecError):
            socialite.bfs(graph_small, make_cluster(1), source=10**9)
