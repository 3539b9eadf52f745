"""Deeper engine-internal tests: datalog evaluator, 2-D matrix engine."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.frameworks.datalog import (
    AggregateTable,
    Assign,
    Atom,
    Head,
    Rule,
    SocialiteEngine,
    TupleTable,
    Var,
)
from repro.frameworks.matrix import PLUS_TIMES, DistSpMat, ProcessGrid
from repro.graph import CSRGraph, EdgeList


def small_engine():
    engine = SocialiteEngine(num_shards=2, vertex_universe=6)
    engine.add(TupleTable("edge", [np.array([0, 0, 1, 4]),
                                   np.array([1, 2, 3, 5])],
                          num_shards=2, key_universe=6, tail_nested=True))
    return engine


class TestDatalogEvaluatorEdgeCases:
    def test_constant_in_body_atom_filters(self):
        engine = small_engine()
        out = AggregateTable("out", 6, "sum", 2)
        engine.add(out)
        # out(y, $SUM(1)) :- edge(0, y): only vertex 0's edges.
        rule = Rule(head=Head("out", Var("y"), 1.0, agg="sum"),
                    body=[Atom("edge", 0, Var("y"))])
        engine.evaluate(rule)
        np.testing.assert_array_equal(out.values, [0, 1, 1, 0, 0, 0])

    def test_delta_restriction_on_tuple_table(self):
        engine = small_engine()
        out = AggregateTable("out", 6, "sum", 2)
        engine.add(out)
        rule = Rule(head=Head("out", Var("y"), 1.0, agg="sum"),
                    body=[Atom("edge", Var("x"), Var("y"))])
        engine.evaluate(rule, delta_keys=np.array([4]))
        np.testing.assert_array_equal(out.values, [0, 0, 0, 0, 0, 1])

    def test_empty_delta_produces_nothing(self):
        engine = small_engine()
        out = AggregateTable("out", 6, "sum", 2)
        engine.add(out)
        rule = Rule(head=Head("out", Var("y"), 1.0, agg="sum"),
                    body=[Atom("edge", Var("x"), Var("y"))])
        stats = engine.evaluate(rule, delta_keys=np.array([], dtype=np.int64))
        assert stats.produced_tuples == 0
        assert stats.changed.size == 0

    def test_join_on_non_tail_nested_rejected(self):
        engine = SocialiteEngine(num_shards=1, vertex_universe=4)
        engine.add(TupleTable("flat", [np.array([0]), np.array([1])],
                              key_universe=4, tail_nested=False))
        seed = AggregateTable("seed", 4, "sum")
        seed.combine(np.array([0]), np.array([1.0]))
        engine.add(seed)
        engine.add(AggregateTable("out", 4, "sum"))
        rule = Rule(head=Head("out", Var("y"), 1.0, agg="sum"),
                    body=[Atom("seed", Var("x"), Var("v")),
                          Atom("flat", Var("x"), Var("y"))])
        with pytest.raises(ReproError, match="tail-nested"):
            engine.evaluate(rule)

    def test_head_must_be_aggregate_table(self):
        engine = small_engine()
        rule = Rule(head=Head("edge", Var("y"), 1.0, agg="sum"),
                    body=[Atom("edge", Var("x"), Var("y"))])
        with pytest.raises(ReproError, match="aggregate"):
            engine.evaluate(rule)

    def test_aggregate_atom_needs_bound_key(self):
        engine = small_engine()
        values = AggregateTable("vals", 6, "sum", 2)
        engine.add(values)
        engine.add(AggregateTable("out", 6, "sum", 2))
        rule = Rule(head=Head("out", Var("y"), Var("w"), agg="sum"),
                    body=[Atom("edge", Var("x"), Var("y")),
                          Atom("vals", Var("unbound"), Var("w"))])
        with pytest.raises(ReproError, match="key bound"):
            engine.evaluate(rule)

    def test_work_share_sums_to_one(self):
        engine = small_engine()
        out = AggregateTable("out", 6, "sum", 2)
        engine.add(out)
        rule = Rule(head=Head("out", Var("y"), 1.0, agg="sum"),
                    body=[Atom("edge", Var("x"), Var("y"))])
        stats = engine.evaluate(rule)
        assert stats.work_share.sum() == pytest.approx(1.0)

    def test_assign_chain(self):
        engine = small_engine()
        out = AggregateTable("out", 6, "sum", 2)
        engine.add(out)
        rule = Rule(
            head=Head("out", Var("y"), Var("b"), agg="sum"),
            body=[Atom("edge", Var("x"), Var("y"))],
            assigns=[Assign("a", lambda x: x + 1.0, ("x",)),
                     Assign("b", lambda a: a * 2.0, ("a",))],
        )
        engine.evaluate(rule)
        # edge (0,1): b = 2; (0,2): 2; (1,3): 4; (4,5): 10.
        np.testing.assert_array_equal(out.values, [0, 2, 2, 4, 0, 10])


class TestDistSpMatInternals:
    def graph(self):
        return CSRGraph.from_edges(EdgeList.from_pairs(
            8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
                (7, 0), (0, 4)]
        ))

    def test_band_sizes_cover_vertices(self):
        dist = DistSpMat(self.graph(), ProcessGrid(2))
        assert dist.band_sizes().sum() == 8

    def test_traffic_symmetric_for_dense_spmv(self):
        dist = DistSpMat(self.graph(), ProcessGrid(4))
        _, _, traffic = dist.spmv(np.ones(8), PLUS_TIMES)
        assert np.all(np.diag(traffic) == 0)
        assert traffic.sum() >= 0

    def test_empty_frontier_spmv(self):
        dist = DistSpMat(self.graph(), ProcessGrid(2))
        y, flops, traffic = dist.spmv(np.zeros(8), PLUS_TIMES,
                                      sparse_x=True)
        assert flops == 0
        assert traffic.sum() == 0
        np.testing.assert_array_equal(y, np.zeros(8))

    def test_spgemm_on_path_graph_has_no_triangles(self):
        graph = CSRGraph.from_edges(
            EdgeList.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        )
        dist = DistSpMat(graph, ProcessGrid(1))
        product, _, _ = dist.spgemm_aa()
        count, _ = dist.ewise_mult_sum(product)
        assert count == 0

    def test_ewise_flops_proportional_to_nnz(self):
        dist = DistSpMat(self.graph(), ProcessGrid(1))
        product, _, _ = dist.spgemm_aa()
        _, flops = dist.ewise_mult_sum(product)
        assert flops == 2.0 * dist.nnz
