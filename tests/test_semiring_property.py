"""Property tests: semiring SpMV vs dense oracles; Datalog vs brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frameworks.datalog import (
    AggregateTable,
    Atom,
    Head,
    Rule,
    SocialiteEngine,
    TupleTable,
    Var,
)
from repro.frameworks.matrix import MIN_PLUS, OR_AND, PLUS_TIMES, semiring_spmv
from repro.graph import CSRGraph, EdgeList
from repro.kernels import BACKENDS, semiring_spmspv, use_backend

from .test_edgelist import edges_strategy


def dense_adjacency(graph):
    n = graph.num_vertices
    adjacency = np.zeros((n, n))
    adjacency[graph.sources(), graph.targets] = 1.0
    return adjacency


@settings(max_examples=40, deadline=None)
@given(edges_strategy(max_vertices=12, max_edges=40))
def test_plus_times_matches_dense(data):
    n, pairs = data
    graph = CSRGraph.from_edges(EdgeList.from_pairs(n, pairs).deduplicate())
    x = np.arange(1.0, n + 1.0)
    expected = dense_adjacency(graph).T @ x
    np.testing.assert_allclose(semiring_spmv(graph, x, PLUS_TIMES), expected)


@settings(max_examples=40, deadline=None)
@given(edges_strategy(max_vertices=12, max_edges=40))
def test_or_and_matches_reachability(data):
    n, pairs = data
    graph = CSRGraph.from_edges(EdgeList.from_pairs(n, pairs).deduplicate())
    x = np.zeros(n)
    x[: max(n // 2, 1)] = 1.0
    adjacency = dense_adjacency(graph)
    expected = ((adjacency.T @ x) > 0).astype(float)
    np.testing.assert_allclose(semiring_spmv(graph, x, OR_AND), expected)


@settings(max_examples=40, deadline=None)
@given(edges_strategy(max_vertices=10, max_edges=30))
def test_min_plus_single_relaxation(data):
    n, pairs = data
    graph = CSRGraph.from_edges(EdgeList.from_pairs(n, pairs).deduplicate())
    x = np.full(n, np.inf)
    x[0] = 0.0
    result = semiring_spmv(graph, x, MIN_PLUS)
    # Expected: 1 for out-neighbors of vertex 0, inf elsewhere.
    expected = np.full(n, np.inf)
    for v in graph.neighbors(0):
        expected[int(v)] = 1.0
    np.testing.assert_allclose(result, expected)


# -- SpMSpV: the sparse product is the dense product, bit for bit ----------


def sparse_case_graph(seed, num_vertices=240, num_edges=1400):
    """Duplicate-free random CSR; the top fifth of the ids is isolated."""
    rng = np.random.default_rng(seed)
    connected = num_vertices * 4 // 5
    edges = EdgeList(num_vertices, rng.integers(0, connected, num_edges),
                     rng.integers(0, connected, num_edges)).deduplicate()
    return CSRGraph.from_edges(edges)


def sparse_vector(graph, semiring, fraction, rng):
    """``x`` with about ``fraction`` of its entries present, plus them."""
    n = graph.num_vertices
    if fraction == "one":
        present = np.array([int(rng.integers(0, n))])
    else:
        present = np.flatnonzero(rng.random(n) < fraction)
    x = np.full(n, semiring.zero)
    # Non-integer values: a plus-times fold in any other edge order
    # would round differently and fail the exact comparison.
    x[present] = 1.0 if semiring is OR_AND else rng.random(present.size) + 0.5
    return x, present


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("fraction", [0.0, "one", 0.01, 0.5, 1.0])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("semiring", [PLUS_TIMES, MIN_PLUS, OR_AND],
                         ids=lambda s: s.name)
def test_spmspv_is_bit_identical_to_dense(semiring, weighted, fraction,
                                          backend):
    for seed in (11, 12):
        graph = sparse_case_graph(seed)
        rng = np.random.default_rng(seed)
        x, present = sparse_vector(graph, semiring, fraction, rng)
        edge_values = (rng.integers(1, 9, graph.num_edges).astype(np.float64)
                       if weighted else None)
        with use_backend(backend):
            dense = semiring_spmv(graph, x, semiring, edge_values)
            sparse = semiring_spmspv(graph, x, present, semiring, edge_values)
        assert sparse.dtype == dense.dtype
        assert np.array_equal(sparse, dense)
        # ... and the two backends agree with each other exactly.
        assert np.array_equal(
            sparse, semiring_spmspv(graph, x, present, semiring, edge_values))


@pytest.mark.parametrize("backend", BACKENDS)
def test_spmspv_validates_shapes_like_dense(backend):
    graph = sparse_case_graph(13)
    n, e = graph.num_vertices, graph.num_edges
    present = np.array([0])
    with use_backend(backend):
        for x, values in ((np.ones(n - 1), None), (np.ones((n, 1)), None),
                          (np.ones(n), np.ones(e - 1))):
            with pytest.raises(ValueError) as dense_error:
                semiring_spmv(graph, x, PLUS_TIMES, values)
            with pytest.raises(ValueError) as sparse_error:
                semiring_spmspv(graph, x, present, PLUS_TIMES, values)
            assert str(sparse_error.value) == str(dense_error.value)


class _NoEdgeListGraph:
    """CSR arrays only: expanding the whole edge list is an error."""

    def __init__(self, graph):
        self.num_vertices = graph.num_vertices
        self.num_edges = graph.num_edges
        self.offsets = graph.offsets
        self.targets = graph.targets

    def sources(self):
        raise AssertionError("SpMSpV expanded every edge's source")


@pytest.mark.parametrize("backend", BACKENDS)
def test_spmspv_never_expands_the_edge_list(backend):
    graph = sparse_case_graph(14)
    x, present = sparse_vector(graph, MIN_PLUS, 0.05,
                               np.random.default_rng(14))
    with use_backend(backend):
        expected = semiring_spmv(graph, x, MIN_PLUS)
        proxy = _NoEdgeListGraph(graph)
        assert np.array_equal(semiring_spmspv(proxy, x, present, MIN_PLUS),
                              expected)


@settings(max_examples=30, deadline=None)
@given(edges_strategy(max_vertices=10, max_edges=25))
def test_datalog_two_hop_matches_brute_force(data):
    """two_hop(z, $SUM(1)) :- edge(x, y), edge(y, z) counts 2-paths."""
    n, pairs = data
    edges = EdgeList.from_pairs(n, pairs).deduplicate()
    engine = SocialiteEngine(num_shards=1, vertex_universe=n)
    engine.add(TupleTable("edge", [edges.src, edges.dst], key_universe=n,
                          tail_nested=True))
    two_hop = AggregateTable("two_hop", n, "sum")
    engine.add(two_hop)

    x, y, z = Var("x"), Var("y"), Var("z")
    rule = Rule(head=Head("two_hop", z, 1.0, agg="sum"),
                body=[Atom("edge", x, y), Atom("edge", y, z)])
    engine.evaluate(rule)

    expected = np.zeros(n)
    pair_set = set(map(tuple, edges.pairs()))
    for (a, b) in pair_set:
        for (c, d) in pair_set:
            if b == c:
                expected[d] += 1
    np.testing.assert_allclose(two_hop.values, expected)


@settings(max_examples=30, deadline=None)
@given(edges_strategy(max_vertices=10, max_edges=25),
       st.integers(min_value=1, max_value=4))
def test_datalog_sharding_does_not_change_results(data, shards):
    """Rule results are shard-count invariant (only traffic changes)."""
    n, pairs = data
    edges = EdgeList.from_pairs(n, pairs).deduplicate()
    results = []
    for num_shards in (1, shards):
        engine = SocialiteEngine(num_shards=num_shards, vertex_universe=n)
        engine.add(TupleTable("edge", [edges.src, edges.dst], num_shards,
                              key_universe=n, tail_nested=True))
        seed = AggregateTable("seed", n, "sum", num_shards)
        seed.combine(np.arange(n), np.ones(n))
        engine.add(seed)
        out = AggregateTable("out", n, "sum", num_shards)
        engine.add(out)
        s, t, v = Var("s"), Var("t"), Var("v")
        rule = Rule(head=Head("out", t, 1.0, agg="sum"),
                    body=[Atom("seed", s, v), Atom("edge", s, t)])
        engine.evaluate(rule)
        results.append(out.values.copy())
    np.testing.assert_allclose(results[0], results[1])
