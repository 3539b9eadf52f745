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
from repro.algorithms.bfs import UNREACHED
from repro.algorithms.sssp import edge_weights_for
from repro.frameworks.matrix import (
    MIN_PLUS,
    OR_AND,
    PLUS_TIMES,
    DistSpMat,
    ProcessGrid,
    semiring_spmv,
)
from repro.frameworks.rounds import PROGRAMS
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


# -- the round programs against the products CombBLAS declares for them ----
#
# The matrix engine takes its values from the shared round programs and
# only its costs from DistSpMat.spmv_cost. These hold every round of every
# program to the semiring product Section 3.2 maps it to, and the cost the
# engine charges to the cost of actually running that product.


def oracle_product(dist, x, semiring, active, edge_values=None):
    """``y`` of the sparse product, its cost checked against the engine's.

    The engine charges ``spmv_cost(active)``: the rows it names must be
    exactly the entries of ``x`` that differ from the semiring zero, and
    its structural output presence must be the value presence of ``y``.
    """
    y, flops, traffic = dist.spmv(x, semiring, edge_values=edge_values,
                                  sparse_x=True)
    np.testing.assert_array_equal(np.flatnonzero(x != semiring.zero), active)
    charged_flops, charged_traffic = dist.spmv_cost(active)
    assert charged_flops == flops == \
        2.0 * dist.graph.out_degrees()[active].sum()
    np.testing.assert_array_equal(charged_traffic, traffic)
    reached = np.flatnonzero(y != semiring.zero)
    np.testing.assert_array_equal(
        reached, np.unique(dist.graph.neighbors_of_many(active)[0]))
    np.testing.assert_array_equal(traffic, dist.spmv_traffic(
        np.histogram(active, bins=dist.bounds)[0],
        np.histogram(reached, bins=dist.bounds)[0]))
    return y


def undirected(data):
    n, pairs = data
    return CSRGraph.from_edges(EdgeList.from_pairs(n, pairs),
                               symmetrize=True, drop_self_loops=True)


def indicator(n, active):
    x = np.zeros(n)
    x[active] = 1.0
    return x


program_graphs = given(edges_strategy(max_vertices=14, max_edges=45))
program_settings = settings(max_examples=25, deadline=None)


@program_settings
@program_graphs
def test_bfs_round_is_the_or_and_product(data):
    graph = undirected(data)
    dist = DistSpMat(graph, ProcessGrid(3))
    program = PROGRAMS["bfs"](graph, source=0)
    active = next(program.seeds())
    while active.size:
        unreached = program.values == UNREACHED
        y = oracle_product(dist, indicator(graph.num_vertices, active),
                           OR_AND, active)
        active, _ = program.round(active)
        np.testing.assert_array_equal(
            active, np.flatnonzero((y > 0) & unreached))


@pytest.mark.parametrize("algorithm", ["wcc", "sssp"])
@program_settings
@program_graphs
def test_min_fixpoint_round_is_the_min_plus_product(algorithm, data):
    graph = undirected(data)
    dist = DistSpMat(graph, ProcessGrid(3))
    program = PROGRAMS[algorithm](graph)
    # WCC's labels ride 0-valued edges: multiply(0, x) = x, min-reduce.
    edge_values = (np.zeros(graph.num_edges) if algorithm == "wcc"
                   else edge_weights_for(graph))
    active = next(program.seeds())
    while active.size:
        before = program.values.astype(np.float64)
        x = np.full(graph.num_vertices, np.inf)
        x[active] = before[active]
        y = oracle_product(dist, x, MIN_PLUS, active, edge_values)
        active, _ = program.round(active)
        merged = np.minimum(before, y)
        np.testing.assert_array_equal(program.values, merged)
        np.testing.assert_array_equal(active,
                                      np.flatnonzero(merged < before))


@program_settings
@program_graphs
def test_k_core_wave_is_the_plus_times_product(data):
    graph = undirected(data)
    dist = DistSpMat(graph, ProcessGrid(3))
    program = PROGRAMS["k_core"](graph)
    degrees = graph.out_degrees().astype(np.int64)
    for wave in program.seeds():
        while wave.size:
            # The removed-vertex indicator times the adjacency counts
            # the decrements every vertex receives.
            y = oracle_product(dist, indicator(graph.num_vertices, wave),
                               PLUS_TIMES, wave)
            degrees = degrees - np.rint(y).astype(np.int64)
            wave, _ = program.round(wave)
            np.testing.assert_array_equal(
                wave, np.flatnonzero(program.alive & (degrees < program.k)))


@program_settings
@program_graphs
def test_pagerank_sweep_is_the_plus_times_product(data):
    n, pairs = data
    graph = CSRGraph.from_edges(EdgeList.from_pairs(n, pairs),
                                deduplicate=True)
    dist = DistSpMat(graph, ProcessGrid(3))
    program = PROGRAMS["pagerank"](graph, iterations=3, damping=0.3)
    out_degrees = graph.out_degrees()
    for _ in range(program.iterations):
        scaled = np.where(out_degrees > 0,
                          program.values / np.maximum(out_degrees, 1), 0.0)
        y, flops, traffic = dist.spmv(scaled, PLUS_TIMES)
        program.round()
        np.testing.assert_array_equal(program.values, 0.3 + 0.7 * y)
        charged_flops, charged_traffic = dist.spmv_cost()
        assert charged_flops == flops == 2.0 * graph.num_edges
        np.testing.assert_array_equal(charged_traffic, traffic)


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
