"""Tests for CSR graph storage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph import CSRGraph, EdgeList

from .test_edgelist import edges_strategy


def paper_example_graph():
    """The 4-vertex digraph of the paper's Figure 2."""
    return CSRGraph.from_edges(
        EdgeList.from_pairs(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    )


class TestConstruction:
    def test_paper_example(self):
        graph = paper_example_graph()
        assert graph.num_vertices == 4
        assert graph.num_edges == 5
        np.testing.assert_array_equal(graph.neighbors(0), [1, 2])
        np.testing.assert_array_equal(graph.neighbors(1), [2, 3])
        np.testing.assert_array_equal(graph.neighbors(2), [3])
        np.testing.assert_array_equal(graph.neighbors(3), [])

    def test_neighbors_sorted(self):
        graph = CSRGraph.from_edges(EdgeList.from_pairs(4, [(0, 3), (0, 1), (0, 2)]))
        np.testing.assert_array_equal(graph.neighbors(0), [1, 2, 3])

    def test_isolated_vertices(self):
        graph = CSRGraph.from_edges(EdgeList.from_pairs(5, [(0, 4)]))
        assert graph.degree(1) == 0
        assert graph.degree(0) == 1

    def test_invalid_offsets_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(2, np.array([0, 2]), np.array([0, 1]))
        with pytest.raises(GraphFormatError):
            CSRGraph(2, np.array([0, 2, 1]), np.array([0]))
        with pytest.raises(GraphFormatError):
            CSRGraph(2, np.array([0, 1, 2]), np.array([0, 5]))

    def test_weights_preserved_through_sort(self):
        edges = EdgeList(3, np.array([0, 0]), np.array([2, 1]),
                         weights=np.array([9.0, 4.0]))
        graph = CSRGraph.from_edges(edges)
        np.testing.assert_array_equal(graph.neighbors(0), [1, 2])
        np.testing.assert_array_equal(
            graph.edge_weights[graph.offsets[0]:graph.offsets[1]], [4.0, 9.0])


class TestViews:
    def test_reverse_is_transpose(self):
        graph = paper_example_graph()
        rev = graph.reverse()
        np.testing.assert_array_equal(rev.neighbors(2), [0, 1])
        np.testing.assert_array_equal(rev.neighbors(3), [1, 2])
        np.testing.assert_array_equal(rev.neighbors(0), [])

    def test_reverse_cached(self):
        graph = paper_example_graph()
        assert graph.reverse() is graph.reverse()

    def test_sources_expansion(self):
        graph = paper_example_graph()
        np.testing.assert_array_equal(graph.sources(), [0, 0, 1, 1, 2])

    def test_has_edge(self):
        graph = paper_example_graph()
        assert graph.has_edge(0, 2)
        assert not graph.has_edge(2, 0)
        assert not graph.has_edge(3, 3)

    def test_degree_bounds(self):
        graph = paper_example_graph()
        with pytest.raises(IndexError):
            graph.neighbors(4)


@settings(max_examples=50, deadline=None)
@given(edges_strategy())
def test_round_trip_matches_adjacency_dict(data):
    n, pairs = data
    edges = EdgeList.from_pairs(n, pairs).deduplicate()
    graph = CSRGraph.from_edges(edges)
    adjacency = {}
    for u, v in edges.pairs():
        adjacency.setdefault(int(u), set()).add(int(v))
    assert graph.num_edges == edges.num_edges
    for v in range(n):
        np.testing.assert_array_equal(
            graph.neighbors(v), sorted(adjacency.get(v, ()))
        )


@settings(max_examples=50, deadline=None)
@given(edges_strategy())
def test_double_reverse_is_identity(data):
    n, pairs = data
    edges = EdgeList.from_pairs(n, pairs).deduplicate()
    graph = CSRGraph.from_edges(edges)
    back = graph.reverse().reverse()
    np.testing.assert_array_equal(back.offsets, graph.offsets)
    np.testing.assert_array_equal(back.targets, graph.targets)
