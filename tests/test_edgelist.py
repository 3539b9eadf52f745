"""Tests for EdgeList preprocessing (paper Section 4.1.2 pipeline)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph import EdgeList


def edges_strategy(max_vertices=30, max_edges=80):
    return st.integers(min_value=1, max_value=max_vertices).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                ),
                max_size=max_edges,
            ),
        )
    )


class TestConstruction:
    def test_from_pairs(self):
        edges = EdgeList.from_pairs(4, [(0, 1), (1, 2)])
        assert edges.num_edges == 2
        np.testing.assert_array_equal(edges.src, [0, 1])
        np.testing.assert_array_equal(edges.dst, [1, 2])

    def test_out_of_range_endpoint_raises(self):
        with pytest.raises(GraphFormatError):
            EdgeList.from_pairs(2, [(0, 2)])
        with pytest.raises(GraphFormatError):
            EdgeList(2, np.array([-1]), np.array([0]))

    def test_mismatched_arrays_raise(self):
        with pytest.raises(GraphFormatError):
            EdgeList(3, np.array([0, 1]), np.array([1]))

    def test_weights_must_align(self):
        with pytest.raises(GraphFormatError):
            EdgeList(3, np.array([0]), np.array([1]), weights=np.array([1.0, 2.0]))

    def test_empty_edge_list(self):
        edges = EdgeList.from_pairs(5, [])
        assert edges.num_edges == 0
        assert edges.deduplicate().num_edges == 0


class TestPreprocessing:
    def test_deduplicate(self):
        edges = EdgeList.from_pairs(3, [(0, 1), (0, 1), (1, 2), (0, 1)])
        deduped = edges.deduplicate()
        assert deduped.num_edges == 2
        assert set(map(tuple, deduped.pairs())) == {(0, 1), (1, 2)}

    def test_deduplicate_keeps_first_weight(self):
        edges = EdgeList(3, np.array([0, 0]), np.array([1, 1]),
                         weights=np.array([5.0, 9.0]))
        deduped = edges.deduplicate()
        assert deduped.num_edges == 1
        assert deduped.weights[0] == 5.0

    def test_drop_self_loops(self):
        edges = EdgeList.from_pairs(3, [(0, 0), (0, 1), (2, 2)])
        cleaned = edges.drop_self_loops()
        assert set(map(tuple, cleaned.pairs())) == {(0, 1)}

    def test_symmetrize(self):
        edges = EdgeList.from_pairs(3, [(0, 1), (1, 2)])
        sym = edges.symmetrize()
        assert set(map(tuple, sym.pairs())) == {(0, 1), (1, 0), (1, 2), (2, 1)}

    def test_symmetrize_idempotent_on_symmetric_input(self):
        edges = EdgeList.from_pairs(2, [(0, 1), (1, 0)])
        assert edges.symmetrize().num_edges == 2

    def test_orient_by_id_removes_cycles_and_loops(self):
        edges = EdgeList.from_pairs(3, [(1, 0), (0, 1), (2, 2), (1, 2)])
        oriented = edges.orient_by_id()
        pairs = set(map(tuple, oriented.pairs()))
        assert pairs == {(0, 1), (1, 2)}
        assert all(u < v for u, v in pairs)

    def test_permuted_preserves_multiset(self):
        rng = np.random.default_rng(3)
        edges = EdgeList.from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        shuffled = edges.permuted(rng)
        assert sorted(map(tuple, shuffled.pairs())) == sorted(map(tuple, edges.pairs()))


class TestDegrees:
    def test_degrees(self):
        edges = EdgeList.from_pairs(3, [(0, 1), (0, 2), (1, 2)])
        np.testing.assert_array_equal(edges.out_degrees(), [2, 1, 0])
        np.testing.assert_array_equal(edges.in_degrees(), [0, 1, 2])


@settings(max_examples=50, deadline=None)
@given(edges_strategy())
def test_dedup_then_orient_invariants(data):
    n, pairs = data
    edges = EdgeList.from_pairs(n, pairs)
    oriented = edges.orient_by_id()
    # No duplicates, no self loops, all ascending.
    seen = set(map(tuple, oriented.pairs()))
    assert len(seen) == oriented.num_edges
    assert all(u < v for u, v in seen)
    # Orientation preserves the undirected edge set (minus loops).
    undirected = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    assert seen == undirected


@settings(max_examples=50, deadline=None)
@given(edges_strategy())
def test_symmetrize_invariants(data):
    n, pairs = data
    sym = EdgeList.from_pairs(n, pairs).symmetrize()
    pair_set = set(map(tuple, sym.pairs()))
    assert len(pair_set) == sym.num_edges
    for u, v in pair_set:
        assert (v, u) in pair_set
