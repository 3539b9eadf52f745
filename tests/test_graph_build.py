"""The one-key-sort graph build against plain-Python references.

Every CSR — dense, reversed, sharded — comes from sorting one int64 key
per edge (``repro.graph.keys``). These properties pin that build to what
the paper's preprocessing means, computed the slow obvious way with
``sorted(set(...))``, and to the retained ``EdgeList`` methods.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph import (
    CSRGraph,
    EdgeList,
    ShardedCSRGraph,
    build_sharded_csr,
    graph_digests,
)
from repro.graph.keys import edge_keys

from .test_edgelist import edges_strategy

#: mode -> (``from_edges`` flags, the same preprocessing on an EdgeList).
MODES = {
    "directed": (dict(deduplicate=True, drop_self_loops=True),
                 lambda edges: edges.drop_self_loops().deduplicate()),
    "symmetrize": (dict(drop_self_loops=True, symmetrize=True),
                   lambda edges: edges.drop_self_loops().symmetrize()),
    "orient_by_id": (dict(orient_by_id=True),
                     lambda edges: edges.orient_by_id()),
}


def reference_adjacency(pairs, weights, mode):
    """``{(src, dst): first weight seen}`` after the mode's preprocessing."""
    edges = {}
    reversed_edges = {}
    for (u, v), w in zip(pairs, weights):
        if u == v:
            continue
        if mode == "orient_by_id":
            u, v = min(u, v), max(u, v)
        edges.setdefault((u, v), w)
        if mode == "symmetrize":
            reversed_edges.setdefault((v, u), w)
    # Reversed edges come after every original in input order.
    for pair, w in reversed_edges.items():
        edges.setdefault(pair, w)
    return edges


def assert_is_adjacency(graph, n, adjacency, weighted):
    ordered = sorted(adjacency)
    assert graph.num_vertices == n
    assert graph.sources().tolist() == [u for u, _ in ordered]
    assert graph.targets.tolist() == [v for _, v in ordered]
    if weighted:
        assert graph.edge_weights.tolist() == [adjacency[p] for p in ordered]
    else:
        assert graph.edge_weights is None


def weights_of(pairs):
    """Distinct per-edge weights, so a wrong survivor is visible."""
    return [float(i) for i in range(len(pairs))]


@settings(max_examples=60, deadline=None)
@given(edges_strategy(), st.sampled_from(sorted(MODES)), st.booleans())
@example((5, []), "symmetrize", True)                      # empty
@example((3, [(1, 1), (2, 2), (1, 1)]), "directed", True)  # all self loops
@example((9, [(0, 1)] * 6 + [(1, 0)] * 3), "symmetrize", True)  # duplicates
@example((9, [(7, 2), (2, 7)]), "orient_by_id", False)     # isolated ids
def test_build_equals_the_plain_python_reference(data, mode, weighted):
    n, pairs = data
    weights = weights_of(pairs)
    edges = EdgeList.from_pairs(n, pairs, weights if weighted else None)
    flags, edgelist_chain = MODES[mode]
    graph = CSRGraph.from_edges(edges, **flags)
    assert_is_adjacency(graph, n, reference_adjacency(pairs, weights, mode),
                        weighted)

    chained = CSRGraph.from_edges(edgelist_chain(edges))
    assert np.array_equal(graph.offsets, chained.offsets)
    assert np.array_equal(graph.targets, chained.targets)
    if weighted and mode != "orient_by_id":   # EdgeList.orient_by_id drops them
        assert np.array_equal(graph.edge_weights, chained.edge_weights)


@settings(max_examples=40, deadline=None)
@given(edges_strategy())
def test_plain_build_keeps_parallel_edges_in_input_order(data):
    n, pairs = data
    weights = weights_of(pairs)
    graph = CSRGraph.from_edges(EdgeList.from_pairs(n, pairs, weights))
    ordered = sorted(zip(pairs, weights), key=lambda item: item[0])
    assert graph.num_edges == len(pairs)
    assert graph.targets.tolist() == [v for (_, v), _ in ordered]
    assert graph.edge_weights.tolist() == [w for _, w in ordered]


@settings(max_examples=40, deadline=None)
@given(edges_strategy(), st.booleans())
def test_reverse_twice_round_trips(data, weighted):
    n, pairs = data
    edges = EdgeList.from_pairs(n, pairs,
                                weights_of(pairs) if weighted else None)
    graph = CSRGraph.from_edges(edges)
    transposed = graph.reverse()
    assert sorted(zip(transposed.sources().tolist(),
                      transposed.targets.tolist())) \
        == sorted((v, u) for u, v in pairs)
    back = transposed.reverse()
    assert np.array_equal(back.offsets, graph.offsets)
    assert np.array_equal(back.targets, graph.targets)
    if weighted:
        assert np.array_equal(back.edge_weights, graph.edge_weights)
    else:
        assert back.edge_weights is None


@settings(max_examples=30, deadline=None)
@given(edges_strategy(), st.sampled_from(sorted(MODES)),
       st.integers(min_value=1, max_value=40),
       st.integers(min_value=1, max_value=6))
def test_sharded_digests_equal_dense_at_any_chunking(data, mode, chunk,
                                                     partitions):
    n, pairs = data
    partitions = min(partitions, n)
    edges = EdgeList.from_pairs(n, pairs)
    flags, _ = MODES[mode]
    dense = CSRGraph.from_edges(edges, **flags)
    blocks = [EdgeList(n, edges.src[i:i + chunk], edges.dst[i:i + chunk])
              for i in range(0, len(pairs), chunk)]
    flags = {key: value for key, value in flags.items()
             if key != "deduplicate"}       # the sharded build always does
    with tempfile.TemporaryDirectory() as tmp:
        manifest = build_sharded_csr(blocks, n, tmp,
                                     num_partitions=partitions, **flags)
        sharded = ShardedCSRGraph(tmp)
        want = graph_digests(dense, num_partitions=partitions)
        assert sharded.digests() == want
        assert manifest["offsets_sha256"] == want["offsets"]
        assert [p["sha256"] for p in manifest["partitions"]] \
            == want["partitions"]


class TestKeyOverflow:
    """``src * V + dst`` must fit int64; a wider universe is refused."""

    LIMIT = 3_037_000_500       # smallest V with V * V >= 2**63

    def test_largest_universe_that_fits_is_accepted(self):
        v = self.LIMIT - 1
        top = np.array([v - 1], dtype=np.int64)
        assert edge_keys(top, top, v).tolist() == [v * v - 1]

    def test_every_builder_raises_the_typed_error(self, tmp_path):
        edges = EdgeList(self.LIMIT, np.array([0]), np.array([1]))
        with pytest.raises(GraphFormatError, match="overflows the int64"):
            edge_keys(edges.src, edges.dst, self.LIMIT)
        with pytest.raises(GraphFormatError, match="overflows the int64"):
            CSRGraph.from_edges(edges)
        with pytest.raises(GraphFormatError, match="overflows the int64"):
            edges.deduplicate()
        with pytest.raises(GraphFormatError, match="overflows the int64"):
            build_sharded_csr([edges], self.LIMIT, tmp_path / "sharded")
