"""A symmetrized graph is its own transpose: ``reverse()`` is ``self``.

``CSRGraph.from_edges(symmetrize=True)`` without weights, and a sharded
build whose manifest says ``symmetric``, hand back the graph itself as
its transpose instead of sorting (or externally building) it again.
These properties pin that shortcut to a transpose built the explicit
way, and check that the mark survives every trip a graph makes: a
pickle to a pool worker, the dataset cache, a sharded manifest.
"""

import copy
import itertools
import json
import os
import pickle
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datagen import cache as cache_module
from repro.datagen import rmat_graph, rmat_graph_sharded
from repro.graph import (
    CSRGraph,
    EdgeList,
    ShardedCSRGraph,
    build_sharded_csr,
    graph_digests,
)
from repro.graph.sharded import MANIFEST_NAME

from .test_edgelist import edges_strategy

#: Every ``from_edges`` flag combination it accepts.
FLAGS = [dict(zip(("deduplicate", "drop_self_loops", "symmetrize",
                   "orient_by_id"), combo))
         for combo in itertools.product((False, True), repeat=4)
         if not (combo[2] and combo[3])]


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Point the dataset cache at a private root and enable it."""
    root = tmp_path / "cache"
    monkeypatch.setenv(cache_module.CACHE_DIR_ENV, str(root))
    monkeypatch.delenv(cache_module.CACHE_ENABLE_ENV, raising=False)
    yield root
    cache_module.clear_pins()


def explicit_transpose(graph):
    """The transpose built the slow obvious way, from swapped edges."""
    return CSRGraph.from_edges(EdgeList(
        graph.num_vertices, graph.targets, graph.sources(),
        graph.edge_weights))


def assert_same_arrays(got, want):
    assert got.num_vertices == want.num_vertices
    np.testing.assert_array_equal(got.offsets, want.offsets)
    np.testing.assert_array_equal(got.targets, want.targets)
    if want.edge_weights is None:
        assert got.edge_weights is None
    else:
        np.testing.assert_array_equal(got.edge_weights, want.edge_weights)


def small_graph(symmetrize):
    edges = EdgeList.from_pairs(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 4)])
    return CSRGraph.from_edges(edges, drop_self_loops=True,
                               symmetrize=symmetrize)


@settings(max_examples=60, deadline=None)
@given(edges_strategy(), st.sampled_from(range(len(FLAGS))), st.booleans())
@example((4, [(0, 1), (1, 0), (2, 2)]), FLAGS.index(
    dict(deduplicate=False, drop_self_loops=False, symmetrize=True,
         orient_by_id=False)), False)
def test_reverse_equals_the_explicit_transpose(data, flag_index, weighted):
    n, pairs = data
    weights = [float(i) for i in range(len(pairs))] if weighted else None
    flags = FLAGS[flag_index]
    graph = CSRGraph.from_edges(EdgeList.from_pairs(n, pairs, weights),
                                **flags)
    assert graph.symmetric == (flags["symmetrize"] and not weighted)
    before = graph.resident_nbytes()
    reverse = graph.reverse()
    assert (reverse is graph) == graph.symmetric
    if graph.symmetric:
        # Not held as a view: the graph is counted once.
        assert graph._in_view is None
        assert graph.resident_nbytes() == before
    assert_same_arrays(reverse, explicit_transpose(graph))


def test_weighted_symmetrized_graph_with_unequal_weights_is_not_marked():
    # Deduplication keeps the first weight seen: w(0, 1) = 1, w(1, 0) = 2.
    edges = EdgeList.from_pairs(3, [(0, 1), (1, 0)], [1.0, 2.0])
    graph = CSRGraph.from_edges(edges, symmetrize=True)
    assert not graph.symmetric
    reverse = graph.reverse()
    assert reverse is not graph and graph._in_view is reverse
    assert graph.edge_weights.tolist() == [1.0, 2.0]
    assert reverse.edge_weights.tolist() == [2.0, 1.0]
    assert_same_arrays(reverse, explicit_transpose(graph))


@pytest.mark.parametrize("symmetrize", [False, True])
def test_the_mark_survives_pickle_and_copy(symmetrize):
    graph = small_graph(symmetrize)
    assert graph.symmetric == symmetrize
    for clone in (pickle.loads(pickle.dumps(graph)), copy.deepcopy(graph)):
        assert clone.symmetric == symmetrize
        assert (clone.reverse() is clone) == symmetrize
        assert_same_arrays(clone.reverse(), graph.reverse())


@pytest.mark.parametrize("symmetrize", [False, True])
def test_the_mark_survives_a_cache_round_trip(cache_dir, symmetrize):
    built = small_graph(symmetrize)
    loaded = cache_module.get_or_build(
        "symmetric-test", {"symmetrize": symmetrize}, lambda: built)
    assert loaded is not built
    assert loaded.symmetric == symmetrize
    assert (loaded.reverse() is loaded) == symmetrize
    assert_same_arrays(loaded.reverse(), built.reverse())


def test_an_undirected_rmat_graph_is_marked_through_the_cache(cache_dir):
    undirected = rmat_graph(6, 4, seed=3, directed=False)
    directed = rmat_graph(6, 4, seed=3, directed=True)
    assert undirected.symmetric and not directed.symmetric
    assert undirected.reverse() is undirected
    assert_same_arrays(directed.reverse(), explicit_transpose(directed))


def test_meta_without_the_key_loads_as_not_symmetric(cache_dir):
    graph = rmat_graph(6, 4, seed=5, directed=False)
    [meta_path] = cache_dir.glob(f"*/{cache_module._META_NAME}")
    meta = json.loads(meta_path.read_text())
    assert meta.pop("symmetric") is True
    meta_path.write_text(json.dumps(meta))
    cache_module.clear_pins()
    reloaded = cache_module._load(meta_path.parent)
    assert not reloaded.symmetric
    reverse = reloaded.reverse()
    assert reverse is not reloaded
    assert_same_arrays(reverse, graph)


def build_sharded(root, n, pairs, partitions, symmetrize):
    manifest = build_sharded_csr([EdgeList.from_pairs(n, pairs)], n, root,
                                 num_partitions=partitions,
                                 symmetrize=symmetrize)
    assert manifest["symmetric"] is symmetrize
    return ShardedCSRGraph(root)


@settings(max_examples=30, deadline=None)
@given(edges_strategy(), st.integers(min_value=1, max_value=5),
       st.booleans())
def test_sharded_reverse_is_self_exactly_when_symmetric(data, partitions,
                                                        symmetrize):
    n, pairs = data
    partitions = min(partitions, n)
    dense = CSRGraph.from_edges(EdgeList.from_pairs(n, pairs),
                                drop_self_loops=True, symmetrize=symmetrize,
                                deduplicate=True)
    with tempfile.TemporaryDirectory() as tmp:
        sharded = build_sharded(tmp, n, pairs, partitions, symmetrize)
        assert sharded.symmetric == symmetrize
        assert sharded.to_csr().symmetric == symmetrize
        reverse = sharded.reverse()
        assert (reverse is sharded) == symmetrize
        assert os.path.isdir(os.path.join(tmp, "reverse")) != symmetrize
        assert reverse.digests() == graph_digests(
            dense.reverse(), num_partitions=reverse.num_partitions)


def test_sharded_manifest_without_the_key_builds_a_reverse(tmp_path):
    pairs = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    sharded = build_sharded(tmp_path / "g", 4, pairs, 2, symmetrize=True)
    assert sharded.reverse() is sharded
    manifest_path = tmp_path / "g" / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    del manifest["sharded"]["symmetric"]
    manifest_path.write_text(json.dumps(manifest))
    legacy = ShardedCSRGraph(tmp_path / "g")
    assert not legacy.symmetric
    reverse = legacy.reverse()
    assert reverse is not legacy
    assert reverse.root == str(tmp_path / "g" / "reverse")
    assert reverse.digests() == legacy.digests()


def test_cached_undirected_sharded_graph_never_publishes_a_reverse(
        cache_dir):
    graph = rmat_graph_sharded(6, 4, seed=2, directed=False,
                               chunk_edges=64)
    assert graph.symmetric and graph.reverse() is graph
    assert not os.path.exists(os.path.join(graph.root, "reverse"))
    directed = rmat_graph_sharded(6, 4, seed=2, chunk_edges=64)
    assert not directed.symmetric
    assert directed.reverse().root == os.path.join(directed.root, "reverse")
