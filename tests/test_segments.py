"""Differential tests for ``kernels/segments.py`` and the per-graph memo.

The sort-free primitives replaced ``np.unique`` / stable ``argsort`` /
``np.lexsort`` expressions on the superstep path. Those expressions are
kept here as the oracles, the way ``matrix/semiring.py`` keeps its
reduces: every primitive, and every call site whose body changed, must
agree with what it replaced element for element (bit for bit on float
sums). The last classes pin what the memo on ``CSRGraph`` may and may
not do, and keep the sorts from coming back.
"""

import copy
import json
import pickle
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms import edge_weights_for
from repro.cluster import Cluster, paper_cluster
from repro.datagen import rmat_graph, rmat_graph_sharded
from repro.frameworks.base import GIRAPH
from repro.frameworks.vertex.engine import BSPEngine
from repro.graph import CSRGraph, EdgeList, partition_vertex_cut
from repro.graph.csr import derived, edge_slots
from repro.graph.partition import VertexCutPartition
from repro.harness import ExperimentSpec, run
from repro.kernels import BACKENDS, kernel, segments, use_backend

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


# ---------------------------------------------------------------------------
# Strategies: bounded ids, and both sides of the dense -> sort switch.
# ---------------------------------------------------------------------------

ids_arrays = st.lists(st.integers(0, 40), max_size=60).map(
    lambda values: np.array(values, dtype=np.int64))


def universes(ids):
    """The tightest universe (dense scratch) and one far too wide for it."""
    tight = int(ids.max()) + 1 if ids.size else 1
    wide = tight + segments._DENSE_FACTOR * max(ids.size, 1) + 1
    assert not segments._dense(wide, ids.size)
    return tight, wide


def test_dense_switch_is_a_size_test():
    assert segments._dense(8, 1) and not segments._dense(9, 1)
    assert segments._dense(0, 0) and not segments._dense(1, 0)


# ---------------------------------------------------------------------------
# The four primitives against the expressions they replaced.
# ---------------------------------------------------------------------------


def first_by_stable_argsort(keys):
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return ordered[first], order[first]


def mode_by_unique_lexsort(segment_ids, labels, universe):
    """The body ``LPSync.step`` had before ``segment_mode``."""
    key = segment_ids * np.int64(universe) + labels
    packed, counts = np.unique(key, return_counts=True)
    tallied_segment = packed // universe
    tallied_label = packed % universe
    order = np.lexsort((tallied_label, -counts, tallied_segment))
    winners = tallied_segment[order]
    first = np.ones(winners.size, dtype=bool)
    first[1:] = winners[1:] != winners[:-1]
    return winners[first], tallied_label[order][first]


@settings(max_examples=200, deadline=None)
@given(ids_arrays)
@example(np.zeros(0, dtype=np.int64))
@example(np.array([0], dtype=np.int64))
@example(np.array([5, 5, 5], dtype=np.int64))
def test_distinct_is_unique(ids):
    for universe in universes(ids):
        found = segments.distinct(ids, universe)
        assert found.dtype == np.int64
        np.testing.assert_array_equal(found, np.unique(ids))


@settings(max_examples=100, deadline=None)
@given(ids_arrays, st.integers(1, 4))
@example(np.zeros(0, dtype=np.int64), 3)
def test_distinct_union_is_unique_of_the_concatenation(ids, pieces):
    chunks = np.array_split(ids, pieces)
    for universe in universes(ids):
        found = segments.distinct_union(iter(chunks), universe, ids.size)
        assert found.dtype == np.int64
        np.testing.assert_array_equal(found, np.unique(ids))


@settings(max_examples=200, deadline=None)
@given(ids_arrays)
@example(np.zeros(0, dtype=np.int64))
@example(np.array([7], dtype=np.int64))
@example(np.array([3, 0, 3, 0, 3], dtype=np.int64))
def test_first_occurrence_is_stable_argsort(keys):
    expected = first_by_stable_argsort(keys)
    for universe in universes(keys):
        found = segments.first_occurrence(keys, universe)
        for got, want in zip(found, expected):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(ids_arrays)
@example(np.zeros(0, dtype=np.int64))
@example(np.array([0, 0], dtype=np.int64))
@example(np.array([3, 0, 3, 0, 3], dtype=np.int64))
def test_stable_order_is_stable_argsort(keys):
    for universe in universes(keys):
        np.testing.assert_array_equal(segments.stable_order(keys, universe),
                                      np.argsort(keys, kind="stable"))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9).flatmap(lambda universe: st.tuples(
    st.just(universe),
    st.lists(st.tuples(st.integers(0, 11), st.integers(0, universe - 1)),
             max_size=80))))
@example((1, [(0, 0), (0, 0), (4, 0)]))
@example((6, []))
@example((6, [(2, 5)]))
@example((4, [(1, 3), (1, 0), (1, 3), (1, 0)]))       # tie: smallest label
def test_segment_mode_is_unique_plus_lexsort(case):
    universe, pairs = case
    segment_ids = np.array([s for s, _ in pairs], dtype=np.int64)
    labels = np.array([label for _, label in pairs], dtype=np.int64)
    expected = mode_by_unique_lexsort(segment_ids, labels, universe)
    found = segments.segment_mode(segment_ids, labels, universe)
    for got, want in zip(found, expected):
        np.testing.assert_array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2**15, 2**15 + 1]),
       st.sampled_from([2**16 - 1, 2**16, 2**15 - 1, 2**15]),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=30),
       st.booleans(), st.sampled_from([0, -1, 0]))
@example(2**15, 2**16, [(0, 0)], False, -1)      # 2**16 << 15 wraps an int32
@example(2**15, 2**16 - 1, [(0, 0), (3, 3)], True, -1)
@example(2**15 + 1, 2**15, [(0, 1)], False, -1)
@example(2**15 + 1, 2**15 - 1, [(0, 1)], True, 0)
def test_segment_mode_at_the_narrow_key_boundaries(universe, parallel, extra,
                                                   tie, wide_segment):
    """Each side of every test ``segment_mode`` makes before packing int32.

    Labels below 2**15 leave 16 bits of an int32 key for the segment
    and of an int32 score for the tally, one label more leaves 15: a
    segment id (``wide_segment``: the last that fits, or the first that
    does not) or a run of parallel edges of 2**16 resp. 2**15 is the
    first that needs 64 bits. Values sit at the corners of their ranges.
    """
    top = universe - 1
    corner = (0, 1, top - 1, top)
    pairs = [(corner[s], corner[label]) for s, label in extra]
    pairs.append(((1 << 31 - top.bit_length()) + wide_segment, top))
    # The long runs share segment 0 with the corner pairs; the smaller
    # label wins a tie, so both runs must be counted exactly.
    runs = [top, top - 1] if tie else [top]
    segment_ids = np.array([s for s, _ in pairs] + [0] * len(runs),
                           dtype=np.int64).repeat([1] * len(pairs)
                                                  + [parallel] * len(runs))
    labels = np.array([label for _, label in pairs] + runs,
                      dtype=np.int64).repeat([1] * len(pairs)
                                             + [parallel] * len(runs))
    expected = mode_by_unique_lexsort(segment_ids, labels, universe)
    found = segments.segment_mode(segment_ids, labels, universe)
    for got, want in zip(found, expected):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda nodes: st.tuples(
    st.just(nodes),
    st.lists(st.tuples(st.integers(0, nodes - 1), st.integers(0, nodes - 1),
                       st.floats(0.0, 1e9, allow_nan=False)), max_size=60))))
@example((1, [(0, 0, 0.1)] * 11))
@example((3, []))
def test_pair_traffic_is_add_at_bitwise(case):
    nodes, rows = case
    src = np.array([r[0] for r in rows], dtype=np.int64)
    dst = np.array([r[1] for r in rows], dtype=np.int64)
    weights = np.array([r[2] for r in rows], dtype=np.float64)
    for given_weights in (weights, 0.1):
        expected = np.zeros((nodes, nodes))
        np.add.at(expected, (src, dst), given_weights)
        found = segments.pair_traffic(src, dst, given_weights, nodes)
        assert found.shape == (nodes, nodes) and found.flags.writeable
        assert found.tobytes() == expected.tobytes()


@given(st.integers(1, 5).flatmap(lambda nodes: st.tuples(
    st.just(nodes), st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, nodes - 1), min_size=n, max_size=n),
        st.lists(st.integers(0, 50), min_size=n, max_size=n),
        st.lists(st.tuples(st.integers(0, n - 1),
                           st.integers(0, nodes - 1)), max_size=40))))))
@example((2, ([0, 1], [3, 0], [])))
def test_list_traffic_is_the_native_shipping_bitwise(case):
    """Triangle counting's list shipping, against the native code it
    replaced: distinct cross-node (vertex, node) requests, one list each."""
    nodes, (owner, sizes, requests) = case
    owner = np.array(owner, dtype=np.int64)
    list_bytes = 8.0 * np.array(sizes, dtype=np.float64)
    vertices = np.array([r[0] for r in requests], dtype=np.int64)
    to_nodes = np.array([r[1] for r in requests], dtype=np.int64)
    expected = np.zeros((nodes, nodes))
    cross = owner[vertices] != to_nodes
    if cross.any():
        pairs = np.unique(vertices[cross] * nodes + to_nodes[cross])
        np.add.at(expected, (owner[pairs // nodes], pairs % nodes),
                  list_bytes[pairs // nodes])
    found = segments.list_traffic(vertices, to_nodes, owner.__getitem__,
                                  list_bytes, nodes)
    assert found.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# Call sites whose body changed, against the body they had.
# ---------------------------------------------------------------------------

small_graphs = st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
             max_size=40)))     # self-loops, parallel edges, isolated ids


def graph_of(case) -> CSRGraph:
    n, pairs = case
    src = np.array([u for u, _ in pairs], dtype=np.int64)
    dst = np.array([v for _, v in pairs], dtype=np.int64)
    return CSRGraph.from_edges(EdgeList(n, src, dst))


def vertex_cut_by_unique(graph, num_parts, seed=0):
    """``partition_vertex_cut`` as it was: no closed form, two uniques."""
    src = np.repeat(np.arange(graph.num_vertices, dtype=np.int64),
                    np.diff(graph.offsets))
    dst = graph.targets
    degrees = np.bincount(src, minlength=graph.num_vertices)
    degrees += np.bincount(dst, minlength=graph.num_vertices)
    threshold = max(float(np.percentile(degrees[degrees > 0], 99)), 64.0) \
        if graph.num_edges else 64.0
    salt = np.random.default_rng(seed).integers(1, 2**31 - 1)
    vhash = ((np.arange(graph.num_vertices, dtype=np.int64) * 2654435761
              + salt) % np.int64(2**31)) % num_parts
    src_hot = degrees[src] > threshold
    dst_hot = degrees[dst] > threshold
    ehash = ((np.arange(graph.num_edges, dtype=np.int64) * 40503 + salt)
             % np.int64(2**31)) % num_parts
    edge_part = np.where(~src_hot, vhash[src],
                         np.where(~dst_hot, vhash[dst], ehash)).astype(np.int64)
    mirror_counts = np.zeros(graph.num_vertices, dtype=np.int64)
    for endpoint in (src, dst):
        uniq = np.unique(endpoint * np.int64(num_parts) + edge_part)
        np.add.at(mirror_counts, (uniq // num_parts).astype(np.int64), 1)
    return VertexCutPartition(graph.num_vertices, num_parts, edge_part,
                              vhash.astype(np.int64), mirror_counts)


def assert_same_cut(found, expected):
    assert (found.num_vertices, found.num_parts) == \
        (expected.num_vertices, expected.num_parts)
    for field in ("edge_part", "masters", "mirror_counts"):
        got, want = getattr(found, field), getattr(expected, field)
        assert got.dtype == want.dtype, field
        np.testing.assert_array_equal(got, want, err_msg=field)


@settings(max_examples=60, deadline=None)
@given(small_graphs, st.sampled_from([1, 2, 4, 7]), st.integers(0, 3))
@example((3, []), 1, 0)
@example((3, []), 4, 0)
@example((2, [(0, 0), (0, 0), (1, 0)]), 1, 0)
def test_vertex_cut_equals_the_two_unique_body(case, parts, seed):
    graph = graph_of(case)
    assert_same_cut(partition_vertex_cut(graph, parts, seed),
                    vertex_cut_by_unique(graph, parts, seed))


@pytest.mark.parametrize("parts", [1, 2, 4, 7])
def test_vertex_cut_on_a_skewed_graph_with_hot_vertices(parts):
    # Scale 11 has vertices over the 64-degree threshold: the edge-hash
    # branch and wide (vertex, part) universes are exercised too.
    graph = rmat_graph(scale=11, edge_factor=16, seed=3)
    assert_same_cut(partition_vertex_cut(graph, parts),
                    vertex_cut_by_unique(graph, parts))


def edge_messages_by_argsort(engine, senders, message_bytes, combine):
    """``BSPEngine.edge_messages`` as it was: stable argsort + 2-D add.at."""
    senders = np.asarray(senders, dtype=np.int64)
    nodes = engine.cluster.num_nodes
    traffic = np.zeros((nodes, nodes))
    if senders.size == 0:
        return 0.0, 0.0, traffic
    per_sender = np.broadcast_to(
        np.asarray(message_bytes, dtype=np.float64), senders.shape)
    targets, lengths = engine.graph.neighbors_of_many(senders)
    if targets.size == 0:
        return 0.0, 0.0, traffic
    per_edge = np.repeat(per_sender, lengths)
    src_owner = np.repeat(engine.vertex_owner[senders], lengths)
    dst_owner = engine.vertex_owner[targets]
    if combine:
        keys = src_owner * np.int64(engine.graph.num_vertices) + targets
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        first = np.concatenate([[True], ordered[1:] != ordered[:-1]])
        kept = order[first]
        count, payload = float(kept.size), float(per_edge[kept].sum())
        np.add.at(traffic, (src_owner[kept], dst_owner[kept]), per_edge[kept])
    else:
        count, payload = float(targets.size), float(per_edge.sum())
        np.add.at(traffic, (src_owner, dst_owner), per_edge)
    traffic *= engine.profile.message_overhead_factor
    return count, payload, traffic


@pytest.fixture(scope="module")
def skewed():
    return rmat_graph(scale=9, edge_factor=12, seed=11, directed=False)


@pytest.mark.parametrize("nodes", [1, 4])
@pytest.mark.parametrize("combine", [True, False])
@pytest.mark.parametrize("per_sender", [False, True])
@pytest.mark.parametrize("senders", ["all", "unsorted", "few", "empty",
                                     "isolated"])
def test_edge_messages_equal_the_argsort_body(skewed, nodes, combine,
                                              per_sender, senders):
    engine = BSPEngine(skewed, Cluster(paper_cluster(nodes)), GIRAPH)
    rng = np.random.default_rng(5)
    degrees = skewed.out_degrees()
    chosen = {
        "all": np.arange(skewed.num_vertices),
        "unsorted": rng.permutation(skewed.num_vertices)[:300],
        # A handful of edges in a wide (node, vertex) universe: the sort
        # side of first_occurrence's switch.
        "few": np.array([int(np.argmax(degrees > 0))]),
        "empty": np.zeros(0, dtype=np.int64),
        "isolated": np.flatnonzero(degrees == 0)[:3],
    }[senders]
    # Irregular, non-integer sizes: any change of fold order would show.
    message_bytes = 8.0 + rng.random(chosen.size) if per_sender else 0.1
    stats = engine.edge_messages(chosen, message_bytes, combine=combine)
    count, payload, traffic = edge_messages_by_argsort(
        engine, chosen, message_bytes, combine)
    assert (stats.messages, stats.payload_bytes) == (count, payload)
    assert stats.traffic.tobytes() == traffic.tobytes()
    assert stats.traffic.flags.writeable


def replication_sync_by_loop(engine, active, value_bytes):
    """The P x P double loop ``BSPEngine.replication_sync_traffic`` ran
    before its closed form: each master's share onto every other pair."""
    nodes = engine.cluster.num_nodes
    traffic = np.zeros((nodes, nodes))
    if active.size == 0:
        return traffic
    cut = engine.vertex_cut
    extra = np.maximum(cut.mirror_counts[active] - 1, 0).astype(np.float64)
    per_master = np.bincount(cut.masters[active], weights=extra * value_bytes,
                             minlength=nodes)
    if nodes > 1:
        for master in range(nodes):
            share = per_master[master] / (nodes - 1)
            for other in range(nodes):
                if other != master:
                    traffic[other, master] += share
                    traffic[master, other] += share
    traffic *= engine.profile.message_overhead_factor
    return traffic


@pytest.mark.parametrize("nodes", [1, 2, 3, 4, 9, 64])
def test_replication_sync_is_the_double_loop_bitwise(skewed, nodes):
    from repro.frameworks.base import GRAPHLAB

    engine = BSPEngine(skewed, Cluster(paper_cluster(nodes)), GRAPHLAB,
                       "vertex-cut")
    rng = np.random.default_rng(nodes)
    chosen = [rng.permutation(skewed.num_vertices)[:size]
              for size in (0, 1, 40, skewed.num_vertices)]
    for active in chosen:
        # Irregular, non-integer sizes: a changed fold order would show.
        value_bytes = 8.0 + rng.random()
        found = engine.replication_sync_traffic(active, value_bytes)
        assert found.tobytes() == replication_sync_by_loop(
            engine, active, value_bytes).tobytes()
    # A chunk's stack is each round's matrix.
    active = np.concatenate(chosen)
    row = np.repeat(np.arange(len(chosen)), [ids.size for ids in chosen])
    stack = engine.replication_sync_traffic(active, 4.0, row, len(chosen))
    assert stack.tobytes() == np.array([
        replication_sync_by_loop(engine, ids, 4.0) for ids in chosen]).tobytes()


@pytest.mark.parametrize("nodes", [1, 4])
@pytest.mark.parametrize("profile", ["giraph", "graphlab"])
@pytest.mark.parametrize("message_bytes", [4.0, 8.0])
def test_round_messages_equal_edge_messages_per_round(skewed, nodes, profile,
                                                      message_bytes):
    from repro.frameworks import rounds
    from repro.frameworks.base import GRAPHLAB

    engine = BSPEngine(skewed, Cluster(paper_cluster(nodes)),
                       {"giraph": GIRAPH, "graphlab": GRAPHLAB}[profile])
    rng = np.random.default_rng(3)
    degrees = skewed.out_degrees()
    chosen = [np.sort(rng.permutation(skewed.num_vertices)[:size])
              for size in (1, 300, 7, skewed.num_vertices, 50)]
    bounds = np.cumsum([0, *(ids.size for ids in chosen)])
    chunk = rounds.Rounds(
        rounds.BFS, skewed, 0, np.concatenate(chosen), bounds,
        np.array([float(degrees[ids].sum()) for ids in chosen]),
        np.zeros(len(chosen), dtype=np.int64), np.zeros(1, dtype=np.int64),
        None, None)
    messages, payload, traffic = engine.round_messages(chunk, message_bytes)
    for row, ids in enumerate(chosen):
        stats = engine.edge_messages(ids, message_bytes)
        assert (messages[row], payload[row]) == (stats.messages,
                                                 stats.payload_bytes)
        assert traffic[row].tobytes() == stats.traffic.tobytes()


def _counting(monkeypatch, owner, name, calls, when=lambda *args: True):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        if when(*args):
            calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("algorithm", ["pagerank", "bfs"])
def test_per_graph_structure_is_computed_once_per_graph(skewed, algorithm,
                                                        monkeypatch):
    """A vertex cut's edge counts and a matrix's block counts are
    computed by the first cell on a graph and reused by the next."""
    from repro.frameworks.matrix import spmat

    graph = copy.deepcopy(skewed)
    cut = partition_vertex_cut(graph, 4)
    counts, blocks = [], []
    _counting(monkeypatch, np, "bincount", counts,
              lambda ids, *_: ids is cut.edge_part)
    _counting(monkeypatch, spmat, "iter_csr_blocks", blocks)
    for framework in ("graphlab", "combblas") * 2:
        assert run(ExperimentSpec(algorithm=algorithm, framework=framework,
                                  dataset=graph, nodes=4)).ok
    assert (len(counts), len(blocks)) == (1, 1)


def test_a_dense_product_is_costed_once_per_run(skewed, monkeypatch):
    from repro.frameworks.matrix.spmat import DistSpMat
    from repro.observability import Tracer

    costed = []
    _counting(monkeypatch, DistSpMat, "spmv_traffic", costed)
    tracer = Tracer()
    result = run(ExperimentSpec(algorithm="pagerank", framework="combblas",
                                dataset=skewed, nodes=4,
                                params={"iterations": 6}), trace=tracer)
    assert result.ok and len(costed) == 1
    # Every sweep still reports its product to the tracer.
    assert len(tracer.spans_named("spmv-kernel")) == 6


@settings(max_examples=100, deadline=None)
@given(small_graphs, st.lists(st.integers(0, 11), max_size=20))
def test_edge_slots_walk_each_row_in_input_order(case, picks):
    graph = graph_of(case)
    vertices = np.array([v % graph.num_vertices for v in picks],
                        dtype=np.int64)
    slots, lengths = edge_slots(graph.offsets, vertices)
    rows = [np.arange(graph.offsets[v], graph.offsets[v + 1])
            for v in vertices]
    np.testing.assert_array_equal(
        slots, np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64))
    np.testing.assert_array_equal(lengths, [row.size for row in rows])
    assert slots.dtype == lengths.dtype == np.int64
    neighbors, again = graph.neighbors_of_many(vertices)
    np.testing.assert_array_equal(neighbors, graph.targets[slots])
    np.testing.assert_array_equal(again, lengths)


@pytest.mark.parametrize("backend", BACKENDS)
def test_kernels_agree_with_their_oracles_under_both_backends(skewed, backend):
    labels = np.random.default_rng(2).permutation(skewed.num_vertices)
    expected = labels.copy()
    reached, modes = mode_by_unique_lexsort(
        skewed.targets, labels[skewed.sources()], skewed.num_vertices)
    expected[reached] = modes
    frontier = np.array([3, 200, 7, 3], dtype=np.int64)
    with use_backend(backend):
        new, _ = kernel("label_propagation", "sync")().prepare(skewed) \
            .step(labels)
        found, _ = kernel("bfs", "push")().prepare(skewed).step(frontier)
    np.testing.assert_array_equal(new, expected)
    np.testing.assert_array_equal(
        found, np.unique(skewed.neighbors_of_many(frontier)[0]))


# ---------------------------------------------------------------------------
# The per-graph memo: shared, read-only, counted, never shipped.
# ---------------------------------------------------------------------------

MEMO_CELLS = [("sssp", "native"), ("wcc", "graphlab"), ("k_core", "giraph"),
              ("label_propagation", "graphlab"), ("bfs", "socialite"),
              ("pagerank", "combblas")]


def _outcome(result):
    values = result.result.values
    return (json.dumps(result.to_dict(), sort_keys=True),
            np.asarray(values).tobytes())


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("nodes", [1, 4])
def test_a_later_cell_on_the_same_graph_equals_one_on_a_fresh_copy(
        skewed, backend, nodes):
    shared = copy.deepcopy(skewed)
    assert not shared._derived
    for algorithm, framework in MEMO_CELLS + MEMO_CELLS[:2]:
        spec = dict(algorithm=algorithm, framework=framework, nodes=nodes,
                    kernels=backend)
        on_shared = run(ExperimentSpec(dataset=shared, **spec))
        on_fresh = run(ExperimentSpec(dataset=copy.deepcopy(skewed), **spec))
        assert on_shared.ok and _outcome(on_shared) == _outcome(on_fresh), \
            (algorithm, framework)
    assert {"sources", "hash-weights", ("vertex-owner", nodes),
            ("vertex-cut", nodes, 0)} <= set(shared._derived)


def test_derived_arrays_are_shared_and_read_only(skewed):
    graph = copy.deepcopy(skewed)
    cut = partition_vertex_cut(graph, 4)
    assert graph.sources() is graph.sources()
    assert edge_weights_for(graph) is edge_weights_for(graph)
    assert partition_vertex_cut(graph, 4) is cut
    assert partition_vertex_cut(graph, 4, seed=1) is not cut
    for array in (graph.sources(), edge_weights_for(graph), cut.edge_part,
                  cut.masters, cut.mirror_counts):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


def test_resident_nbytes_counts_what_the_memo_holds(skewed):
    graph = copy.deepcopy(skewed)
    base = graph.resident_nbytes()
    sources, weights = graph.sources(), edge_weights_for(graph)
    assert graph.resident_nbytes() == base + sources.nbytes + weights.nbytes
    cut = partition_vertex_cut(graph, 2)
    assert graph.resident_nbytes() == (
        base + sources.nbytes + weights.nbytes + cut.edge_part.nbytes
        + cut.masters.nbytes + cut.mirror_counts.nbytes)


@pytest.mark.parametrize("field", [[np.zeros(3)], (np.zeros(3),),
                                   {"a": np.zeros(3)}, [1, 2]],
                         ids=["list", "tuple", "dict", "list-of-ints"])
def test_a_value_resident_nbytes_cannot_count_is_refused(skewed, field):
    graph = copy.deepcopy(skewed)
    before = graph.resident_nbytes()
    with pytest.raises(TypeError, match="only arrays and scalars"):
        derived(graph, "hidden",
                lambda: SimpleNamespace(kept=np.zeros(4), hidden=field))
    assert "hidden" not in graph._derived
    assert graph.resident_nbytes() == before
    held = derived(graph, "plain", lambda: SimpleNamespace(
        kept=np.zeros(4), count=3, label="x", none=None))
    assert graph.resident_nbytes() == before + held.kept.nbytes


def test_the_memo_is_never_pickled_or_copied(skewed):
    graph = copy.deepcopy(skewed)
    before = len(pickle.dumps(graph))
    for algorithm, framework in MEMO_CELLS:
        assert run(ExperimentSpec(algorithm, framework, graph, nodes=2)).ok
    graph.reverse()
    assert graph._derived
    assert len(pickle.dumps(graph)) == before
    clone = pickle.loads(pickle.dumps(graph))
    assert not clone._derived and clone._in_view is None
    np.testing.assert_array_equal(clone.targets, graph.targets)


def test_nothing_is_memoised_on_a_sharded_graph(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    graph = rmat_graph_sharded(8, 8, seed=4, directed=False)
    assert graph.sources() is not graph.sources()
    assert edge_weights_for(graph) is not edge_weights_for(graph)
    assert partition_vertex_cut(graph, 2) is not partition_vertex_cut(graph, 2)
    assert not hasattr(graph, "_derived")


# ---------------------------------------------------------------------------
# Keep the sorts from coming back (mirrored in the CI lint job).
# ---------------------------------------------------------------------------

#: Where a dedup or a mode must go through ``kernels/segments.py``.
HOT_PATH = ("kernels", "frameworks/rounds.py", "frameworks/vertex/engine.py",
            "frameworks/datalog/engine.py", "frameworks/datalog/table.py",
            "frameworks/native/engine.py", "graph/partition.py",
            "graph/sharded.py")
#: ``file: line fragment`` that may keep a comparison sort, and why.
ALLOWED_SORTS = {
    # The primitives themselves: the sort side of the size switch.
    "kernels/segments.py": None,
}
SORT_CALL = re.compile(r"np\.lexsort|np\.unique\(|argsort\(|np\.union1d")


def test_no_comparison_sort_on_the_hot_path():
    files = []
    for entry in HOT_PATH:
        path = SRC / entry
        files += sorted(path.glob("*.py")) if path.is_dir() else [path]
    assert len(files) > len(HOT_PATH)
    offenders = []
    for path in files:
        name = path.relative_to(SRC).as_posix()
        allowed = ALLOWED_SORTS.get(name, "")
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if SORT_CALL.search(line) and allowed is not None \
                    and line.strip() != allowed:
                offenders.append(f"{name}:{number}: {line.strip()}")
    assert not offenders, (
        "dedups, first-occurrence and modes over bounded ids go through "
        "repro.kernels.segments:\n" + "\n".join(offenders))
    assert not [path for path in SRC.rglob("*.py")
                if "np.lexsort" in path.read_text()
                and path.name != "segments.py"]


# ---------------------------------------------------------------------------
# Keep the truncate-in-place writes from coming back.
# ---------------------------------------------------------------------------

PLAIN_WRITE = re.compile(r"""\bopen\([^)]*["']w["']|\.write_text\(""")
#: ``file: line`` that may write a file without ``atomic_write_text``,
#: and why.
ALLOWED_WRITES = {
    # atomic_write_text itself.
    "harness/persistence.py": None,
    # Fills of a publish_dir temp directory, renamed into place whole.
    "graph/sharded.py":
        'with open(manifest_path, "w", encoding="utf-8") as handle:',
    "datagen/cache.py": "(Path(tmp) / _META_NAME).write_text(",
    # A kernel control file, not data.
    "observability/memory.py":
        'with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:',
}


def test_every_file_write_is_atomic():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        allowed = ALLOWED_WRITES.get(name, "")
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if PLAIN_WRITE.search(line) and allowed is not None \
                    and line.strip() != allowed:
                offenders.append(f"{name}:{number}: {line.strip()}")
    assert not offenders, (
        "an interrupted write must leave the old file or the new one — "
        "use repro.harness.persistence.atomic_write_text:\n"
        + "\n".join(offenders))


# ---------------------------------------------------------------------------
# Keep the second memo tier from coming back.
# ---------------------------------------------------------------------------


def test_datasets_are_memoised_in_one_place():
    """``harness/datasets.py`` holds objects in the cache's resident set
    and nowhere else, and nothing in the program has to clear a memo to
    reach it."""
    assert "lru_cache" not in (SRC / "harness" / "datasets.py").read_text()
    callers = [f"{path.relative_to(SRC).as_posix()}:{number}"
               for path in sorted(SRC.rglob("*.py"))
               for number, line in enumerate(path.read_text().splitlines(), 1)
               if "clear_proxy_caches(" in line
               and not line.startswith("def ")]
    assert not callers, callers
