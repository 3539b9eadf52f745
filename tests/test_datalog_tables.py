"""SociaLite's tables against the code they replaced, byte for byte.

A tail-nested table over a graph is the graph's CSR, a table built from
arbitrary columns is ordered by ``segments.stable_order``, and a head
fold computes its changed set on the distinct keys. Each is checked
against the old expression it replaced, kept here as an oracle: the
stable ``argsort`` + ``bincount`` / ``cumsum`` index build, and the
changed set taken from three gathers the size of the bindings.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import errors
from repro.datagen import rmat_graph
from repro.errors import KeyRangeError
from repro.frameworks.datalog import (
    AggregateTable,
    Atom,
    Head,
    Rule,
    SocialiteEngine,
    TupleTable,
    Var,
)
from repro.frameworks.datalog.parser import parse_rule
from repro.graph import CSRGraph, EdgeList
from repro.graph.partition import Partition1D

IDENTITY = {"sum": 0.0, "count": 0.0, "min": np.inf}


def build_index_oracle(columns, key_universe):
    """The old tail-nested build: stable argsort, bincount, cumsum."""
    order = np.argsort(columns[0], kind="stable")
    columns = [col[order] for col in columns]
    counts = np.bincount(columns[0], minlength=key_universe)
    index = np.zeros(key_universe + 1, dtype=np.int64)
    np.cumsum(counts, out=index[1:])
    return columns, index


def combine_oracle(values, present, agg, keys, addends):
    """The old fold: before, present and the changed mask per binding."""
    before = values[keys]
    if agg == "sum":
        np.add.at(values, keys, addends)
    elif agg == "count":
        np.add.at(values, keys, 1.0)
    else:
        np.minimum.at(values, keys, addends)
    present[keys] = True
    return np.unique(keys[values[keys] != before])


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# The fold works on distinct keys.
# ---------------------------------------------------------------------------

UNIVERSE = 12
#: Few distinct values, the identities among them, so that folds often
#: leave a key's value where it was.
FOLD_VALUES = st.sampled_from([0.0, 1.0, 2.5, -1.0, 7.0, np.inf])
BATCH = st.lists(st.tuples(st.integers(0, UNIVERSE - 1), FOLD_VALUES),
                 max_size=40)


@settings(max_examples=150, deadline=None)
@given(agg=st.sampled_from(["sum", "min", "count"]), first=BATCH,
       second=BATCH)
def test_combine_matches_the_per_binding_fold(agg, first, second):
    table = AggregateTable("t", UNIVERSE, agg)
    values = np.full(UNIVERSE, IDENTITY[agg])
    present = np.zeros(UNIVERSE, dtype=bool)
    for batch in (first, second):       # the second folds onto the first
        keys = np.array([key for key, _ in batch], dtype=np.int64)
        addends = np.array([value for _, value in batch], dtype=np.float64)
        expected = combine_oracle(values, present, agg, keys, addends)
        same_bytes(table.combine(keys, addends), expected)
        same_bytes(table.values, values)
        same_bytes(table.present, present)


def test_combine_of_nothing_changes_nothing():
    table = AggregateTable("t", 4, "min")
    changed = table.combine(np.zeros(0, dtype=np.int64), np.zeros(0))
    assert changed.size == 0 and not table.present.any()


def test_a_fold_to_the_identity_is_present_but_not_changed():
    table = AggregateTable("t", 4, "sum")
    changed = table.combine(np.array([2, 2, 3]), np.array([0.0, 0.0, 1.0]))
    same_bytes(changed, np.array([3]))
    assert table.present.tolist() == [False, False, True, True]


# ---------------------------------------------------------------------------
# A table from arbitrary columns; a table over a graph.
# ---------------------------------------------------------------------------

ROWS = st.lists(st.tuples(st.integers(0, UNIVERSE - 1), st.integers(0, 50),
                          st.floats(-4, 4, allow_nan=False)), max_size=60)


@settings(max_examples=150, deadline=None)
@given(rows=ROWS)
def test_tail_nested_build_matches_the_argsort_oracle(rows):
    columns = [np.array([row[i] for row in rows],
                        dtype=np.float64 if i == 2 else np.int64)
               for i in range(3)]
    table = TupleTable("t", columns, key_universe=UNIVERSE,
                       tail_nested=True)
    expected_columns, expected_index = build_index_oracle(columns, UNIVERSE)
    for got, want in zip(table.columns, expected_columns):
        same_bytes(got, want)
    same_bytes(table._index, expected_index)
    keys = np.arange(UNIVERSE)
    rows_at, counts = table.lookup(keys)
    same_bytes(counts, np.bincount(columns[0], minlength=UNIVERSE))
    same_bytes(table.columns[0][rows_at], np.repeat(keys, counts))


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(scale=7, edge_factor=4, seed=30)


def test_a_graph_table_is_the_graph(graph):
    table = TupleTable.of_graph("edge", graph, num_shards=2)
    assert table._index is graph.offsets
    assert table.columns[0] is graph.sources()
    assert np.shares_memory(table.columns[1], graph.targets)
    assert table.tail_nested and table.pairs_ascending
    assert table.key_universe == graph.num_vertices
    assert table.partition.num_parts == 2
    packed = table.columns[0] * graph.num_vertices + table.columns[1]
    assert np.all(packed[1:] >= packed[:-1])


def test_a_graph_table_equals_the_built_one(graph):
    weights = np.linspace(0.0, 1.0, graph.num_edges)
    shared = TupleTable.of_graph("edge", graph, weights)
    built = TupleTable("edge", [graph.sources(), graph.targets, weights],
                       key_universe=graph.num_vertices, tail_nested=True)
    expected_columns, expected_index = build_index_oracle(
        [graph.sources(), graph.targets, weights], graph.num_vertices)
    for a, b, want in zip(shared.columns, built.columns, expected_columns):
        same_bytes(a, want)
        same_bytes(b, want)
    same_bytes(shared._index, expected_index)
    assert shared.nbytes() == built.nbytes()
    frontier = np.array([5, 0, 5, graph.num_vertices - 1])
    for got, want in zip(shared.lookup(frontier), built.lookup(frontier)):
        same_bytes(got, want)


def test_ragged_extra_columns_are_refused(graph):
    with pytest.raises(errors.ReproError, match="ragged"):
        TupleTable.of_graph("edge", graph, np.zeros(graph.num_edges + 1))


PAIRS = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                 max_size=25)


@settings(max_examples=100, deadline=None)
@given(edges=PAIRS, probes=PAIRS, tail_nested=st.booleans())
def test_a_semi_join_finds_exactly_the_rows_present(edges, probes,
                                                    tail_nested):
    # out(x, $INC(1)) :- probe(x, y), edge(x, y): edge is all bound.
    def table(name, rows, nested):
        columns = [np.array([row[i] for row in rows], dtype=np.int64)
                   for i in range(2)]
        return TupleTable(name, columns, key_universe=6, tail_nested=nested)

    engine = SocialiteEngine(vertex_universe=6)
    engine.add(table("edge", edges, tail_nested))
    engine.add(table("probe", probes, False))
    out = AggregateTable("out", 6, "count")
    engine.add(out)
    engine.evaluate(Rule(head=Head("out", Var("x"), None, agg="count"),
                         body=[Atom("probe", Var("x"), Var("y")),
                               Atom("edge", Var("x"), Var("y"))]))
    expected = np.zeros(6)
    for x, y in probes:
        expected[x] += (x, y) in set(edges)
    same_bytes(out.values, expected)


# ---------------------------------------------------------------------------
# Shard accounting: once per evaluation, and none with one shard.
# ---------------------------------------------------------------------------


def stats_oracle(engine, bindings_keys, shard_values, head_table):
    """The old work share and shipping matrix, for any shard count."""
    shards = engine.num_shards
    part = engine.shard_partition
    uniform = np.full(shards, 1.0 / shards)
    if shard_values.size == 0:
        share = uniform
    else:
        values = np.clip(shard_values, 0, part.num_vertices - 1)
        counts = np.bincount(part.owner_of_many(values),
                             minlength=shards).astype(np.float64)
        share = counts / counts.sum()
    producer = part.owner_of_many(
        np.clip(shard_values, 0, part.num_vertices - 1))
    owner = head_table.partition.owner_of_many(bindings_keys)
    traffic = np.zeros((shards, shards))
    pairs = {(int(p), int(k)) for p, k, o
             in zip(producer, bindings_keys, owner) if p != o}
    for p, k in pairs:
        traffic[p, head_table.partition.owner(k)] += engine.tuple_bytes
    return share, traffic


def bfs_round(graph, shards):
    n = graph.num_vertices
    engine = SocialiteEngine(shards, vertex_universe=n)
    engine.add(TupleTable.of_graph("edge", graph, num_shards=shards))
    dist = AggregateTable("dist", n, "min", shards)
    engine.add(dist)
    delta = np.arange(0, n, 3)
    dist.combine(delta, np.zeros(delta.size))
    rule = Rule(head=Head("dist", Var("t"), Var("d0"), agg="min"),
                body=[Atom("dist", Var("s"), Var("d0")),
                      Atom("edge", Var("s"), Var("t"))])
    starts = graph.offsets[delta]
    counts = graph.offsets[delta + 1] - starts
    sources = np.repeat(delta, counts)
    targets = graph.targets[np.concatenate(
        [np.arange(a, b) for a, b in zip(starts, starts + counts)])]
    return engine, rule, delta, sources, targets, dist


@pytest.mark.parametrize("shards", [1, 2, 3])
def test_eval_stats_equal_the_general_formula(graph, shards):
    engine, rule, delta, sources, targets, dist = bfs_round(graph, shards)
    share, traffic = stats_oracle(engine, targets, sources, dist)
    stats = engine.evaluate(rule, delta_keys=delta)
    same_bytes(stats.work_share, share)
    same_bytes(stats.traffic, traffic)
    assert stats.produced_tuples == targets.size


def test_one_shard_computes_no_owners(graph, monkeypatch):
    engine, rule, delta, *_ = bfs_round(graph, 1)

    def refuse(self, vertices):
        raise AssertionError("a one-shard engine looked up an owner")

    monkeypatch.setattr(Partition1D, "owner_of_many", refuse)
    stats = engine.evaluate(rule, delta_keys=delta)
    same_bytes(stats.work_share, np.array([1.0]))
    same_bytes(stats.traffic, np.zeros((1, 1)))


def test_shard_owners_are_looked_up_once_per_evaluation(graph, monkeypatch):
    engine, rule, delta, *_ = bfs_round(graph, 4)
    calls = []
    lookup = engine.shard_partition.owner_of_many
    clip = np.clip

    def counted(vertices):
        calls.append("owners")
        return lookup(vertices)

    def counted_clip(*args, **kwargs):
        calls.append("clip")
        return clip(*args, **kwargs)

    monkeypatch.setattr(engine.shard_partition, "owner_of_many", counted)
    monkeypatch.setattr(np, "clip", counted_clip)
    engine.evaluate(rule, delta_keys=delta)
    assert sorted(calls) == ["clip", "owners"]


# ---------------------------------------------------------------------------
# A filtered join reads later columns at the filtered rows.
# ---------------------------------------------------------------------------

WEIGHTED = ([0, 0, 1], [1, 2, 2], [5.0, 7.0, 9.0])


def weighted_edge(kind):
    src, dst, weight = (np.array(col) for col in WEIGHTED)
    if kind == "built":
        return TupleTable("edge", [src, dst, weight], key_universe=3,
                          tail_nested=True)
    graph = CSRGraph.from_edges(EdgeList(3, src, dst, weight))
    return TupleTable.of_graph("edge", graph, graph.edge_weights)


@pytest.mark.parametrize("kind", ["built", "of_graph"])
def test_a_constant_mid_atom_filters_the_rows_it_reads_at(kind):
    engine = SocialiteEngine(vertex_universe=3)
    engine.add(weighted_edge(kind))
    seed = AggregateTable("a", 3, "sum")
    seed.combine(np.arange(3), np.zeros(3))
    engine.add(seed)
    out = AggregateTable("out", 3, "min")
    engine.add(out)
    engine.evaluate(parse_rule(
        "OUT(s, $MIN(w)) :- A(s, d0), EDGE(s, 2, w)."))
    assert out.values.tolist() == [7.0, 9.0, np.inf]


def test_a_repeated_var_mid_atom_filters_the_rows_it_reads_at():
    # out(s, $MIN(w)) :- a(s, d0), edge(s, s2, w), with s2 bound to 2.
    engine = SocialiteEngine(vertex_universe=3)
    engine.add(weighted_edge("built"))
    seed = AggregateTable("a", 3, "sum")
    seed.combine(np.arange(3), np.full(3, 2.0))
    engine.add(seed)
    out = AggregateTable("out", 3, "min")
    engine.add(out)
    engine.evaluate(Rule(
        head=Head("out", Var("s"), Var("w"), agg="min"),
        body=[Atom("a", Var("s"), Var("two")),
              Atom("edge", Var("s"), Var("two"), Var("w"))]))
    # ``two`` is a float binding (2.0); the edge column holds ints.
    assert out.values.tolist() == [7.0, 9.0, np.inf]


def test_a_repeated_var_in_the_first_atom_filters():
    engine = SocialiteEngine(vertex_universe=3)
    engine.add(TupleTable("edge", [np.array([0, 0, 1, 2]),
                                   np.array([0, 1, 1, 0])], key_universe=3))
    loops = AggregateTable("loops", 3, "count")
    engine.add(loops)
    engine.evaluate(parse_rule("LOOPS(x, $INC(1)) :- EDGE(x, x)."))
    assert loops.values.tolist() == [1.0, 1.0, 0.0]


# ---------------------------------------------------------------------------
# Out-of-range keys are a typed error.
# ---------------------------------------------------------------------------


def triangle_engine(head_key):
    engine = SocialiteEngine(vertex_universe=3)
    engine.add(TupleTable("edge", [np.array([0, 1, 0]), np.array([1, 2, 2])],
                          key_universe=3, tail_nested=True))
    triangle = AggregateTable("triangle", 4, "count")
    engine.add(triangle)
    rule = parse_rule(f"TRIANGLE({head_key}, $INC(1)) :- "
                      "EDGE(x, y), EDGE(y, z), EDGE(x, z).")
    return engine, rule, triangle


@pytest.mark.parametrize("head_key", [-1, 9, 4])
def test_a_head_key_outside_the_table_is_refused(head_key):
    engine, rule, triangle = triangle_engine(head_key)
    with pytest.raises(KeyRangeError, match=f"key {head_key} outside"):
        engine.evaluate(rule)
    assert not triangle.values.any() and not triangle.present.any()


def test_a_head_key_inside_the_table_counts():
    engine, rule, triangle = triangle_engine(3)
    engine.evaluate(rule)
    assert triangle.values.tolist() == [0.0, 0.0, 0.0, 1.0]


def test_a_negative_tail_nested_id_is_refused():
    with pytest.raises(KeyRangeError, match="key -1 outside"):
        TupleTable("edge", [np.array([0, -1]), np.array([1, 1])],
                   key_universe=3, tail_nested=True)
    with pytest.raises(KeyRangeError, match="key 3 outside"):
        TupleTable("edge", [np.array([0, 3]), np.array([1, 1])],
                   key_universe=3, tail_nested=True)


def test_an_out_of_range_key_is_a_failed_cell_not_a_retry():
    row = errors.failure_class(KeyRangeError("x"))
    assert (row.status, row.exit_code, row.is_result) == \
        (errors.STATUS_FAILED, errors.EXIT_FAILURE, False)
