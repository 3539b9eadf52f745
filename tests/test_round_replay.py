"""A round program runs once per resident graph, then replays.

The first run of a graph program on a dense ``CSRGraph`` is recorded on
it (``graph.csr.derived``); every later run of the same (graph,
algorithm, params, kernel backend) replays the record instead of calling
the kernel. These tests hold the replay to the live run on every engine
family: same values, iterations, extras, ``RunMetrics`` and traced
spans; a run cut short by a deadline records nothing; a sharded graph
records nothing and agrees with the dense replay; and ``resident_nbytes``
counts each record, which is never larger than the graph's own arrays.
"""

import dataclasses

import numpy as np
import pytest

from repro.algorithms.registry import runner
from repro.cluster import Cluster, paper_cluster
from repro.datagen import rmat_graph
from repro.errors import DeadlineExceeded
from repro.frameworks.rounds import GRAPH_PROGRAMS
from repro.graph import CSRGraph, EdgeList
from repro.graph.sharded import ShardedCSRGraph, build_sharded_csr
from repro.kernels import BACKENDS, active_backend, use_backend
from repro.kernels.registry import KERNELS
from repro.observability import Tracer

FRAMEWORKS = ("native", "giraph", "graphlab", "combblas", "galois")
CELLS = [(algorithm, framework, nodes)
         for algorithm in GRAPH_PROGRAMS for framework in FRAMEWORKS
         for nodes in (1, 4) if framework != "galois" or nodes == 1]
IDS = ["-".join(map(str, cell)) for cell in CELLS]


@pytest.fixture(scope="module")
def built():
    return rmat_graph(scale=8, edge_factor=6, seed=17, directed=False)


def fresh(graph) -> CSRGraph:
    """The same graph as a new object: nothing derived, nothing recorded."""
    return CSRGraph(graph.num_vertices, graph.offsets, graph.targets)


def records(graph) -> dict:
    return {key: value for key, value in graph._derived.items()
            if isinstance(key, tuple) and key[0] == "trajectory"}


def nbytes(record) -> int:
    return sum(field.nbytes for field in vars(record).values()
               if isinstance(field, np.ndarray))


def run_on(graph, algorithm, framework, nodes, deadline_s=None):
    tracer = Tracer()
    cluster = Cluster(paper_cluster(nodes), enforce_memory=False,
                      tracer=tracer, deadline_s=deadline_s)
    return runner(algorithm, framework)(graph, cluster), tracer


def plain(value):
    """Arrays, dataclasses and containers as comparable Python values."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if dataclasses.is_dataclass(value):
        return {name: plain(field) for name, field in vars(value).items()}
    if isinstance(value, dict):
        return {name: plain(field) for name, field in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(field) for field in value]
    return value


def spans(tracer) -> list:
    return [[span.name, span.depth, span.node, span.start_s, span.end_s,
             span.attrs] for span in tracer.spans]


def counters(tracer) -> dict:
    # peak-rss is the host's memory, not the simulated machine's.
    return {name: total for name, total in tracer.counters.items()
            if name != "peak-rss"}


def assert_same_run(one, other) -> None:
    (first, first_trace), (second, second_trace) = one, other
    np.testing.assert_array_equal(first.values, second.values)
    assert first.values.dtype == second.values.dtype
    assert first.iterations == second.iterations
    assert plain(first.extras) == plain(second.extras)
    assert list(first.extras) == list(second.extras)
    assert plain(first.metrics) == plain(second.metrics)
    assert spans(first_trace) == spans(second_trace)
    assert counters(first_trace) == counters(second_trace)


def splits_rounds(framework, nodes, algorithm) -> bool:
    """Native proposes bfs / wcc / sssp owner by owner on >1 node."""
    return framework == "native" and nodes > 1 \
        and algorithm in ("bfs", "wcc", "sssp")


def forbid_kernels(monkeypatch, algorithm) -> None:
    def step(*_args, **_kwargs):
        raise AssertionError("a replay called the kernel")

    for (owner, _direction), kernel in KERNELS.items():
        if owner == algorithm:
            monkeypatch.setattr(kernel, "step", step)


@pytest.mark.parametrize("algorithm, framework, nodes", CELLS, ids=IDS)
def test_a_replay_is_the_live_run(algorithm, framework, nodes, built,
                                  monkeypatch):
    resident = fresh(built)
    run_on(resident, algorithm, "giraph", nodes)        # records the run
    (key, record), = records(resident).items()
    assert key == ("trajectory", algorithm, (), active_backend())
    live = run_on(fresh(built), algorithm, framework, nodes)
    if not splits_rounds(framework, nodes, algorithm):
        forbid_kernels(monkeypatch, algorithm)
    replayed = run_on(resident, algorithm, framework, nodes)
    assert_same_run(live, replayed)
    assert records(resident) == {key: record}


@pytest.mark.parametrize("algorithm, framework, nodes", CELLS, ids=IDS)
def test_a_deadline_leaves_no_record_and_the_replay_stops_at_its_row(
        algorithm, framework, nodes, built):
    whole, _ = run_on(fresh(built), algorithm, framework, nodes)
    deadline = whole.metrics.total_time_s / 2
    graph = fresh(built)
    with pytest.raises(DeadlineExceeded) as live:
        run_on(graph, algorithm, framework, nodes, deadline)
    assert not records(graph)
    run_on(graph, algorithm, "giraph", nodes)            # records the run
    with pytest.raises(DeadlineExceeded) as replayed:
        run_on(graph, algorithm, framework, nodes, deadline)
    assert (live.value.what, live.value.elapsed_s) == \
        (replayed.value.what, replayed.value.elapsed_s)


@pytest.fixture(scope="module")
def sharded(built, tmp_path_factory):
    root = tmp_path_factory.mktemp("shards")
    build_sharded_csr([EdgeList(built.num_vertices, built.sources(),
                                built.targets)],
                      built.num_vertices, root, num_partitions=3)
    graph = ShardedCSRGraph(root)
    np.testing.assert_array_equal(graph.offsets, built.offsets)
    return graph


@pytest.mark.parametrize("algorithm, framework, nodes", CELLS, ids=IDS)
def test_a_sharded_graph_records_nothing_and_equals_the_replay(
        algorithm, framework, nodes, built, sharded):
    resident = fresh(built)
    run_on(resident, algorithm, "giraph", nodes)        # records the run
    out_of_core = run_on(sharded, algorithm, framework, nodes)
    assert not hasattr(sharded, "_derived")
    assert_same_run(out_of_core, run_on(resident, algorithm, framework,
                                        nodes))


@pytest.mark.parametrize("algorithm", GRAPH_PROGRAMS)
def test_resident_nbytes_grows_by_exactly_the_record(algorithm, built):
    graph = fresh(built)
    first, second = BACKENDS
    with use_backend(first):
        run_on(graph, algorithm, "graphlab", 4)
    before, held = graph.resident_nbytes(), set(graph._derived)
    with use_backend(second):
        run_on(graph, algorithm, "graphlab", 4)
    (key, record), = ((key, value) for key, value in graph._derived.items()
                      if key not in held)
    assert key == ("trajectory", algorithm, (), second)
    assert graph.resident_nbytes() == before + nbytes(record)
    for record in records(graph).values():
        assert nbytes(record) <= graph.nbytes()


def test_a_record_larger_than_the_graph_is_not_kept():
    # No edges: the graph is its offsets, while WCC's record holds every
    # vertex twice (the all-vertex first round, and the labels).
    graph = CSRGraph(64, np.zeros(65, dtype=np.int64),
                     np.zeros(0, dtype=np.int64))
    first, _ = run_on(graph, "wcc", "giraph", 1)
    again, _ = run_on(graph, "wcc", "giraph", 1)
    assert not records(graph)
    np.testing.assert_array_equal(first.values, np.arange(64))
    assert plain(first.metrics) == plain(again.metrics)
