"""Count-based guards of the round-gather contract.

A frontier round touches its edges once on the host. On a live run the
kernel step gathers the active rows, and the chunk of rounds an engine
charges keeps those gathers (``KernelWork.gather``) until it is charged:
one ``edge_slots`` per ``propose`` (one per round on one partition), and
for k_core one peel step — hence one gather — per cascade wave plus one
per level. On a replay a family that reads edges gathers each chunk
once, and one that reads none (Galois, native at one node, and Giraph at
one node, whose uncombined messages are its edges) gathers nothing. A
chunk is as many rounds as visit at most the graph's edge count, so no
chunk holds more gathered edges than the graph has. A replayed chunk's
target census (``Rounds.census``) is held with the graph, so on one node
a GraphLab replay after a CombBLAS replay of the same record gathers
nothing. These tests count calls, not seconds, so they cannot flake.
Each runs on a fresh graph object: a graph that has run a program
replays the recorded run (``tests/test_round_replay.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import runner
from repro.cluster import Cluster, paper_cluster
from repro.datagen import rmat_graph, rmat_graph_sharded
from repro.errors import DeadlineExceeded
from repro.frameworks import rounds
from repro.frameworks.matrix.spmat import ProcessGrid
from repro.graph import CSRGraph, csr
from repro.kernels import propagation, use_backend
from repro.kernels.segments import distinct

FRAMEWORKS = ("giraph", "graphlab", "combblas", "native")
ALGORITHMS = ("bfs", "wcc", "sssp", "k_core")


@pytest.fixture(scope="module")
def built():
    return rmat_graph(scale=8, edge_factor=6, seed=31, directed=False)


@pytest.fixture
def graph(built):
    return CSRGraph(built.num_vertices, built.offsets, built.targets,
                    symmetric=built.symmetric)


def counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.fixture
def gathers(monkeypatch):
    """Every ragged gather made: ``neighbors_of_many`` ends in one too."""
    calls = []
    counting(monkeypatch, csr, "edge_slots", calls)
    monkeypatch.setattr(propagation, "edge_slots", csr.edge_slots)
    return calls


@pytest.mark.parametrize("nodes", (1, 4))
@pytest.mark.parametrize("framework", FRAMEWORKS)
@pytest.mark.parametrize("algorithm", ("bfs", "wcc", "sssp"))
def test_a_round_gathers_once_per_propose(algorithm, framework, nodes, graph,
                                          gathers, monkeypatch):
    proposes = []
    counting(monkeypatch, rounds.PROGRAMS[algorithm], "propose", proposes)
    with use_backend("vectorized"):     # the oracle walks, not gathers
        result = runner(algorithm, framework)(
            graph, Cluster(paper_cluster(nodes), enforce_memory=False))
    # Native proposes once per owner; the others run one partition.
    per_round = nodes if framework == "native" else 1
    assert len(proposes) == per_round * result.iterations
    assert len(gathers) == len(proposes)


@pytest.mark.parametrize("nodes", (1, 4))
@pytest.mark.parametrize("framework", FRAMEWORKS)
def test_k_core_steps_once_per_wave_and_once_per_level(framework, nodes, graph,
                                                       gathers, monkeypatch):
    steps, waves = [], []
    counting(monkeypatch, propagation.KCorePeel, "step", steps)
    extras = rounds.KCore.extras

    def recording_extras(self):         # not every engine reports the waves
        waves.append(extras(self)["cascade_waves"])
        return extras(self)

    monkeypatch.setattr(rounds.KCore, "extras", recording_extras)
    with use_backend("vectorized"):
        result = runner("k_core", framework)(
            graph, Cluster(paper_cluster(nodes), enforce_memory=False))
    levels = int(result.values.max()) + 1
    assert len(steps) == waves[0] + levels
    assert len(gathers) == len(steps)


def reads_edges(framework, nodes, algorithm) -> bool:
    """Which engines read a chunk's edges when they charge it."""
    if framework == "native":
        return algorithm == "k_core" and nodes > 1
    return framework != "galois" and (framework != "giraph" or nodes > 1)


@pytest.fixture
def chunks(monkeypatch):
    """The edges each round visited, of every chunk handed to an engine."""
    made = []

    class Counted(rounds.Rounds):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self.edges.tolist())

    monkeypatch.setattr(rounds, "Rounds", Counted)
    return made


@pytest.mark.parametrize("nodes", (1, 4))
@pytest.mark.parametrize("framework", (*FRAMEWORKS, "galois"))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_replayed_chunk_gathers_once(algorithm, framework, nodes, graph,
                                       gathers, chunks):
    if framework == "galois" and nodes > 1 \
            or framework == "native" and nodes > 1 and algorithm != "k_core":
        pytest.skip("single-node only, or proposed owner by owner (live)")
    with use_backend("vectorized"):
        runner(algorithm, "giraph")(graph, Cluster(paper_cluster(nodes),
                                                   enforce_memory=False))
        gathers.clear()
        chunks.clear()
        runner(algorithm, framework)(graph, Cluster(paper_cluster(nodes),
                                                    enforce_memory=False))
    assert chunks
    expected = len(chunks) if reads_edges(framework, nodes, algorithm) else 0
    assert len(gathers) == expected


@pytest.mark.parametrize("framework", ("graphlab", "native"))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_chunk_holds_at_most_the_graphs_edges(algorithm, framework, graph,
                                               chunks):
    with use_backend("vectorized"):
        for _ in ("live", "replayed"):
            runner(algorithm, framework)(graph, Cluster(paper_cluster(1),
                                                        enforce_memory=False))
    live, replayed = chunks[:len(chunks) // 2], chunks[len(chunks) // 2:]
    assert live == replayed
    limit = graph.num_edges
    for chunk, following in zip(live, live[1:]):
        # As many rounds as fit: the next chunk's first round does not.
        assert sum(chunk) + following[0] > limit
    for chunk in live:
        assert chunk and sum(chunk) <= limit
    if algorithm == "k_core":           # the peel visits every edge once
        assert len(live) == 1 and sum(live[0]) == limit


# ---------------------------------------------------------------------------
# The target census: counted once per replayed chunk, shared by families.
# ---------------------------------------------------------------------------


def censuses(graph) -> list:
    return [key for key in csr.held_keys(graph) if key[0] == "census"]


def one_node():
    return Cluster(paper_cluster(1), enforce_memory=False)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_graphlab_reads_the_census_a_combblas_replay_left(algorithm, graph,
                                                          built, gathers):
    with use_backend("vectorized"):
        for framework in ("native", "combblas"):
            runner(algorithm, framework)(graph, one_node())
        held = censuses(graph)
        assert held
        gathers.clear()
        shared = runner(algorithm, "graphlab")(graph, one_node())
        assert gathers == [] and censuses(graph) == held
        fresh = runner(algorithm, "graphlab")(
            CSRGraph(built.num_vertices, built.offsets, built.targets,
                     symmetric=built.symmetric), one_node())
    assert shared.total_time_s == fresh.total_time_s
    assert shared.extras == fresh.extras


def test_a_sharded_graph_holds_no_census(tmp_path, monkeypatch, built):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    graph = rmat_graph_sharded(8, 6, seed=31, directed=False)
    with use_backend("vectorized"):
        runs = [runner("wcc", framework)(graph, one_node()).total_time_s
                for framework in ("combblas", "graphlab", "combblas")]
        dense = CSRGraph(built.num_vertices, built.offsets, built.targets,
                         symmetric=built.symmetric)
        assert runs[0] == runs[2] == runner("wcc", "combblas")(
            dense, one_node()).total_time_s
    assert not hasattr(graph, "_derived") and csr.held_keys(graph) == ()


def test_a_live_run_that_raises_leaves_no_census(graph):
    with use_backend("vectorized"):
        whole = runner("wcc", "combblas")(
            CSRGraph(graph.num_vertices, graph.offsets, graph.targets,
                     symmetric=graph.symmetric), one_node())
        with pytest.raises(DeadlineExceeded):
            runner("wcc", "combblas")(graph, Cluster(
                paper_cluster(1), enforce_memory=False,
                deadline_s=whole.total_time_s / 2))
        assert csr.held_keys(graph) and not censuses(graph)
        runner("wcc", "combblas")(graph, one_node())     # live, kept
        assert not censuses(graph)
        runner("wcc", "combblas")(graph, one_node())     # replayed
    assert censuses(graph)


def census_by_bincount(chunk, cuts) -> np.ndarray:
    """The oracle: ``spmspv_costs``' y counts before the census."""
    graph, bands = chunk.graph, len(cuts) - 1
    n = graph.num_vertices
    band = np.minimum(np.searchsorted(cuts, np.arange(n), "right") - 1,
                      bands - 1)
    targets, lengths = graph.neighbors_of_many(chunk.active)
    present = distinct(chunk.round_of_edges(lengths) * np.int64(n) + targets,
                       chunk.count * n)
    return np.bincount(present // n * bands + band[present % n],
                       minlength=chunk.count * bands).reshape(
                           chunk.count, bands)


@pytest.mark.parametrize("nodes", (1, 2, 4, 16))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       sizes=st.lists(st.integers(1, 300), min_size=1, max_size=6),
       first=st.integers(0, 5))
def test_every_census_view_is_distinct_plus_bincount(built, nodes, seed,
                                                     sizes, first):
    graph = CSRGraph(built.num_vertices, built.offsets, built.targets,
                     symmetric=built.symmetric)
    n, rng = graph.num_vertices, np.random.default_rng(seed)
    chosen = [np.sort(rng.permutation(n)[:size]) for size in sizes]
    g = ProcessGrid(nodes).grid
    cuts = np.linspace(0, n, g + 1).astype(np.int64)
    inner = cuts[1:-1][rng.random(g - 1) < 0.5]
    views = (cuts, (0, n), (0, *inner.tolist(), n))

    def chunk(key):
        return rounds.Rounds(
            rounds.BFS, graph, first, np.concatenate(chosen),
            np.cumsum([0, *(ids.size for ids in chosen)]),
            np.zeros(len(chosen)), np.zeros(len(chosen), dtype=np.int64),
            np.zeros(1, dtype=np.int64), None, None, key=key)

    for key in (None, ("trajectory", "bfs")):
        for view in views:      # the replay's later views sum the first
            found = chunk(key).census(view)
            expected = census_by_bincount(chunk(None), view)
            assert found.dtype == expected.dtype
            assert found.tobytes() == expected.tobytes()
    assert len(censuses(graph)) == 1
