"""Count-based guards of the round-gather contract.

A frontier round touches its edges once on the host: the kernel step
gathers the active rows and hands that gather to the engine's message
accounting through ``KernelWork.gather``. These tests count calls, not
seconds, so they cannot flake: one ``edge_slots`` per ``propose`` (one
per round on one partition), and for k_core one peel step — hence one
gather — per cascade wave plus one per level. Each test runs on a fresh
graph object: a graph that has run a program replays the recorded run
(``tests/test_round_replay.py``), and these count the live one.
"""

import pytest

from repro.algorithms.registry import runner
from repro.cluster import Cluster, paper_cluster
from repro.datagen import rmat_graph
from repro.frameworks import rounds
from repro.graph import CSRGraph, csr
from repro.kernels import propagation, use_backend

FRAMEWORKS = ("giraph", "graphlab", "combblas", "native")


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
