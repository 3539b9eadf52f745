"""Cross-engine differential tests for the second-generation workloads.

WCC, SSSP, k-core, and label propagation are implemented five different
ways (native kernels, vertex programs, semiring algebra, Datalog,
worklists); this suite pins all ten registry frameworks to the golden
references on randomized and hand-built graphs, checks that the two
Datalog DNF cells fail *typed*, and asserts the PR-6 invariant — the
vectorized and interpreted kernel backends produce byte-identical
answers and simulated metrics.
"""

import numpy as np
import pytest

from repro.algorithms import (
    kcore_reference,
    label_propagation_reference,
    sssp_reference,
    wcc_reference,
)
from repro.algorithms.registry import runner
from repro.cluster import Cluster, paper_cluster
from repro.datagen import rmat_graph
from repro.errors import ExpressibilityError
from repro.graph import CSRGraph, EdgeList
from repro.harness import ExperimentSpec, run
from repro.kernels.backend import BACKENDS, use_backend

ALL_FRAMEWORKS = ("native", "combblas", "graphlab", "socialite",
                  "socialite-published", "giraph", "galois", "gps",
                  "graphx", "kdt")
MULTI_NODE_FRAMEWORKS = tuple(f for f in ALL_FRAMEWORKS if f != "galois")
#: SociaLite cannot express these two (see their runner docstrings).
DATALOG_FRAMEWORKS = ("socialite", "socialite-published")
KCORE_FRAMEWORKS = tuple(f for f in ALL_FRAMEWORKS
                         if f not in DATALOG_FRAMEWORKS)
LP_FRAMEWORKS = KCORE_FRAMEWORKS


def cluster(nodes=1):
    return Cluster(paper_cluster(nodes), enforce_memory=False)


def undirected(seed):
    return rmat_graph(scale=8, edge_factor=6, seed=seed, directed=False)


def hub_source(graph):
    return int(np.argmax(graph.out_degrees()))


# ---------------------------------------------------------------------------
# Differential equivalence on randomized graphs.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("framework", ALL_FRAMEWORKS)
@pytest.mark.parametrize("seed", (81, 82))
def test_wcc_equivalence(framework, seed):
    graph = undirected(seed)
    result = runner("wcc", framework)(graph, cluster())
    np.testing.assert_array_equal(result.values, wcc_reference(graph))


@pytest.mark.parametrize("framework", MULTI_NODE_FRAMEWORKS)
def test_wcc_equivalence_multinode(framework):
    graph = undirected(83)
    result = runner("wcc", framework)(graph, cluster(4))
    np.testing.assert_array_equal(result.values, wcc_reference(graph))


@pytest.mark.parametrize("framework", ALL_FRAMEWORKS)
@pytest.mark.parametrize("seed", (84, 85))
def test_sssp_equivalence(framework, seed):
    graph = undirected(seed)
    source = hub_source(graph)
    result = runner("sssp", framework)(graph, cluster(), source=source)
    np.testing.assert_array_equal(result.values,
                                  sssp_reference(graph, source))


@pytest.mark.parametrize("framework", MULTI_NODE_FRAMEWORKS)
def test_sssp_equivalence_multinode(framework):
    graph = undirected(86)
    source = hub_source(graph)
    result = runner("sssp", framework)(graph, cluster(4), source=source)
    np.testing.assert_array_equal(result.values,
                                  sssp_reference(graph, source))


@pytest.mark.parametrize("framework", KCORE_FRAMEWORKS)
@pytest.mark.parametrize("seed", (87, 88))
def test_kcore_equivalence(framework, seed):
    graph = undirected(seed)
    result = runner("k_core", framework)(graph, cluster())
    np.testing.assert_array_equal(result.values, kcore_reference(graph))


@pytest.mark.parametrize("framework",
                         tuple(f for f in MULTI_NODE_FRAMEWORKS
                               if f not in DATALOG_FRAMEWORKS))
def test_kcore_equivalence_multinode(framework):
    graph = undirected(89)
    result = runner("k_core", framework)(graph, cluster(4))
    np.testing.assert_array_equal(result.values, kcore_reference(graph))


@pytest.mark.parametrize("framework", LP_FRAMEWORKS)
@pytest.mark.parametrize("seed", (90, 91))
def test_label_propagation_equivalence(framework, seed):
    graph = undirected(seed)
    result = runner("label_propagation", framework)(graph, cluster(),
                                                    iterations=3, seed=0)
    np.testing.assert_array_equal(
        result.values, label_propagation_reference(graph, 3, seed=0))


@pytest.mark.parametrize("framework",
                         tuple(f for f in MULTI_NODE_FRAMEWORKS
                               if f not in DATALOG_FRAMEWORKS))
def test_label_propagation_equivalence_multinode(framework):
    graph = undirected(92)
    result = runner("label_propagation", framework)(graph, cluster(4),
                                                    iterations=3, seed=0)
    np.testing.assert_array_equal(
        result.values, label_propagation_reference(graph, 3, seed=0))


def test_round_counts_agree_across_engines():
    """Delta-propagation engines all stop after the same round."""
    graph = undirected(93)
    source = hub_source(graph)
    for algorithm, params in (("wcc", {}), ("sssp", {"source": source})):
        rounds = {
            framework: runner(algorithm, framework)(
                graph, cluster(), **params).iterations
            for framework in ALL_FRAMEWORKS
        }
        assert len(set(rounds.values())) == 1, (algorithm, rounds)


# ---------------------------------------------------------------------------
# Hand-built graphs.
# ---------------------------------------------------------------------------

def two_components():
    return CSRGraph.from_edges(
        EdgeList.from_pairs(6, [(0, 1), (1, 2), (3, 4)]).symmetrize()
    )


def k4_with_pendant():
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)] + [(0, 4)]
    return CSRGraph.from_edges(EdgeList.from_pairs(5, pairs).symmetrize())


@pytest.mark.parametrize("framework", ALL_FRAMEWORKS)
def test_wcc_hand_built(framework):
    result = runner("wcc", framework)(two_components(), cluster())
    np.testing.assert_array_equal(result.values, [0, 0, 0, 3, 3, 5])


@pytest.mark.parametrize("framework", ALL_FRAMEWORKS)
def test_sssp_hand_built_unreachable(framework):
    graph = two_components()
    result = runner("sssp", framework)(graph, cluster(), source=0)
    reference = sssp_reference(graph, 0)
    np.testing.assert_array_equal(result.values, reference)
    assert not np.isfinite(result.values[3:]).any()


@pytest.mark.parametrize("framework", KCORE_FRAMEWORKS)
def test_kcore_hand_built(framework):
    result = runner("k_core", framework)(k4_with_pendant(), cluster())
    np.testing.assert_array_equal(result.values, [3, 3, 3, 3, 1])


@pytest.mark.parametrize("framework", LP_FRAMEWORKS)
def test_label_propagation_hand_built(framework):
    graph = k4_with_pendant()
    result = runner("label_propagation", framework)(graph, cluster(),
                                                    iterations=2, seed=3)
    np.testing.assert_array_equal(
        result.values, label_propagation_reference(graph, 2, seed=3))


# ---------------------------------------------------------------------------
# Typed DNF cells.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("framework", DATALOG_FRAMEWORKS)
@pytest.mark.parametrize("algorithm", ("k_core", "label_propagation"))
def test_datalog_unsupported_cells_are_typed(framework, algorithm):
    graph = two_components()
    with pytest.raises(ExpressibilityError, match=algorithm):
        runner(algorithm, framework)(graph, cluster())
    # Through the harness the same cell is a result, not a crash.
    record = run(ExperimentSpec(algorithm, framework, graph))
    assert record.status == "unsupported"
    assert algorithm in record.failure


# ---------------------------------------------------------------------------
# Kernel backend invariance (the PR-6 contract, extended).
# ---------------------------------------------------------------------------

BACKEND_PROBE_FRAMEWORKS = ("native", "combblas", "giraph", "galois")


@pytest.mark.parametrize("framework", BACKEND_PROBE_FRAMEWORKS)
@pytest.mark.parametrize("algorithm",
                         ("wcc", "sssp", "k_core", "label_propagation"))
def test_backends_bit_identical(framework, algorithm):
    graph = undirected(94)
    params = {"source": hub_source(graph)} if algorithm == "sssp" else {}
    outputs = {}
    for name in BACKENDS:
        with use_backend(name):
            result = runner(algorithm, framework)(graph, cluster(), **params)
        metrics = result.metrics
        outputs[name] = (
            np.asarray(result.values).tobytes(),
            result.iterations,
            metrics.total_time_s,
            metrics.bytes_sent_total,
            metrics.ops_total,
            metrics.streamed_bytes_total,
            metrics.random_bytes_total,
        )
    first, *rest = outputs.values()
    for other in rest:
        assert other == first
