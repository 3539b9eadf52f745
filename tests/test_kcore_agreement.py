"""k_core agreement, metamorphic and conservation properties.

The paper's premise is the same algorithm on every framework. For
k_core that is one peel kernel under five engine families, two kernel
backends, two graph stores and any node count — so on
hypothesis-generated small graphs every combination that expresses the
workload must return ``kcore_reference`` after the same number of
cascade waves, relabeling the vertices or shuffling the input edges must
not move the answer, and every ``RunMetrics`` produced along the way
must conserve what it counts: per-node arrays sum to their totals, a
step's bytes sent are its bytes received, and the steps' times plus the
ticks are the run's time.
"""

import contextlib
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms import kcore_reference
from repro.algorithms.registry import FRAMEWORKS, runner
from repro.cluster import Cluster, paper_cluster
from repro.cluster.network import Fabric, TrafficReport
from repro.errors import ExpressibilityError
from repro.frameworks.rounds import KCore
from repro.graph import CSRGraph, EdgeList
from repro.graph.sharded import ShardedCSRGraph, build_sharded_csr
from repro.kernels.backend import BACKENDS, use_backend

NODES = (1, 2, 4)
#: Fixed profile: the same examples on every run, inside tier-1's budget.
agreement_settings = settings(max_examples=25, deadline=None,
                              derandomize=True, database=None)


def _pairs(n):
    vertex = st.integers(min_value=0, max_value=n - 1)
    return st.tuples(st.just(n), st.lists(st.tuples(vertex, vertex),
                                          min_size=n, max_size=5 * n))


def small_graphs(test):
    """``(n, pairs)`` dense enough to cascade, plus the two trivial ones."""
    graphs = given(st.integers(min_value=2, max_value=14).flatmap(_pairs))
    return example((1, []))(example((5, [(0, 0)]))(graphs(test)))


def dense_graph(n, pairs) -> CSRGraph:
    return CSRGraph.from_edges(EdgeList.from_pairs(n, pairs),
                               symmetrize=True, drop_self_loops=True)


def reference_waves(graph) -> int:
    """Cascade waves of the ascending-k peel, by full scans."""
    degrees = graph.out_degrees().astype(np.int64)
    alive = np.ones(graph.num_vertices, dtype=bool)
    sources, targets = graph.sources(), graph.targets
    waves, k = 0, 1
    while alive.any():
        while True:
            wave = alive & (degrees < k)
            if not wave.any():
                break
            waves += 1
            alive &= ~wave
            degrees -= np.bincount(targets[wave[sources]],
                                   minlength=degrees.size)
        k += 1
    return waves


@contextlib.contextmanager
def observed():
    """Record every program's ``cascade_waves`` and every exchange."""
    waves, reports = [], []
    extras, exchange = KCore.extras, Fabric.exchange

    def recording_extras(self):
        found = extras(self)
        waves.append(found["cascade_waves"])
        return found

    def recording_exchange(self, *args, **kwargs):
        report = exchange(self, *args, **kwargs)
        if np.ndim(report.total_bytes):
            # A stack of supersteps charged at once: one report per step.
            reports.extend(
                TrafficReport(*(getattr(report, name)[row] for name in (
                    "comm_times", "bytes_out", "bytes_in", "peak_bandwidth",
                    "total_bytes")))
                for row in range(len(report.total_bytes)))
        else:
            reports.append(report)
        return report

    KCore.extras, Fabric.exchange = recording_extras, recording_exchange
    try:
        yield waves, reports
    finally:
        KCore.extras, Fabric.exchange = extras, exchange


def assert_conserved(metrics, reports) -> None:
    for node_array, total in (
            (metrics.node_streamed_bytes, metrics.streamed_bytes_total),
            (metrics.node_random_bytes, metrics.random_bytes_total),
            (metrics.node_ops, metrics.ops_total),
            (metrics.node_bytes_sent, metrics.bytes_sent_total)):
        assert node_array.shape == (metrics.num_nodes,)
        assert node_array.sum() == pytest.approx(total, rel=1e-12)
    assert metrics.memory_bytes_total == pytest.approx(
        metrics.streamed_bytes_total + metrics.random_bytes_total, rel=1e-12)
    assert len(reports) == len(metrics.steps)
    for step, report in zip(metrics.steps, reports):
        assert report.bytes_out.sum() == pytest.approx(
            report.bytes_in.sum(), rel=1e-12)
        assert step.bytes_sent == report.total_bytes
    assert sum(step.time_s for step in metrics.steps) \
        + metrics.tick_time_s + metrics.charged_time_s \
        == pytest.approx(metrics.total_time_s, rel=1e-12)


def run_everywhere(graph, expected, waves_expected, node_counts=NODES):
    """k_core on every framework that expresses it; returns the count."""
    ran = 0
    for framework in FRAMEWORKS:
        for nodes in node_counts:
            cluster = Cluster(paper_cluster(nodes), enforce_memory=False)
            with observed() as (waves, reports):
                try:
                    result = runner("k_core", framework)(graph, cluster)
                except ExpressibilityError:
                    continue            # Datalog; Galois off one node
            ran += 1
            np.testing.assert_array_equal(result.values, expected)
            assert waves == [waves_expected], (framework, nodes)
            assert_conserved(result.metrics, reports)
    return ran


@agreement_settings
@small_graphs
def test_every_framework_backend_store_and_node_count_agree(data):
    n, pairs = data
    dense = dense_graph(n, pairs)
    expected, waves = kcore_reference(dense), reference_waves(dense)
    with tempfile.TemporaryDirectory() as root:
        build_sharded_csr([EdgeList.from_pairs(n, pairs)], n, root,
                          num_partitions=min(3, n), symmetrize=True)
        sharded = ShardedCSRGraph(root)
        np.testing.assert_array_equal(sharded.offsets, dense.offsets)
        for backend in BACKENDS:
            for graph in (dense, sharded):
                with use_backend(backend):
                    ran = run_everywhere(graph, expected, waves)
                # Eight frameworks on one node; Galois stays there.
                assert ran == 8 + 7 * (len(NODES) - 1)


@agreement_settings
@small_graphs
def test_relabeling_and_edge_order_do_not_move_the_answer(data):
    n, pairs = data
    graph = dense_graph(n, pairs)
    expected, waves = kcore_reference(graph), reference_waves(graph)
    rng = np.random.default_rng(n + len(pairs))

    shuffled = [pairs[i] for i in rng.permutation(len(pairs))]
    same = dense_graph(n, shuffled)
    np.testing.assert_array_equal(same.offsets, graph.offsets)
    np.testing.assert_array_equal(same.targets, graph.targets)

    relabel = rng.permutation(n)
    moved = dense_graph(n, [(int(relabel[u]), int(relabel[v]))
                            for u, v in shuffled])
    moved_expected = np.empty_like(expected)
    moved_expected[relabel] = expected
    run_everywhere(moved, moved_expected, waves, node_counts=(1, 4))
