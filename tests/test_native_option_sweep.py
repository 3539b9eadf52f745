"""Exhaustive sweep of the native optimization toggle space.

All 16 combinations of (prefetch, compression, overlap, bitvector) must
produce identical algorithm outputs, monotone costs along each single
toggle, and sensible metric side-effects. This pins the Figure 7
machinery far beyond the ladder the paper plots.
"""

import itertools

import numpy as np
import pytest

from repro.algorithms.registry import runner
from repro.cluster import Cluster, paper_cluster
from repro.datagen import rmat_graph, rmat_triangle_graph
from repro.frameworks.native import NativeOptions

bfs, pagerank, triangle_count = (
    runner(algorithm, "native")
    for algorithm in ("bfs", "pagerank", "triangle_counting"))

ALL_OPTIONS = [
    NativeOptions(prefetch=p, compression=c, overlap=o, bitvector=b)
    for p, c, o, b in itertools.product((False, True), repeat=4)
]


@pytest.fixture(scope="module")
def graph_directed():
    return rmat_graph(scale=9, edge_factor=8, seed=111)


@pytest.fixture(scope="module")
def graph_undirected():
    return rmat_graph(scale=9, edge_factor=8, seed=111, directed=False)


@pytest.fixture(scope="module")
def graph_triangles():
    return rmat_triangle_graph(scale=8, edge_factor=8, seed=112)


def run_all(kernel, graph, **kwargs):
    results = {}
    for options in ALL_OPTIONS:
        cluster = Cluster(paper_cluster(4), enforce_memory=False)
        results[options] = kernel(graph, cluster, options=options, **kwargs)
    return results


class TestOutputInvariance:
    def test_pagerank_outputs_identical(self, graph_directed):
        results = run_all(pagerank, graph_directed, iterations=2)
        reference = next(iter(results.values())).values
        for result in results.values():
            np.testing.assert_allclose(result.values, reference)

    def test_bfs_outputs_identical(self, graph_undirected):
        source = int(np.argmax(graph_undirected.out_degrees()))
        results = run_all(bfs, graph_undirected, source=source)
        reference = next(iter(results.values())).values
        for result in results.values():
            np.testing.assert_array_equal(result.values, reference)

    def test_triangle_outputs_identical(self, graph_triangles):
        results = run_all(triangle_count, graph_triangles)
        counts = {result.values for result in results.values()}
        assert len(counts) == 1


class TestMonotonicity:
    """Flipping any single optimization ON never makes things worse."""

    @pytest.mark.parametrize("flag", ["prefetch", "compression", "overlap"])
    def test_pagerank_each_toggle_helps(self, graph_directed, flag):
        for options in ALL_OPTIONS:
            if getattr(options, flag):
                continue
            off = Cluster(paper_cluster(4), enforce_memory=False)
            on = Cluster(paper_cluster(4), enforce_memory=False)
            slow = pagerank(graph_directed, off, iterations=2,
                            options=options)
            fast = pagerank(graph_directed, on, iterations=2,
                            options=options.with_(**{flag: True}))
            assert fast.total_time_s <= slow.total_time_s * 1.001, \
                (flag, options)

    @pytest.mark.parametrize("flag", ["prefetch", "compression", "overlap",
                                      "bitvector"])
    def test_bfs_each_toggle_helps(self, graph_undirected, flag):
        source = int(np.argmax(graph_undirected.out_degrees()))
        for options in ALL_OPTIONS:
            if getattr(options, flag):
                continue
            slow = bfs(graph_undirected,
                       Cluster(paper_cluster(4), enforce_memory=False),
                       source=source, options=options)
            fast = bfs(graph_undirected,
                       Cluster(paper_cluster(4), enforce_memory=False),
                       source=source,
                       options=options.with_(**{flag: True}))
            assert fast.total_time_s <= slow.total_time_s * 1.001, \
                (flag, options)


class TestSideEffects:
    def test_compression_only_touches_wire(self, graph_directed):
        on = pagerank(graph_directed,
                      Cluster(paper_cluster(4), enforce_memory=False),
                      iterations=2, options=NativeOptions())
        off = pagerank(graph_directed,
                       Cluster(paper_cluster(4), enforce_memory=False),
                       iterations=2,
                       options=NativeOptions(compression=False))
        assert on.metrics.bytes_sent_total < off.metrics.bytes_sent_total
        assert on.iterations == off.iterations

    def test_overlap_reduces_buffer_memory(self, graph_triangles):
        blocked = triangle_count(
            graph_triangles, Cluster(paper_cluster(4), enforce_memory=False),
            options=NativeOptions())
        buffered = triangle_count(
            graph_triangles, Cluster(paper_cluster(4), enforce_memory=False),
            options=NativeOptions(overlap=False))
        assert blocked.metrics.memory_footprint_bytes <= \
            buffered.metrics.memory_footprint_bytes

    def test_baseline_is_worst_everywhere(self, graph_directed):
        baseline = pagerank(graph_directed,
                            Cluster(paper_cluster(4), enforce_memory=False),
                            iterations=2,
                            options=NativeOptions.baseline())
        for options in ALL_OPTIONS:
            other = pagerank(graph_directed,
                             Cluster(paper_cluster(4),
                                     enforce_memory=False),
                             iterations=2, options=options)
            assert other.total_time_s <= baseline.total_time_s * 1.001

    def test_figure7_ladder_monotone(self):
        from repro.frameworks.native import FIGURE7_LADDER

        flags_on = [sum([o.prefetch, o.compression, o.overlap, o.bitvector])
                    for _, o in FIGURE7_LADDER]
        assert flags_on == sorted(flags_on)
