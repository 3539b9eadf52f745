"""Tests: KDT front-end, uniform generators, interpreter cross-validation."""

import numpy as np
import pytest

from repro.algorithms import (
    bfs_reference,
    pagerank_reference,
    triangle_count_reference,
)
from repro.algorithms.registry import runner
from repro.cluster import Cluster, paper_cluster
from repro.datagen import rmat_graph, rmat_triangle_graph
from repro.datagen.uniform import (
    erdos_renyi_graph,
    ring_lattice_graph,
    watts_strogatz_graph,
)
from repro.frameworks.base import GIRAPH
from repro.frameworks.vertex import (
    BSPEngine,
    PageRankVertexProgram,
    run_vertex_program,
)
from repro.graph import gini_coefficient


@pytest.fixture(scope="module")
def graph_small():
    return rmat_graph(scale=9, edge_factor=6, seed=101)


def make_cluster(nodes=1, **kwargs):
    return Cluster(paper_cluster(nodes), **kwargs)


class TestKDT:
    def test_pagerank_matches_reference(self, graph_small):
        result = runner("pagerank", "kdt")(graph_small, make_cluster(2), iterations=3)
        np.testing.assert_allclose(result.values,
                                   pagerank_reference(graph_small, 3),
                                   rtol=1e-10)
        assert result.framework == "kdt"

    def test_bfs_matches_reference(self):
        graph = rmat_graph(scale=9, edge_factor=6, seed=102, directed=False)
        result = runner("bfs", "kdt")(graph, make_cluster(2))
        np.testing.assert_array_equal(result.values, bfs_reference(graph, 0))

    def test_triangles_match_reference(self):
        graph = rmat_triangle_graph(scale=8, edge_factor=6, seed=103)
        result = runner("triangle_counting", "kdt")(graph, make_cluster(2))
        assert result.values == triangle_count_reference(graph)

    def test_callback_ops_cost_more_than_builtin(self, graph_small):
        """KDT's published shape: near-1x on built-in semirings,
        multiple-x on callback-bearing kernels (BFS's filter)."""
        scale = 1e4
        graph = rmat_graph(scale=9, edge_factor=6, seed=102, directed=False)
        source = int(np.argmax(graph.out_degrees()))

        cb_pr = runner("pagerank", "combblas")(graph_small,
                                               make_cluster(2, scale_factor=scale),
                                               iterations=3)
        kdt_pr = runner("pagerank", "kdt")(graph_small,
                                           make_cluster(2, scale_factor=scale),
                                           iterations=3)
        pagerank_ratio = (kdt_pr.metrics.total_time_s
                          / cb_pr.metrics.total_time_s)

        cb_bfs = runner("bfs", "combblas")(graph, make_cluster(2, scale_factor=scale),
                                           source=source)
        kdt_bfs = runner("bfs", "kdt")(graph, make_cluster(2, scale_factor=scale),
                                       source=source)
        bfs_ratio = kdt_bfs.metrics.total_time_s / cb_bfs.metrics.total_time_s

        assert pagerank_ratio < 1.5
        assert bfs_ratio > 1.5
        assert bfs_ratio > pagerank_ratio


class TestUniformGenerators:
    def test_erdos_renyi_sizes(self):
        graph = erdos_renyi_graph(1000, 8000, seed=1)
        assert graph.num_vertices == 1000
        assert 6000 < graph.num_edges <= 8000  # dedup/self-loop losses

    def test_erdos_renyi_low_skew(self):
        uniform = erdos_renyi_graph(4096, 64 * 1024, seed=2)
        skewed = rmat_graph(scale=12, edge_factor=16, seed=2)
        assert gini_coefficient(uniform.out_degrees()) < \
            0.5 * gini_coefficient(skewed.out_degrees())

    def test_ring_lattice_is_regular(self):
        graph = ring_lattice_graph(100, degree=6)
        np.testing.assert_array_equal(graph.out_degrees(), 6)
        assert gini_coefficient(graph.out_degrees()) == 0.0

    def test_ring_lattice_degree_clamped(self):
        graph = ring_lattice_graph(4, degree=10)
        assert graph.out_degrees().max() == 3

    def test_watts_strogatz_interpolates(self):
        lattice = watts_strogatz_graph(512, degree=8, rewire_probability=0.0)
        np.testing.assert_array_equal(lattice.out_degrees(), 8)
        rewired = watts_strogatz_graph(512, degree=8,
                                       rewire_probability=0.5, seed=3)
        assert rewired.num_edges <= lattice.num_edges  # dedup losses only
        assert gini_coefficient(rewired.out_degrees()) < 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            erdos_renyi_graph(0, 10)
        with pytest.raises(ValueError):
            ring_lattice_graph(1)
        with pytest.raises(ValueError):
            watts_strogatz_graph(10, rewire_probability=2.0)


class TestInterpreterCrossValidation:
    """The literal Pregel interpreter's counted messages must agree with
    the vectorized engine's analytic accounting."""

    def test_pagerank_message_counts_agree(self):
        graph = rmat_graph(scale=7, edge_factor=5, seed=104)
        iterations = 3
        _, _, stats = run_vertex_program(
            PageRankVertexProgram(iterations=iterations), graph,
            max_supersteps=iterations + 1, collect_stats=True,
        )
        # Interpreter: every superstep 0..iterations-1 sends one message
        # per out-edge of every vertex.
        for sent in stats["messages_per_superstep"][:iterations]:
            assert sent == graph.num_edges

        # Engine (uncombined, Giraph semantics): same per-superstep count.
        engine = BSPEngine(graph, Cluster(paper_cluster(2)), GIRAPH, "1d")
        exchange = engine.edge_messages(
            np.arange(graph.num_vertices), 8.0, combine=False
        )
        assert exchange.messages == graph.num_edges

    def test_bfs_computes_track_frontier(self):
        from repro.frameworks.vertex import BFSVertexProgram

        graph = rmat_graph(scale=7, edge_factor=5, seed=105, directed=False)
        source = int(np.argmax(graph.out_degrees()))
        values, supersteps, stats = run_vertex_program(
            BFSVertexProgram(source=source), graph, collect_stats=True
        )
        distances = bfs_reference(graph, source)
        # Superstep s computes exactly the vertices that receive messages
        # plus initial actives: bounded below by the true frontier size.
        for level in range(min(supersteps, 4)):
            frontier = int((distances == level).sum())
            assert stats["computes_per_superstep"][level] >= frontier
