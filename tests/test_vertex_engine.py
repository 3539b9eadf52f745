"""Tests for the vertex-programming engine and GraphLab/Giraph front-ends."""

import numpy as np
import pytest

from repro.algorithms import (
    UNREACHED,
    bfs_reference,
    pagerank_reference,
    triangle_count_reference,
)
from repro.algorithms.registry import runner
from repro.cluster import Cluster, paper_cluster
from repro.datagen import netflix_like_ratings, rmat_graph, rmat_triangle_graph
from repro.errors import CapacityError, SimulationError
from repro.frameworks.base import GIRAPH, GRAPHLAB
from repro.frameworks.vertex import (
    BFSVertexProgram,
    BSPEngine,
    PageRankVertexProgram,
    run_vertex_program,
)
from repro.graph import CSRGraph, EdgeList


@pytest.fixture(scope="module")
def graph_small():
    return rmat_graph(scale=9, edge_factor=6, seed=21)


@pytest.fixture(scope="module")
def graph_small_undirected():
    return rmat_graph(scale=9, edge_factor=6, seed=21, directed=False)


@pytest.fixture(scope="module")
def graph_triangles():
    return rmat_triangle_graph(scale=8, edge_factor=6, seed=22)


@pytest.fixture(scope="module")
def ratings_small():
    return netflix_like_ratings(scale=9, num_items=48, seed=23)


def make_cluster(nodes=1, **kwargs):
    return Cluster(paper_cluster(nodes), **kwargs)


class TestLiteralInterpreter:
    """The paper's Algorithm 1 / 2, executed vertex by vertex."""

    def test_pagerank_program_matches_reference(self):
        graph = CSRGraph.from_edges(
            EdgeList.from_pairs(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        )
        values, _ = run_vertex_program(
            PageRankVertexProgram(iterations=4), graph, max_supersteps=10
        )
        expected = pagerank_reference(graph, iterations=4)
        np.testing.assert_allclose(values, expected, rtol=1e-12)

    def test_bfs_program_matches_reference(self):
        graph = CSRGraph.from_edges(
            EdgeList.from_pairs(
                6, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (4, 5),
                    (5, 4)]
            )
        )
        values, _ = run_vertex_program(BFSVertexProgram(source=0), graph)
        np.testing.assert_array_equal(
            values, bfs_reference(graph, 0)
        )

    def test_bfs_program_on_random_graph(self):
        graph = rmat_graph(scale=6, edge_factor=4, seed=5, directed=False)
        values, supersteps = run_vertex_program(BFSVertexProgram(source=0),
                                                graph)
        np.testing.assert_array_equal(values, bfs_reference(graph, 0))
        assert supersteps >= 1

    def test_halting(self):
        graph = CSRGraph.from_edges(EdgeList.from_pairs(2, [(0, 1)]))
        _, supersteps = run_vertex_program(BFSVertexProgram(source=0), graph,
                                           max_supersteps=50)
        assert supersteps <= 3


class TestBSPEngine:
    def test_rejects_unknown_partition_mode(self, graph_small):
        with pytest.raises(SimulationError):
            BSPEngine(graph_small, make_cluster(2), GIRAPH, "3d")

    def test_combining_reduces_messages(self, graph_small):
        cluster = make_cluster(4)
        combined = BSPEngine(graph_small, cluster, GRAPHLAB, "1d")
        raw = BSPEngine(graph_small, cluster, GIRAPH, "1d")
        senders = np.arange(graph_small.num_vertices)
        stats_combined = combined.edge_messages(senders, 8.0)
        stats_raw = raw.edge_messages(senders, 8.0)
        assert stats_combined.messages < stats_raw.messages
        assert stats_combined.traffic.sum() < stats_raw.traffic.sum()

    def test_empty_senders(self, graph_small):
        engine = BSPEngine(graph_small, make_cluster(2), GIRAPH, "1d")
        stats = engine.edge_messages(np.array([], dtype=np.int64), 8.0)
        assert stats.messages == 0
        assert stats.traffic.sum() == 0

    def test_single_node_no_wire_traffic(self, graph_small):
        # The diagonal holds node-local message volume (Giraph buffers
        # those too) but nothing may be destined for another node.
        engine = BSPEngine(graph_small, make_cluster(1), GIRAPH, "1d")
        stats = engine.edge_messages(np.arange(graph_small.num_vertices), 8.0)
        off_diagonal = stats.traffic.sum() - np.trace(stats.traffic)
        assert off_diagonal == 0
        result = runner("pagerank", "giraph")(graph_small, make_cluster(1), iterations=2)
        assert result.metrics.bytes_sent_total == 0

    def test_serialization_overhead_applied(self, graph_small):
        engine = BSPEngine(graph_small, make_cluster(2), GIRAPH, "1d")
        stats = engine.edge_messages(np.arange(graph_small.num_vertices), 8.0)
        # Giraph's 3x object overhead must appear on the wire.
        assert stats.traffic.sum() >= 2.9 * stats.payload_bytes \
            * (stats.traffic.sum() > 0)

    def test_vertex_cut_sync_traffic(self, graph_small):
        engine = BSPEngine(graph_small, make_cluster(4), GRAPHLAB,
                           "vertex-cut")
        traffic = engine.replication_sync_traffic(
            np.arange(graph_small.num_vertices), 8.0
        )
        assert traffic.sum() > 0
        assert np.all(np.diag(traffic) == 0)

    def test_replication_sync_requires_vertex_cut(self, graph_small):
        engine = BSPEngine(graph_small, make_cluster(2), GIRAPH, "1d")
        with pytest.raises(SimulationError):
            engine.replication_sync_traffic(np.array([0]), 8.0)

    def test_splits_validated(self, graph_small):
        engine = BSPEngine(graph_small, make_cluster(2), GIRAPH, "1d")
        stats = engine.edge_messages(np.arange(10), 8.0)
        with pytest.raises(SimulationError):
            engine.superstep(np.arange(10), [0.0, 0.0], stats, 8.0, splits=0)


class TestGraphLab:
    def test_pagerank_matches_reference(self, graph_small):
        result = runner("pagerank", "graphlab")(graph_small, make_cluster(2), iterations=4)
        np.testing.assert_allclose(
            result.values, pagerank_reference(graph_small, 4), rtol=1e-12
        )

    def test_bfs_matches_reference(self, graph_small_undirected):
        result = runner("bfs", "graphlab")(graph_small_undirected, make_cluster(2))
        np.testing.assert_array_equal(
            result.values, bfs_reference(graph_small_undirected, 0)
        )

    def test_triangles_match_reference(self, graph_triangles):
        result = runner("triangle_counting", "graphlab")(graph_triangles, make_cluster(2))
        assert result.values == triangle_count_reference(graph_triangles)

    def test_cf_rmse_decreases(self, ratings_small):
        result = runner("collaborative_filtering", "graphlab")(
            ratings_small, make_cluster(2), hidden_dim=8, iterations=4
        )
        curve = result.extras["rmse_curve"]
        assert curve[-1] < curve[0]

    def test_slower_than_native(self, graph_small):
        native_result = runner("pagerank", "native")(graph_small, make_cluster(1),
                                                     iterations=4)
        graphlab_result = runner("pagerank", "graphlab")(graph_small, make_cluster(1),
                                                         iterations=4)
        assert graphlab_result.time_per_iteration_s > \
            native_result.time_per_iteration_s


class TestGiraph:
    def test_pagerank_matches_reference(self, graph_small):
        result = runner("pagerank", "giraph")(graph_small, make_cluster(2), iterations=3)
        np.testing.assert_allclose(
            result.values, pagerank_reference(graph_small, 3), rtol=1e-12
        )

    def test_bfs_matches_reference(self, graph_small_undirected):
        result = runner("bfs", "giraph")(graph_small_undirected, make_cluster(2))
        np.testing.assert_array_equal(
            result.values, bfs_reference(graph_small_undirected, 0)
        )

    def test_triangles_match_reference(self, graph_triangles):
        result = runner("triangle_counting", "giraph")(graph_triangles, make_cluster(2))
        assert result.values == triangle_count_reference(graph_triangles)

    def test_cpu_utilization_capped_by_workers(self, graph_small):
        result = runner("pagerank", "giraph")(graph_small, make_cluster(2), iterations=3)
        # 4 workers on 24 cores: utilization can never exceed ~17%.
        assert result.metrics.cpu_utilization <= 4 / 24 + 0.01

    def test_orders_of_magnitude_slower_than_native(self, graph_small):
        native_result = runner("pagerank", "native")(graph_small, make_cluster(1),
                                                     iterations=3)
        giraph_result = runner("pagerank", "giraph")(graph_small, make_cluster(1),
                                                     iterations=3)
        assert giraph_result.time_per_iteration_s > \
            10 * native_result.time_per_iteration_s

    def test_superstep_splitting_bounds_memory(self, graph_triangles):
        # Without splitting, Giraph buffers the entire O(sum d^2) message
        # volume; with 100 splits the footprint shrinks ~100x.
        unsplit = runner("triangle_counting", "giraph")(
            graph_triangles,
            Cluster(paper_cluster(2), enforce_memory=False),
            superstep_splits=1,
        )
        split = runner("triangle_counting", "giraph")(
            graph_triangles,
            Cluster(paper_cluster(2), enforce_memory=False),
            superstep_splits=100,
        )
        # The graph itself is a fixed floor; the buffer share must shrink
        # by roughly the split factor.
        assert split.metrics.memory_footprint_bytes < \
            0.25 * unsplit.metrics.memory_footprint_bytes

    def test_unsplit_triangle_oom_at_paper_scale(self, graph_triangles):
        # At a paper-scale extrapolation factor, the buffered message
        # volume exceeds 64 GB/node: the Section 6.1.3 failure.
        cluster = Cluster(paper_cluster(2), scale_factor=1_000_000.0)
        with pytest.raises(CapacityError):
            runner("triangle_counting", "giraph")(graph_triangles, cluster,
                                                  superstep_splits=1)
        # With the 100-way split the same run fits.
        ok = runner("triangle_counting", "giraph")(
            graph_triangles,
            Cluster(paper_cluster(2), scale_factor=1_000_000.0),
            superstep_splits=100,
        )
        assert ok.values >= 0

    def test_split_supersteps_cost_overhead(self, graph_triangles):
        few = runner("triangle_counting", "giraph")(
            graph_triangles, Cluster(paper_cluster(2), enforce_memory=False),
            superstep_splits=1,
        )
        many = runner("triangle_counting", "giraph")(
            graph_triangles, Cluster(paper_cluster(2), enforce_memory=False),
            superstep_splits=100,
        )
        # 100 Hadoop supersteps add ~90s of scheduling overhead.
        assert many.total_time_s > few.total_time_s + 50

    def test_cf_converges(self, ratings_small):
        result = runner("collaborative_filtering", "giraph")(
            ratings_small, make_cluster(2), hidden_dim=8, iterations=3
        )
        curve = result.extras["rmse_curve"]
        assert curve[-1] < curve[0]
