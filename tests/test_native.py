"""Tests for the native hand-optimized kernels."""

import numpy as np
import pytest

from repro.algorithms import (
    bfs_reference,
    pagerank_reference,
    triangle_count_reference,
    validate_distances,
)
from repro.algorithms.registry import runner
from repro.cluster import Cluster, paper_cluster
from repro.datagen import rmat_graph, rmat_triangle_graph, netflix_like_ratings
from repro.errors import ConvergenceError, SpecError
from repro.frameworks.native import NativeOptions, iterations_to_rmse

bfs, collaborative_filtering, pagerank, triangle_count = (
    runner(algorithm, "native")
    for algorithm in ("bfs", "collaborative_filtering", "pagerank",
                      "triangle_counting"))


@pytest.fixture(scope="module")
def graph_directed():
    return rmat_graph(scale=10, edge_factor=8, seed=11)


@pytest.fixture(scope="module")
def graph_undirected():
    return rmat_graph(scale=10, edge_factor=8, seed=11, directed=False)


@pytest.fixture(scope="module")
def graph_triangles():
    return rmat_triangle_graph(scale=9, edge_factor=8, seed=12)


@pytest.fixture(scope="module")
def ratings_small():
    return netflix_like_ratings(scale=9, num_items=48, seed=13)


def make_cluster(nodes=1, **kwargs):
    return Cluster(paper_cluster(nodes), **kwargs)


class TestNativePageRank:
    def test_matches_reference_single_node(self, graph_directed):
        result = pagerank(graph_directed, make_cluster(1), iterations=5)
        expected = pagerank_reference(graph_directed, iterations=5)
        np.testing.assert_allclose(result.values, expected, rtol=1e-12)

    def test_matches_reference_multi_node(self, graph_directed):
        result = pagerank(graph_directed, make_cluster(4), iterations=5)
        expected = pagerank_reference(graph_directed, iterations=5)
        np.testing.assert_allclose(result.values, expected, rtol=1e-12)

    def test_iteration_accounting(self, graph_directed):
        result = pagerank(graph_directed, make_cluster(2), iterations=7)
        assert result.iterations == 7
        assert result.metrics.num_iterations == 7
        assert result.time_per_iteration_s > 0

    def test_early_convergence(self, graph_directed):
        result = pagerank(graph_directed, make_cluster(1), iterations=200,
                          tolerance=1e-10)
        assert result.iterations < 200

    def test_single_node_sends_nothing(self, graph_directed):
        result = pagerank(graph_directed, make_cluster(1), iterations=3)
        assert result.metrics.bytes_sent_total == 0

    def test_multi_node_sends_messages(self, graph_directed):
        result = pagerank(graph_directed, make_cluster(4), iterations=3)
        assert result.metrics.bytes_sent_total > 0

    def test_compression_reduces_traffic(self, graph_directed):
        on = pagerank(graph_directed, make_cluster(4), iterations=2,
                      options=NativeOptions())
        off = pagerank(graph_directed, make_cluster(4), iterations=2,
                       options=NativeOptions(compression=False))
        assert on.metrics.bytes_sent_total < off.metrics.bytes_sent_total
        assert on.extras["compression_ratio"] > 1.5

    def test_optimizations_speed_things_up(self, graph_directed):
        slow = pagerank(graph_directed, make_cluster(4), iterations=3,
                        options=NativeOptions.baseline())
        fast = pagerank(graph_directed, make_cluster(4), iterations=3,
                        options=NativeOptions())
        assert fast.total_time_s < slow.total_time_s

    def test_validates_arguments(self, graph_directed):
        with pytest.raises(SpecError):
            pagerank(graph_directed, make_cluster(1), iterations=0)
        with pytest.raises(SpecError):
            pagerank(graph_directed, make_cluster(1), damping=1.5)

    def test_memory_bound_single_node(self, graph_directed):
        # Table 4: single-node PageRank is memory-bandwidth limited.
        result = pagerank(graph_directed, make_cluster(1), iterations=3)
        assert result.metrics.bound_by() == "memory"


class TestNativeBFS:
    def test_matches_reference(self, graph_undirected):
        result = bfs(graph_undirected, make_cluster(1), source=0)
        np.testing.assert_array_equal(
            result.values, bfs_reference(graph_undirected, 0)
        )

    def test_matches_reference_multi_node(self, graph_undirected):
        result = bfs(graph_undirected, make_cluster(4), source=0)
        np.testing.assert_array_equal(
            result.values, bfs_reference(graph_undirected, 0)
        )

    def test_distances_valid_property(self, graph_undirected):
        result = bfs(graph_undirected, make_cluster(2), source=5)
        assert validate_distances(graph_undirected, 5, result.values)

    def test_levels_equal_iterations(self, graph_undirected):
        # The final superstep expands the deepest frontier and discovers
        # nothing, so supersteps = max distance + 1.
        result = bfs(graph_undirected, make_cluster(2), source=0)
        max_distance = max(
            d for d in result.values if d != np.iinfo(np.int32).max
        )
        assert result.iterations == max_distance + 1

    def test_frontier_sizes_recorded(self, graph_undirected):
        result = bfs(graph_undirected, make_cluster(1), source=0)
        sizes = result.extras["frontier_sizes"]
        assert sizes[0] == 1
        assert sum(sizes) == result.extras["reached"]

    def test_source_validation(self, graph_undirected):
        with pytest.raises(SpecError):
            bfs(graph_undirected, make_cluster(1), source=-1)

    def test_bitvector_speeds_up(self, graph_undirected):
        with_bv = bfs(graph_undirected, make_cluster(1),
                      options=NativeOptions())
        without = bfs(graph_undirected, make_cluster(1),
                      options=NativeOptions(bitvector=False))
        assert with_bv.total_time_s < without.total_time_s

    def test_compression_reduces_traffic(self, graph_undirected):
        on = bfs(graph_undirected, make_cluster(4), options=NativeOptions())
        off = bfs(graph_undirected, make_cluster(4),
                  options=NativeOptions(compression=False))
        assert on.metrics.bytes_sent_total < off.metrics.bytes_sent_total
        # Paper: BFS id streams compress well (3.2x end-to-end benefit).
        assert on.extras["compression_ratio"] > 2.0

    def test_isolated_source(self):
        from repro.graph import CSRGraph, EdgeList
        graph = CSRGraph.from_edges(EdgeList.from_pairs(4, [(1, 2), (2, 1)]))
        result = bfs(graph, make_cluster(1), source=0)
        assert result.extras["reached"] == 1
        # One superstep expands the isolated source and finds nothing.
        assert result.iterations == 1


class TestNativeTriangles:
    def test_matches_reference(self, graph_triangles):
        result = triangle_count(graph_triangles, make_cluster(1))
        assert result.values == triangle_count_reference(graph_triangles)

    def test_count_independent_of_nodes(self, graph_triangles):
        single = triangle_count(graph_triangles, make_cluster(1))
        multi = triangle_count(graph_triangles, make_cluster(4))
        assert single.values == multi.values

    def test_traffic_exceeds_graph_size(self, graph_triangles):
        # Table 1 / Section 2.1: triangle counting's total message size
        # is much larger than the graph itself.
        result = triangle_count(graph_triangles, make_cluster(4),
                                options=NativeOptions(compression=False))
        graph_bytes = 8 * graph_triangles.num_edges
        assert result.metrics.bytes_sent_total > graph_bytes

    def test_bitvector_speeds_up(self, graph_triangles):
        fast = triangle_count(graph_triangles, make_cluster(1),
                              options=NativeOptions())
        slow = triangle_count(graph_triangles, make_cluster(1),
                              options=NativeOptions(bitvector=False))
        assert fast.total_time_s < slow.total_time_s
        # Paper reports ~2.2x from the bit-vector (Section 6.1.2).
        assert 1.3 < slow.total_time_s / fast.total_time_s < 4.0

    def test_overlap_bounds_buffer_memory(self, graph_triangles):
        blocked = triangle_count(graph_triangles, make_cluster(4),
                                 options=NativeOptions())
        buffered = triangle_count(
            graph_triangles,
            Cluster(paper_cluster(4), enforce_memory=False),
            options=NativeOptions(overlap=False, compression=False),
        )
        assert blocked.metrics.memory_footprint_bytes <= \
            buffered.metrics.memory_footprint_bytes


class TestNativeCF:
    def test_sgd_rmse_decreases(self, ratings_small):
        result = collaborative_filtering(ratings_small, make_cluster(1),
                                         hidden_dim=8, iterations=5,
                                         method="sgd", seed=1)
        curve = result.extras["rmse_curve"]
        assert curve[-1] < curve[0]

    def test_gd_rmse_decreases(self, ratings_small):
        result = collaborative_filtering(ratings_small, make_cluster(1),
                                         hidden_dim=8, iterations=5,
                                         method="gd", gamma0=0.002, seed=1)
        curve = result.extras["rmse_curve"]
        assert curve[-1] < curve[0]

    def test_multi_node_sgd_converges(self, ratings_small):
        result = collaborative_filtering(ratings_small, make_cluster(4),
                                         hidden_dim=8, iterations=5,
                                         method="sgd", seed=1)
        assert result.extras["rmse_curve"][-1] < result.extras["rmse_curve"][0]
        assert result.metrics.bytes_sent_total > 0

    def test_factor_shapes(self, ratings_small):
        result = collaborative_filtering(ratings_small, make_cluster(1),
                                         hidden_dim=8, iterations=2)
        p_factors, q_factors = result.values
        assert p_factors.shape == (ratings_small.num_users, 8)
        assert q_factors.shape == (ratings_small.num_items, 8)

    def test_sgd_beats_gd_per_iteration(self, ratings_small):
        # The paper's key observation: SGD reaches a fixed RMSE in far
        # fewer iterations than GD.
        sgd = collaborative_filtering(ratings_small, make_cluster(1),
                                      hidden_dim=8, iterations=10,
                                      method="sgd", gamma0=0.02,
                                      step_decay=0.99, seed=3)
        gd = collaborative_filtering(ratings_small, make_cluster(1),
                                     hidden_dim=8, iterations=10,
                                     method="gd", gamma0=0.002,
                                     step_decay=0.99, seed=3)
        assert sgd.extras["rmse_curve"][-1] < gd.extras["rmse_curve"][-1]

    def test_iterations_to_rmse(self, ratings_small):
        n = iterations_to_rmse(ratings_small, target_rmse=1.3, method="sgd",
                               hidden_dim=8, max_iterations=50, seed=0)
        assert 1 <= n <= 50

    def test_iterations_to_rmse_names_the_last_gamma0_it_ran(self,
                                                            ratings_small):
        # All four attempts from 1000 diverge; the last one run is 125.
        with np.errstate(all="ignore"), pytest.raises(
                ConvergenceError, match=r"diverged even at gamma0=125\.0$"):
            iterations_to_rmse(ratings_small, target_rmse=1.0, method="gd",
                               hidden_dim=4, max_iterations=5, gamma0=1000.0)

    def test_validates_method(self, ratings_small):
        with pytest.raises(SpecError):
            collaborative_filtering(ratings_small, make_cluster(1),
                                    method="adam")
