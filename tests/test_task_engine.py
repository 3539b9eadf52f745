"""Tests for the Galois task engine and front-end."""

import numpy as np
import pytest

from repro.algorithms import (
    bfs_reference,
    pagerank_reference,
    triangle_count_reference,
)
from repro.algorithms.registry import runner
from repro.cluster import Cluster, paper_cluster
from repro.datagen import netflix_like_ratings, rmat_graph, rmat_triangle_graph
from repro.errors import ExpressibilityError, SpecError


@pytest.fixture(scope="module")
def graph_small():
    return rmat_graph(scale=9, edge_factor=6, seed=51)


@pytest.fixture(scope="module")
def graph_small_undirected():
    return rmat_graph(scale=9, edge_factor=6, seed=51, directed=False)


@pytest.fixture(scope="module")
def graph_triangles():
    return rmat_triangle_graph(scale=8, edge_factor=6, seed=52)


def make_cluster(**kwargs):
    return Cluster(paper_cluster(1), **kwargs)


class TestGalois:
    def test_rejects_multi_node(self, graph_small):
        # Typed, so the harness reports ``unsupported`` without reading
        # the message.
        with pytest.raises(ExpressibilityError, match="single-node"):
            runner("pagerank", "galois")(graph_small, Cluster(paper_cluster(4)))

    def test_pagerank_matches_reference(self, graph_small):
        result = runner("pagerank", "galois")(graph_small, make_cluster(), iterations=4)
        np.testing.assert_allclose(
            result.values, pagerank_reference(graph_small, 4), rtol=1e-12
        )

    def test_bfs_matches_reference(self, graph_small_undirected):
        result = runner("bfs", "galois")(graph_small_undirected, make_cluster())
        np.testing.assert_array_equal(
            result.values, bfs_reference(graph_small_undirected, 0)
        )

    def test_triangles_match_reference(self, graph_triangles):
        result = runner("triangle_counting", "galois")(graph_triangles, make_cluster())
        assert result.values == triangle_count_reference(graph_triangles)

    def test_cf_sgd_converges(self):
        ratings = netflix_like_ratings(scale=9, num_items=48, seed=53)
        result = runner("collaborative_filtering", "galois")(
            ratings, make_cluster(), hidden_dim=8, iterations=4, seed=1
        )
        curve = result.extras["rmse_curve"]
        assert result.extras["method"] == "sgd"
        assert curve[-1] < curve[0]

    def test_close_to_native_pagerank(self, graph_small):
        # Table 5: Galois PageRank within ~1.2x of native.
        scale = 1e5
        native_result = runner("pagerank", "native")(
            graph_small, make_cluster(scale_factor=scale), iterations=3
        )
        galois_result = runner("pagerank", "galois")(
            graph_small, make_cluster(scale_factor=scale), iterations=3
        )
        ratio = (galois_result.time_per_iteration_s
                 / native_result.time_per_iteration_s)
        assert 1.0 <= ratio < 3.0

    def test_triangle_gap_larger_than_pagerank_gap(self, graph_triangles):
        # Table 5: the TC gap (2.5x) exceeds the PageRank gap (1.2x)
        # because merges read more than bit-vector probes.
        scale = 1e5
        native_tc = runner("triangle_counting", "native")(
            graph_triangles, make_cluster(scale_factor=scale)
        )
        galois_tc = runner("triangle_counting", "galois")(
            graph_triangles, make_cluster(scale_factor=scale)
        )
        tc_ratio = galois_tc.total_time_s / native_tc.total_time_s
        assert tc_ratio > 1.3

    def test_validates_arguments(self, graph_small):
        with pytest.raises(SpecError):
            runner("pagerank", "galois")(graph_small, make_cluster(), iterations=0)
        with pytest.raises(SpecError):
            runner("bfs", "galois")(graph_small, make_cluster(), source=-1)
