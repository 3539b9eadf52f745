"""Tests for the ratings generator and the dataset catalog."""

import numpy as np
import pytest

from repro.datagen import (
    CATALOG,
    bfs_variant,
    dataset,
    filter_min_degree,
    fold_to_bipartite,
    netflix_like_ratings,
    triangle_variant,
    uniform_ratings,
)
from repro.errors import SpecError
from repro.graph import EdgeList, gini_coefficient


class TestFold:
    def test_fold_maps_columns_mod_items(self):
        edges = EdgeList.from_pairs(10, [(0, 7), (1, 9), (2, 3)])
        folded = fold_to_bipartite(edges, num_items=4)
        assert set(zip(folded.src.tolist(), folded.dst.tolist())) == {
            (0, 3), (1, 1), (2, 3)
        }

    def test_fold_is_logical_or(self):
        # Columns 1 and 5 fold onto item 1; duplicates must collapse.
        edges = EdgeList.from_pairs(10, [(0, 1), (0, 5)])
        folded = fold_to_bipartite(edges, num_items=4)
        assert folded.num_edges == 1

    def test_fold_validates(self):
        with pytest.raises(ValueError):
            fold_to_bipartite(EdgeList.from_pairs(4, []), num_items=0)


class TestDegreeFilter:
    def test_removes_low_degree_to_fixed_point(self):
        # User 0 rates 5 items; each of those items is rated by only
        # user 0 plus maybe one more — engineered cascade.
        pairs = [(0, i) for i in range(5)] + [(1, 0)]
        edges = EdgeList.from_pairs(6, pairs)
        src, dst = filter_min_degree(edges, num_items=5, min_degree=2)
        # Item degrees: item0=2, others=1 -> items 1..4 drop -> user 0
        # degree falls to 1 -> everything drops.
        assert src.size == 0

    def test_keeps_dense_core(self):
        pairs = [(u, i) for u in range(4) for i in range(4)]
        edges = EdgeList.from_pairs(8, pairs)
        src, dst = filter_min_degree(edges, num_items=4, min_degree=3)
        assert src.size == 16

    def test_min_degree_guarantee(self):
        ratings = netflix_like_ratings(scale=10, num_items=64, seed=0)
        assert ratings.user_degrees().min() >= 5
        assert ratings.item_degrees().min() >= 5


class TestNetflixLike:
    def test_shapes_and_values(self):
        ratings = netflix_like_ratings(scale=10, num_items=64, seed=1)
        assert ratings.num_ratings > 0
        assert set(np.unique(ratings.ratings)) <= {1.0, 2.0, 3.0, 4.0, 5.0}
        # Compacted id spaces: every user and item actually appears.
        assert np.unique(ratings.users).size == ratings.num_users
        assert np.unique(ratings.items).size == ratings.num_items

    def test_deterministic(self):
        a = netflix_like_ratings(scale=10, num_items=64, seed=9)
        b = netflix_like_ratings(scale=10, num_items=64, seed=9)
        np.testing.assert_array_equal(a.users, b.users)
        np.testing.assert_allclose(a.ratings, b.ratings)

    def test_power_law_vs_uniform(self):
        # The paper's generator exists because uniform sampling (Gemulla)
        # misses the power-law skew. Verify ours is more skewed.
        power = netflix_like_ratings(scale=12, num_items=128, seed=2)
        uniform = uniform_ratings(power.num_users, power.num_items,
                                  power.num_ratings, seed=2)
        # User degrees carry the power law; item degrees are flattened by
        # the column fold but must still beat the uniform sampler.
        assert gini_coefficient(power.user_degrees()) > \
            gini_coefficient(uniform.user_degrees()) + 0.15
        assert gini_coefficient(power.item_degrees()) > \
            gini_coefficient(uniform.item_degrees()) + 0.03

    def test_degenerate_input_raises(self):
        with pytest.raises(ValueError):
            netflix_like_ratings(scale=3, num_items=2, edge_factor=1,
                                 seed=0, min_degree=50)


class TestCatalog:
    def test_catalog_contains_paper_datasets(self):
        for name in ("facebook", "wikipedia", "livejournal", "twitter",
                     "netflix", "yahoo_music", "synthetic_graph500",
                     "synthetic_collaborative"):
            assert name in CATALOG

    def test_unknown_dataset_raises(self):
        with pytest.raises(SpecError, match="unknown dataset"):
            dataset("orkut")

    def test_graph_proxy_builds(self):
        graph = dataset("rmat_mini")
        assert graph.num_vertices == 1024
        assert graph.num_edges > 0

    def test_ratings_proxy_builds(self):
        ratings = dataset("netflix")
        assert ratings.num_ratings > 1000
        assert ratings.num_items <= 290

    def test_triangle_variant_oriented(self):
        graph = triangle_variant("rmat_mini")
        assert np.all(graph.sources() < graph.targets)

    def test_bfs_variant_symmetric(self):
        graph = bfs_variant("rmat_mini")
        pairs = set(zip(graph.sources().tolist(), graph.targets.tolist()))
        assert all((v, u) in pairs for u, v in pairs)

    def test_triangle_variant_rejects_ratings(self):
        with pytest.raises(SpecError, match="no triangle variant"):
            triangle_variant("netflix")
        with pytest.raises(SpecError, match="no graph variant"):
            bfs_variant("rmat_mini_triangles")

    def test_proxies_deterministic(self):
        a, b = dataset("facebook"), dataset("facebook")
        np.testing.assert_array_equal(a.targets, b.targets)
