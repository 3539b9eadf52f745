"""Tests for graph statistics and the ratings matrix."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import (
    CSRGraph,
    EdgeList,
    RatingsMatrix,
    count_triangles_exact,
    degree_histogram,
    fit_power_law,
    gini_coefficient,
    tail_distance,
)


class TestProperties:
    def test_degree_histogram_ignores_isolated(self):
        values, counts = degree_histogram([0, 0, 1, 1, 3])
        np.testing.assert_array_equal(values, [1, 3])
        np.testing.assert_array_equal(counts, [2, 1])

    def test_degree_histogram_empty(self):
        values, counts = degree_histogram([0, 0])
        assert values.size == 0 and counts.size == 0

    def test_power_law_fit_recovers_exponent(self):
        rng = np.random.default_rng(7)
        alpha_true = 2.5
        # Inverse-CDF sampling of a discrete power law with xmin=5.
        u = rng.random(50_000)
        degrees = np.floor(5 * (1 - u) ** (-1 / (alpha_true - 1))).astype(int)
        fit = fit_power_law(degrees, xmin=5)
        # Flooring continuous samples biases the discrete MLE slightly low,
        # so allow a 0.15 band around the true exponent.
        assert abs(fit.alpha - alpha_true) < 0.15

    def test_power_law_fit_rejects_empty(self):
        with pytest.raises(ValueError):
            fit_power_law([])

    def test_gini_uniform_vs_skewed(self):
        uniform = np.full(1000, 10)
        skewed = np.concatenate([np.full(990, 1), np.full(10, 1000)])
        assert gini_coefficient(uniform) < 0.01
        assert gini_coefficient(skewed) > 0.8

    def test_gini_empty(self):
        assert gini_coefficient([]) == 0.0

    def test_tail_distance_identical_is_zero(self):
        degrees = np.arange(1, 1000)
        assert tail_distance(degrees, degrees) == 0.0

    def test_tail_distance_detects_difference(self):
        light = np.full(1000, 2)
        heavy = np.concatenate([np.full(900, 2), np.full(100, 2000)])
        assert tail_distance(light, heavy) > 0.5

    def test_count_triangles_exact(self):
        # Two triangles sharing the edge (1,2): {0,1,2} and {1,2,3}.
        pairs = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
        graph = CSRGraph.from_edges(EdgeList.from_pairs(4, pairs).orient_by_id())
        assert count_triangles_exact(graph) == 2

    def test_count_triangles_none(self):
        graph = CSRGraph.from_edges(
            EdgeList.from_pairs(4, [(0, 1), (1, 2), (2, 3)]).orient_by_id()
        )
        assert count_triangles_exact(graph) == 0


class TestRatingsMatrix:
    def test_degrees(self):
        ratings = RatingsMatrix(2, 3, [0, 0, 1], [0, 2, 1], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(ratings.user_degrees(), [2, 1])
        np.testing.assert_array_equal(ratings.item_degrees(), [1, 1, 1])

    def test_id_range_validation(self):
        with pytest.raises(GraphFormatError):
            RatingsMatrix(2, 2, [0, 2], [0, 1], [1.0, 2.0])
