"""Tests for the RMAT generator (paper Section 4.1.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import (
    RMATParams,
    TRIANGLE_PARAMS,
    RMATStream,
    rmat_edges,
    rmat_graph,
    rmat_triangle_graph,
)
from repro.datagen.rmat import descend_levels
from repro.graph import count_triangles_exact, fit_power_law, gini_coefficient

NAN, INF = float("nan"), float("inf")


class TestParams:
    def test_default_is_graph500(self):
        params = RMATParams()
        assert (params.a, params.b, params.c) == (0.57, 0.19, 0.19)
        assert abs(params.d - 0.05) < 1e-12

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            RMATParams(a=-0.1)
        with pytest.raises(ValueError):
            RMATParams(a=0.5, b=0.3, c=0.3)

    @pytest.mark.parametrize("probs", [
        (NAN, 0.19, 0.19), (0.57, NAN, 0.19), (0.57, 0.19, NAN),
        (-INF, 0.19, 0.19), (0.1, INF, -INF)])
    def test_non_finite_probabilities_are_refused(self, probs):
        # NaN passes both ``< 0`` and ``>= 1``; accepted, it puts every
        # edge of ``rmat_edges(6, 4, RMATParams(nan, ...))`` on one vertex.
        with pytest.raises(ValueError, match="finite"):
            RMATParams(*probs)


class TestRawEdges:
    def test_sizes(self):
        edges = rmat_edges(scale=8, edge_factor=4, seed=0)
        assert edges.num_vertices == 256
        assert edges.num_edges == 1024

    def test_deterministic_given_seed(self):
        a = rmat_edges(scale=8, edge_factor=4, seed=42)
        b = rmat_edges(scale=8, edge_factor=4, seed=42)
        np.testing.assert_array_equal(a.pairs(), b.pairs())

    def test_seeds_differ(self):
        a = rmat_edges(scale=8, edge_factor=4, seed=1)
        b = rmat_edges(scale=8, edge_factor=4, seed=2)
        assert not np.array_equal(a.pairs(), b.pairs())

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            rmat_edges(scale=0)
        with pytest.raises(ValueError):
            rmat_edges(scale=4, edge_factor=0)

    @pytest.mark.parametrize("make", [rmat_edges, RMATStream],
                             ids=["rmat_edges", "RMATStream"])
    @pytest.mark.parametrize("noise", [NAN, INF, -INF, -0.01, 1.01, 5.0])
    def test_degenerate_noise_is_refused(self, make, noise):
        # noise=5 drives a level's quadrant probability negative, so the
        # cuts stop ascending; NaN makes every comparison false.
        with pytest.raises(ValueError, match="noise"):
            make(6, 4, noise=noise)

    @pytest.mark.parametrize("noise", [0.0, 1.0])
    def test_noise_bounds_are_accepted(self, noise):
        edges = rmat_edges(6, 4, seed=2, noise=noise)
        chunk = RMATStream(6, 4, seed=2, noise=noise).chunk(0, 256)
        np.testing.assert_array_equal(chunk.src, edges.src)
        np.testing.assert_array_equal(chunk.dst, edges.dst)

    def test_stream_checks_scale_and_edge_factor_too(self):
        with pytest.raises(ValueError, match="scale"):
            RMATStream(0)
        with pytest.raises(ValueError, match="edge_factor"):
            RMATStream(4, edge_factor=0)

    def test_degree_distribution_is_skewed(self):
        # "Real-world graph data follows a pattern of sparsity that is
        # not uniform but highly skewed" — RMAT must reproduce that.
        edges = rmat_edges(scale=12, edge_factor=16, seed=3)
        degrees = edges.out_degrees() + edges.in_degrees()
        assert gini_coefficient(degrees) > 0.35
        fit = fit_power_law(degrees)
        assert 1.3 < fit.alpha < 4.0

    def test_skew_exceeds_uniform_graph(self):
        rng = np.random.default_rng(0)
        n, e = 1 << 12, 16 << 12
        uniform_degrees = np.bincount(rng.integers(0, n, e), minlength=n)
        rmat_degrees = rmat_edges(scale=12, edge_factor=16, seed=3).out_degrees()
        assert gini_coefficient(rmat_degrees) > 2 * gini_coefficient(uniform_degrees)


class TestGraphs:
    def test_directed_graph_clean(self):
        graph = rmat_graph(scale=9, edge_factor=8, seed=5)
        src = graph.sources()
        assert not np.any(src == graph.targets)  # no self loops
        # No duplicate edges: each (src, target) pair unique.
        keys = src * graph.num_vertices + graph.targets
        assert np.unique(keys).size == keys.size

    def test_undirected_graph_symmetric(self):
        graph = rmat_graph(scale=8, edge_factor=8, seed=6, directed=False)
        pairs = set(zip(graph.sources().tolist(), graph.targets.tolist()))
        assert all((v, u) in pairs for u, v in pairs)

    def test_triangle_graph_oriented_acyclic(self):
        graph = rmat_triangle_graph(scale=8, edge_factor=8, seed=7)
        src = graph.sources()
        assert np.all(src < graph.targets)

    def test_triangle_params_reduce_triangles(self):
        # The paper switches to A=0.45, B=C=0.15 "to reduce the number of
        # triangles in the graph".
        dense = rmat_edges(scale=9, edge_factor=12, seed=8)  # Graph500 params
        from repro.graph import CSRGraph
        t_default = count_triangles_exact(CSRGraph.from_edges(dense.orient_by_id()))
        t_reduced = count_triangles_exact(rmat_triangle_graph(9, 12, seed=8))
        assert t_reduced < t_default


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=3, max_value=9),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=10**6),
)
def test_edges_always_in_range(scale, edge_factor, seed):
    edges = rmat_edges(scale, edge_factor, seed=seed)
    n = 1 << scale
    assert edges.num_vertices == n
    assert edges.src.min() >= 0 and edges.src.max() < n
    assert edges.dst.min() >= 0 and edges.dst.max() < n
    assert edges.num_edges == edge_factor * n


def int64_descent(scale, count, params, noise, generators):
    """The plain descent — int64 ids, a fresh bool array per comparison:
    the oracle :func:`descend_levels` must match bit for bit."""
    base = np.array([params.a, params.b, params.c, params.d])
    src = np.zeros(count, dtype=np.int64)
    dst = np.zeros(count, dtype=np.int64)
    draw = np.empty(count)
    for level in range(scale):
        jitter_rng, draw_rng = generators(level)
        probs = base * (1.0 + noise * (2.0 * jitter_rng.random(4) - 1.0))
        probs /= probs.sum()
        a, ab, abc = np.cumsum(probs)[:3]
        draw_rng.random(out=draw)
        src_bit = draw > ab
        dst_bit = ((draw > a) ^ src_bit) | (draw > abc)
        src <<= 1
        src |= src_bit
        dst <<= 1
        dst |= dst_bit
    return src, dst


class TestDescent:
    @pytest.mark.parametrize("scale,count", [(1, 64), (7, 1000),
                                             (16, 20000), (33, 300)])
    @pytest.mark.parametrize("noise", [0.0, 0.1, 1.0])
    def test_matches_the_int64_oracle(self, scale, count, noise):
        params = RMATParams(*TRIANGLE_PARAMS) if scale == 7 else RMATParams()

        def descend(descent):
            rng = np.random.default_rng(scale * 1000 + count)
            return descent(scale, count, params, noise,
                           lambda level: (rng, rng))

        got_src, got_dst = descend(descend_levels)
        want_src, want_dst = descend(int64_descent)
        lane = np.uint32 if scale <= 32 else np.uint64
        assert got_src.dtype == got_dst.dtype == lane
        np.testing.assert_array_equal(got_src.astype(np.int64), want_src)
        np.testing.assert_array_equal(got_dst.astype(np.int64), want_dst)
        if scale == 33:
            # The top bit is set on some edges: the uint64 lane is used.
            assert max(want_src.max(), want_dst.max()) >= 1 << 32

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=9),
           st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=10**6),
           st.data())
    def test_stream_chunks_slice_rmat_edges(self, scale, edge_factor, seed,
                                            data):
        whole = rmat_edges(scale, edge_factor, seed=seed)
        stream = RMATStream(scale, edge_factor, seed=seed)
        start = data.draw(st.integers(0, whole.num_edges))
        stop = data.draw(st.integers(start, whole.num_edges))
        chunk = stream.chunk(start, stop)
        assert chunk.src.dtype == chunk.dst.dtype == np.int64
        np.testing.assert_array_equal(chunk.src, whole.src[start:stop])
        np.testing.assert_array_equal(chunk.dst, whole.dst[start:stop])
