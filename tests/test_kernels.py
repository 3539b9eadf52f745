"""Differential tests for the kernel backends and the kernel registry.

The vectorized numpy kernels and the interpreted pure-Python oracle
must agree: bit-for-bit on integer-exact workloads (PageRank's bincount
accumulation order is replicated, BFS frontiers are integer sets,
triangle counts are integers), to ~1e-12 on CF (per-rating dot products
round differently at the last ulp than ``einsum``), and byte-for-byte
on every simulated metric (counted work is analytic, so backend choice
must never move a simulated number).
"""

import dataclasses

import numpy as np
import pytest

from repro.datagen import rmat_graph, rmat_triangle_graph
from repro.errors import KernelError
from repro.harness import ExperimentSpec, run
from repro.harness.datasets import weak_scaling_dataset
from repro.kernels import (
    BACKENDS,
    INTERPRETED,
    VECTORIZED,
    active_backend,
    kernel,
    registry,
    use_backend,
)
from repro.kernels.spmv import semiring_spmv


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(scale=8, edge_factor=8, seed=7)


@pytest.fixture(scope="module")
def oriented():
    return rmat_triangle_graph(scale=8, edge_factor=6, seed=7)


def _metrics_bytes(run):
    d = dataclasses.asdict(run.result.metrics)
    return repr({k: (v.tolist() if isinstance(v, np.ndarray) else v)
                 for k, v in sorted(d.items())})


class TestBackendKnob:
    def test_default_is_vectorized(self):
        assert active_backend() == VECTORIZED

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "interpreted")
        assert active_backend() == INTERPRETED

    def test_env_var_rejects_unknown(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "fortran")
        with pytest.raises(KernelError, match="fortran"):
            active_backend()

    def test_use_backend_restores(self):
        with use_backend(INTERPRETED):
            assert active_backend() == INTERPRETED
            with use_backend(VECTORIZED):
                assert active_backend() == VECTORIZED
            assert active_backend() == INTERPRETED
        assert active_backend() == VECTORIZED

    def test_use_backend_rejects_unknown(self):
        with pytest.raises(KernelError, match="known"):
            with use_backend("simd"):
                pass
        assert active_backend() == VECTORIZED

    def test_backends_constant(self):
        assert BACKENDS == (VECTORIZED, INTERPRETED)


class TestRegistry:
    def test_lookup_all(self):
        for (algorithm, direction) in registry.KERNELS:
            cls = kernel(algorithm, direction)
            assert cls.algorithm == algorithm
            assert cls.direction == direction

    def test_miss_names_known_kernels(self):
        with pytest.raises(KernelError, match="pagerank/pull"):
            kernel("pagerank", "push")

    def test_directions(self):
        assert registry.directions("collaborative_filtering") == \
            ("blocked-gd", "blocked-sgd")


class TestKernelDifferential:
    """Vectorized and interpreted agree on raw kernel outputs."""

    def test_pagerank_pull_bit_identical(self, graph):
        pull = kernel("pagerank", "pull")(0.3).prepare(graph)
        ranks = np.full(graph.num_vertices, 1.0)
        for _ in range(3):
            vec, work_v = pull.step(ranks)
            with use_backend(INTERPRETED):
                interp, work_i = pull.step(ranks)
            assert np.array_equal(vec, interp)     # bit-for-bit
            assert work_v == work_i
            ranks = vec

    def test_bfs_push_identical(self, graph):
        expand = kernel("bfs", "push")().prepare(graph)
        frontier = np.array([int(np.argmax(graph.out_degrees()))],
                            dtype=np.int64)
        visited = np.zeros(graph.num_vertices, dtype=bool)
        visited[frontier] = True
        while frontier.size:
            vec, work_v = expand.step(frontier)
            with use_backend(INTERPRETED):
                interp, work_i = expand.step(frontier)
            assert np.array_equal(vec, interp)
            assert work_v == work_i
            frontier = vec[~visited[vec]]
            visited[frontier] = True

    def test_triangle_masked_identical(self, oriented):
        masked = kernel("triangle_counting", "masked-spgemm")()
        masked.prepare(oriented)
        (count_v, overlap_v), work_v = masked.step()
        with use_backend(INTERPRETED):
            (count_i, overlap_i), work_i = masked.step()
        assert count_v == count_i
        assert overlap_v.nnz == overlap_i.nnz
        assert (overlap_v != overlap_i).nnz == 0
        assert work_v == work_i

    def test_semiring_spmv_identical(self, graph):
        from repro.frameworks.matrix.semiring import SEMIRINGS

        rng = np.random.default_rng(3)
        x = rng.random(graph.num_vertices)
        for name, semiring in SEMIRINGS.items():
            vec = semiring_spmv(graph, x, semiring)
            with use_backend(INTERPRETED):
                interp = semiring_spmv(graph, x, semiring)
            assert np.array_equal(vec, interp), name

    def test_cf_sweeps_allclose(self):
        from repro.datagen import netflix_like_ratings

        ratings = netflix_like_ratings(scale=9, num_items=48, seed=5)
        rng = np.random.default_rng(0)
        p0 = rng.random((ratings.num_users, 8)) / np.sqrt(8)
        q0 = rng.random((ratings.num_items, 8)) / np.sqrt(8)
        factors = {}
        for backend in BACKENDS:
            p, q = p0.copy(), q0.copy()
            sgd = kernel("collaborative_filtering",
                         "blocked-sgd")().prepare(ratings)
            gd = kernel("collaborative_filtering",
                        "blocked-gd")().prepare(ratings)
            with use_backend(backend):
                sgd.step(ratings.users, ratings.items, ratings.ratings,
                         p, q, 0.003, 0.05, 0.05)
                gd.step(p, q, 0.002, 0.05, 0.05)
                rmse = sgd.rmse(p, q)
            factors[backend] = (p, q, rmse)
        pv, qv, rv = factors[VECTORIZED]
        pi, qi, ri = factors[INTERPRETED]
        assert np.allclose(pv, pi, atol=1e-9)
        assert np.allclose(qv, qi, atol=1e-9)
        assert rv == pytest.approx(ri, abs=1e-9)


class TestEngineDifferential:
    """Full tier-1 cells: identical values and byte-identical metrics."""

    FRAMEWORKS = ("native", "galois", "combblas", "graphlab", "giraph",
                  "socialite")

    @pytest.mark.parametrize("algorithm", ["pagerank", "bfs",
                                           "triangle_counting"])
    @pytest.mark.parametrize("framework", FRAMEWORKS)
    def test_graph_cells(self, algorithm, framework):
        nodes = 1 if framework == "galois" else 2
        data, factor = weak_scaling_dataset(algorithm, nodes)
        runs = {}
        for backend in BACKENDS:
            with use_backend(backend):
                runs[backend] = run(ExperimentSpec(algorithm, framework, data,
                                                   nodes=nodes,
                                                   scale_factor=factor))
        vec, interp = runs[VECTORIZED], runs[INTERPRETED]
        assert vec.status == interp.status == "ok"
        if algorithm == "triangle_counting":
            assert vec.result.values == interp.result.values
        else:
            assert np.array_equal(vec.result.values, interp.result.values)
        assert _metrics_bytes(vec) == _metrics_bytes(interp)
        assert vec.runtime() == interp.runtime()

    @pytest.mark.parametrize("framework", ["native", "combblas", "giraph"])
    def test_cf_cells(self, framework):
        data, factor = weak_scaling_dataset("collaborative_filtering", 2)
        runs = {}
        for backend in BACKENDS:
            with use_backend(backend):
                runs[backend] = run(ExperimentSpec("collaborative_filtering",
                                                   framework, data, nodes=2,
                                                   scale_factor=factor))
        vec, interp = runs[VECTORIZED], runs[INTERPRETED]
        assert vec.status == interp.status == "ok"
        for a, b in zip(vec.result.values, interp.result.values):
            assert np.allclose(a, b, atol=1e-9)
        assert _metrics_bytes(vec) == _metrics_bytes(interp)
        assert vec.runtime() == interp.runtime()
