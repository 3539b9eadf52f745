"""Tests for the algorithm registry and the experiment harness."""

import numpy as np
import pytest

from repro.algorithms.registry import ALGORITHMS, FRAMEWORKS, runner
from repro.datagen import rmat_graph, rmat_triangle_graph
from repro.errors import ReproError
from repro.harness import (
    STATUS_OK,
    STATUS_OOM,
    STATUS_UNSUPPORTED,
    ExperimentSpec,
    run,
)
from repro.harness.datasets import (
    scale_factor_for,
    single_node_graph,
    weak_scaling_dataset,
)


@pytest.fixture(scope="module")
def graph_small():
    return rmat_graph(scale=9, edge_factor=6, seed=61)


class TestRegistry:
    def test_all_combinations_resolve(self):
        for algorithm in ALGORITHMS:
            for framework in FRAMEWORKS:
                assert callable(runner(algorithm, framework))

    def test_every_workload_has_a_row_on_every_program_driven_family(self):
        # A new graph round program missing a plan, cost or boundary row
        # fails here, not as a silent ``unsupported`` cell in some sweep
        # (triangle counting and CF have a small engine per family
        # instead of a cost row).
        import sys

        from repro.algorithms.registry import ROWS, Plan
        from repro.frameworks.matrix import kdt
        from repro.frameworks.rounds import GRAPH_PROGRAMS

        engines = set()
        for framework, row in ROWS.items():
            assert set(row.plans) == set(ALGORITHMS), framework
            engines.update(row.plans[algorithm].engine
                           for algorithm in GRAPH_PROGRAMS
                           if isinstance(row.plans[algorithm], Plan))
        assert len(engines) == 4                # native, vertex, task, matrix
        for engine in engines:
            costs = sys.modules[engine.__module__].COSTS
            assert set(costs) == set(GRAPH_PROGRAMS), engine.__name__
        assert set(kdt.BOUNDARIES) == set(ALGORITHMS)

    def test_unknown_algorithm(self):
        with pytest.raises(ReproError, match="unknown algorithm") as info:
            runner("ssps", "native")
        assert "sssp" in str(info.value)

    def test_unknown_framework(self):
        with pytest.raises(ReproError, match="unknown framework"):
            runner("bfs", "spark")


class TestRunExperiment:
    def test_ok_run(self, graph_small):
        result = run(ExperimentSpec("pagerank", "native", graph_small, nodes=2,
                                    params={"iterations": 3}))
        assert result.ok
        assert result.status == STATUS_OK
        assert result.runtime() > 0
        assert result.metrics().num_iterations == 3

    def test_galois_multinode_unsupported(self, graph_small):
        result = run(ExperimentSpec("pagerank", "galois", graph_small, nodes=4,
                                    params={"iterations": 2}))
        assert result.status == STATUS_UNSUPPORTED
        assert not result.ok
        with pytest.raises(ReproError):
            result.runtime()

    def test_oom_classified(self):
        graph = rmat_triangle_graph(scale=8, edge_factor=6, seed=62)
        result = run(ExperimentSpec("triangle_counting", "combblas", graph,
                                    nodes=2, scale_factor=1e9))
        assert result.status == STATUS_OOM
        assert "out of memory" in result.failure

    def test_scale_factor_scales_runtime(self, graph_small):
        small = run(ExperimentSpec("pagerank", "native", graph_small,
                                   scale_factor=1.0, params={"iterations": 2}))
        big = run(ExperimentSpec("pagerank", "native", graph_small,
                                 scale_factor=1000.0,
                                 params={"iterations": 2}))
        assert big.runtime() > 100 * small.runtime()


class TestHarnessDatasets:
    def test_weak_scaling_grows_with_nodes(self):
        data1, f1 = weak_scaling_dataset("pagerank", 1)
        data4, f4 = weak_scaling_dataset("pagerank", 4)
        assert 3 <= data4.num_edges / data1.num_edges <= 5
        # Edges per node constant => same extrapolation factor.
        assert f4 == pytest.approx(f1, rel=0.3)

    def test_triangle_scale_superlinear(self):
        linear = scale_factor_for("pagerank", 1e6, 1e3)
        tc = scale_factor_for("triangle_counting", 1e6, 1e3)
        assert tc > linear
        assert tc == pytest.approx(1000 ** 1.25)

    def test_single_node_graph_variants(self):
        directed = single_node_graph("rmat_mini", "pagerank")
        undirected = single_node_graph("rmat_mini", "bfs")
        oriented = single_node_graph("rmat_mini", "triangle_counting")
        assert np.all(oriented.sources() < oriented.targets)
        assert undirected.num_edges > directed.num_edges  # symmetrized

    def test_weak_scaling_ratings(self):
        data, factor = weak_scaling_dataset("collaborative_filtering", 2)
        assert data.num_ratings > 0
        assert factor > 1


class TestPaperShapeInvariants:
    """The qualitative claims of the paper that every release must keep."""

    def test_native_is_fastest_single_node(self, graph_small):
        native = run(ExperimentSpec("pagerank", "native", graph_small,
                                    scale_factor=1e4,
                                    params={"iterations": 2}))
        for framework in ("combblas", "graphlab", "socialite", "giraph",
                          "galois"):
            other = run(ExperimentSpec("pagerank", framework, graph_small,
                                       scale_factor=1e4,
                                       params={"iterations": 2}))
            assert other.runtime() >= native.runtime() * 0.99, framework

    def test_giraph_orders_of_magnitude_off(self, graph_small):
        native = run(ExperimentSpec("pagerank", "native", graph_small,
                                    scale_factor=1e4,
                                    params={"iterations": 2}))
        giraph = run(ExperimentSpec("pagerank", "giraph", graph_small,
                                    scale_factor=1e4,
                                    params={"iterations": 2}))
        assert giraph.runtime() > 20 * native.runtime()

    def test_galois_close_to_native(self, graph_small):
        native = run(ExperimentSpec("pagerank", "native", graph_small,
                                    scale_factor=1e4,
                                    params={"iterations": 2}))
        galois = run(ExperimentSpec("pagerank", "galois", graph_small,
                                    scale_factor=1e4,
                                    params={"iterations": 2}))
        assert galois.runtime() < 2.0 * native.runtime()
