"""Tests for the async vertex engine and the timeline analyzer."""

import numpy as np
import pytest

from repro.cluster import paper_cluster
from repro.cluster.timeline import analyze, render_timeline
from repro.datagen import rmat_graph
from repro.frameworks.vertex.async_engine import (
    AsyncScheduler,
    pagerank_delta_async,
    pagerank_sync_to_tolerance,
)


@pytest.fixture(scope="module")
def graph_small():
    return rmat_graph(scale=9, edge_factor=6, seed=95)


class TestAsyncScheduler:
    def test_priority_order(self):
        scheduler = AsyncScheduler()
        scheduler.push(1, 0.5)
        scheduler.push(2, 2.0)
        scheduler.push(3, 1.0)
        assert scheduler.pop()[0] == 2
        assert scheduler.pop()[0] == 3
        assert scheduler.pop()[0] == 1
        assert scheduler.pop() is None

    def test_reprioritize_upwards_only(self):
        scheduler = AsyncScheduler()
        scheduler.push(1, 1.0)
        scheduler.push(1, 0.1)   # lower: ignored
        scheduler.push(1, 3.0)   # higher: wins
        vertex, priority = scheduler.pop()
        assert vertex == 1 and priority == 3.0
        assert not scheduler

    def test_len(self):
        scheduler = AsyncScheduler()
        scheduler.push(1, 1.0)
        scheduler.push(2, 1.0)
        assert len(scheduler) == 2


class TestAsyncPageRank:
    def test_matches_synchronous_fixpoint(self, graph_small):
        tolerance = 1e-7
        async_ranks, stats = pagerank_delta_async(graph_small,
                                                  tolerance=tolerance)
        sync_ranks, _, _ = pagerank_sync_to_tolerance(graph_small,
                                                      tolerance=tolerance)
        np.testing.assert_allclose(async_ranks, sync_ranks, atol=1e-4)
        assert stats.max_residual <= tolerance

    def test_fewer_updates_than_synchronous(self, graph_small):
        tolerance = 1e-6
        _, stats = pagerank_delta_async(graph_small, tolerance=tolerance)
        _, _, sync_updates = pagerank_sync_to_tolerance(graph_small,
                                                        tolerance=tolerance)
        # The asynchronous scheduler concentrates work on vertices whose
        # rank is still moving — the autonomous-scheduling advantage
        # [24] studies.
        assert stats.updates < 0.7 * sync_updates

    def test_respects_update_budget(self, graph_small):
        _, stats = pagerank_delta_async(graph_small, tolerance=1e-12,
                                        max_updates=50)
        assert stats.updates == 50

    def test_empty_graph(self):
        from repro.graph import CSRGraph, EdgeList

        graph = CSRGraph.from_edges(EdgeList.from_pairs(3, []))
        ranks, stats = pagerank_delta_async(graph)
        np.testing.assert_allclose(ranks, 0.3)
        assert stats.updates == 0


class TestTimeline:
    def _run(self, nodes=4):
        from repro.harness import ExperimentSpec, run

        graph = rmat_graph(scale=9, edge_factor=6, seed=96, directed=False)
        source = int(np.argmax(graph.out_degrees()))
        return run(ExperimentSpec("bfs", "giraph", graph, nodes=nodes,
                                  scale_factor=1e3, params={"source": source}))

    def test_analyze_decomposition_sums_to_one(self):
        metrics = self._run().metrics()
        report = analyze(metrics)
        total = (report.compute_fraction + report.comm_fraction
                 + report.overhead_fraction)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_giraph_bfs_is_overhead_bound(self):
        # Small frontiers + 0.9 s Hadoop supersteps: the timeline must
        # blame fixed overhead, matching the paper's Giraph analysis.
        report = analyze(self._run().metrics())
        assert report.dominant == "overhead"
        assert "scheduling" in report.recommendation()

    def test_native_pagerank_is_compute_bound(self):
        from repro.harness import ExperimentSpec, run

        graph = rmat_graph(scale=9, edge_factor=6, seed=96)
        cell = run(ExperimentSpec("pagerank", "native", graph, nodes=1,
                                  scale_factor=1e3, params={"iterations": 3}))
        report = analyze(cell.metrics())
        assert report.dominant == "compute"
        assert "prefetch" in report.recommendation()

    def test_render_timeline(self):
        metrics = self._run(nodes=2).metrics()
        text = render_timeline(metrics, width=30, max_rows=5)
        assert "supersteps" in text
        assert "dominant:" in text
        assert "advice:" in text

    def test_render_empty(self):
        from repro.cluster import RunMetrics

        assert "no supersteps" in render_timeline(RunMetrics(num_nodes=1))
