"""Tests for the async vertex engine and the timeline renderer."""

import re

import numpy as np
import pytest

from repro.cluster import paper_cluster
from repro.datagen import rmat_graph
from repro.frameworks.vertex.async_engine import (
    AsyncScheduler,
    pagerank_delta_async,
    pagerank_sync_to_tolerance,
)
from repro.perf import classify, render_timeline
from repro.perf.attribution import ADVICE


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

    def test_exact_split_sums_to_total(self):
        metrics = self._run().metrics()
        assert (metrics.compute_time_s + metrics.exposed_comm_time_s
                + metrics.fixed_time_s) == pytest.approx(
                    metrics.total_time_s, rel=1e-12)

    def test_giraph_bfs_is_overhead_bound(self):
        # Small frontiers + 0.9 s Hadoop supersteps: fixed overhead binds
        # the run, matching the paper's Giraph analysis.
        label = classify(self._run().metrics())
        assert label == "latency"
        assert "scheduling" in ADVICE[label]

    def test_native_pagerank_is_memory_bound(self):
        from repro.harness import ExperimentSpec, run

        graph = rmat_graph(scale=9, edge_factor=6, seed=96)
        cell = run(ExperimentSpec("pagerank", "native", graph, nodes=1,
                                  scale_factor=1e3, params={"iterations": 3}))
        label = classify(cell.metrics())
        assert label == "memory"
        assert "prefetch" in ADVICE[label]

    @pytest.mark.parametrize("algorithm, directed", [("k_core", False),
                                                     ("pagerank", True)])
    def test_footer_is_the_exact_split(self, algorithm, directed):
        # Multi-node native runs overlap communication under compute;
        # the footer must report only the exposed part of it.
        from repro.harness import ExperimentSpec, run

        graph = rmat_graph(scale=9, edge_factor=6, seed=96,
                           directed=directed)
        metrics = run(ExperimentSpec(algorithm, "native", graph, nodes=4,
                                     scale_factor=1e3)).metrics()
        footer = render_timeline(metrics).splitlines()[-2]
        match = re.fullmatch(r"bound: (\w+) \(compute ([\d.]+)% / exposed "
                             r"comm ([\d.]+)% / fixed ([\d.]+)%\)", footer)
        assert match, footer
        shares = [float(share) for share in match.groups()[1:]]
        exact = [100 * part / metrics.total_time_s for part in (
            metrics.compute_time_s, metrics.exposed_comm_time_s,
            metrics.fixed_time_s)]
        assert shares == [round(share, 1) for share in exact]
        assert sum(exact) == pytest.approx(100.0, rel=1e-12)
        assert sum(shares) == pytest.approx(100.0, abs=0.15)
        assert match.group(1) == classify(metrics)

    def test_render_timeline(self):
        metrics = self._run(nodes=2).metrics()
        text = render_timeline(metrics, width=30, max_rows=5)
        assert "supersteps" in text
        assert f"bound: {classify(metrics)}" in text
        assert "advice:" in text

    def test_render_empty(self):
        from repro.cluster import RunMetrics

        assert "no supersteps" in render_timeline(RunMetrics(num_nodes=1))
