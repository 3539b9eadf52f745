"""Tests for the timeline renderer."""

import re

import numpy as np
import pytest

from repro.datagen import rmat_graph
from repro.perf import classify, render_timeline
from repro.perf.attribution import ADVICE


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
