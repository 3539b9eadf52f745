"""Smoke + invariant tests for the table/figure regenerators and report.

The benchmark suite runs the full-size regenerations; these tests use
narrowed arguments (fewer frameworks / node counts) so the whole file
stays fast while still exercising every code path.
"""

import numpy as np
import pytest

from repro.harness import (
    ARTIFACTS,
    figure3,
    figure4,
    figure6,
    figure7,
    report,
    table1,
    table2,
    table3,
    table7,
)
from repro.harness.tables import table5, table6


class TestTables:
    def test_table1_rows(self):
        rows = table1(hidden_dim=64)
        assert len(rows) == 4
        names = [row["algorithm"] for row in rows]
        assert "PageRank" in names and "Triangle Counting" in names
        cf = next(r for r in rows if r["algorithm"] ==
                  "Collaborative Filtering")
        assert cf["message_bytes_per_edge"] == 512

    def test_table2_matches_profiles(self):
        rows = table2()
        assert len(rows) == 6
        rendered = report.render_rows(rows, ["framework", "language"])
        assert "SociaLite" in rendered

    def test_table3_inventory(self):
        rows = table3()
        assert len(rows) == 8
        assert all(row["proxy_edges"] > 0 for row in rows)

    def test_table5_narrowed(self):
        data = table5(frameworks=("galois",), algorithms=("pagerank",))
        cell = data["pagerank"]["galois"]
        assert 0.8 < cell["slowdown"] < 3.0
        assert all(status == "ok" for status in cell["statuses"])

    def test_table6_narrowed(self):
        data = table6(frameworks=("combblas",), algorithms=("pagerank",),
                      node_counts=(4,))
        cell = data["pagerank"]["combblas"]
        assert 1.0 < cell["slowdown"] < 10.0

    def test_table7_speedups(self):
        data = table7()
        assert data["pagerank"]["speedup"] > 1.5
        assert data["triangle_counting"]["speedup"] > 1.2
        rendered = ARTIFACTS["table7"].text(data)
        assert "speedup" in rendered


class TestFigures:
    def test_figure3_narrowed(self):
        data = figure3(frameworks=("native", "galois"),
                       algorithms=("pagerank",))
        panel = data["pagerank"]
        assert set(panel) == {"livejournal", "facebook", "wikipedia",
                              "synthetic"}
        for cell in panel.values():
            assert cell["galois"] >= cell["native"] * 0.99

    def test_figure4_narrowed(self):
        data = figure4(frameworks=("native", "socialite"),
                       algorithms=("bfs",), node_counts=(1, 4))
        curves = data["bfs"]
        assert curves["native"][4] > 0
        assert curves["socialite"][4] > curves["native"][4]
        rendered = report.render_scaling_curves(data, "test")
        assert "socialite" in rendered

    def test_figure6_narrowed(self):
        data = figure6(frameworks=("native", "giraph"),
                       algorithms=("pagerank",), nodes=2)
        panel = data["pagerank"]
        assert panel["giraph"]["network_bytes_sent"] == pytest.approx(100.0)
        assert panel["native"]["cpu_utilization"] > \
            panel["giraph"]["cpu_utilization"]

    def test_figure7_ladder_shape(self):
        data = figure7(algorithms=("pagerank",), nodes=2)
        ladder = data["pagerank"]
        assert ladder[0] == ("baseline", 1.0)
        assert ladder[-1][1] > 2.0
        rendered = ARTIFACTS["figure7"].text(data)
        assert "prefetching" in rendered


class TestScaleInvariance:
    """The weak-scaling *shape* must not depend on the proxy edge budget.

    This is the property that justifies extrapolating 16k-edge/node
    proxies to the paper's 128M-edge/node runs (DESIGN.md Section 2).
    """

    def test_pagerank_node_scaling_ratio_stable(self):
        from repro.datagen import rmat_graph
        from repro.harness import ExperimentSpec, run

        ratios = []
        for scale, factor in ((10, 8000.0), (12, 2000.0)):
            graph = rmat_graph(scale, edge_factor=16, seed=5)
            t1 = run(ExperimentSpec("pagerank", "native", graph, nodes=1,
                                    scale_factor=factor,
                                    params={"iterations": 3})).runtime()
            t4 = run(ExperimentSpec("pagerank", "native", graph, nodes=4,
                                    scale_factor=factor,
                                    params={"iterations": 3})).runtime()
            ratios.append(t4 / t1)
        # The 4-node/1-node degradation agrees within 40% across a 4x
        # change in proxy size.
        assert ratios[0] == pytest.approx(ratios[1], rel=0.4)


class TestReportRendering:
    def test_render_rows_alignment(self):
        rows = [{"a": "x", "b": 1}, {"a": "longer", "b": 22}]
        text = report.render_rows(rows, ["a", "b"], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "longer" in lines[-1]

    def test_render_slowdown_handles_failures(self):
        data = {"tc": {"combblas": {"slowdown": float("nan"),
                                    "statuses": ["out-of-memory"]}}}
        text = report.render_slowdown_table(data, "T")
        assert "out-of-mem" in text
