"""Tests for the extension modules: roadmap, GPS/GraphX, Graph500,
persistence, CLI."""

import json

import numpy as np
import pytest

from repro.algorithms import bfs_reference, pagerank_reference
from repro.algorithms.registry import runner
from repro.cluster import Cluster, paper_cluster
from repro.datagen import rmat_graph
from repro.errors import ReproError
from repro.frameworks.roadmap import (
    PAPER_PREDICTED_GAP,
    ROADMAP_PROFILES,
    improved_giraph,
    improved_graphlab,
)
from repro.harness.graph500 import (
    Graph500Result,
    choose_search_keys,
    run_graph500,
    traversed_edges,
)
from repro.harness.persistence import _jsonable, load_artifact, save_artifact


@pytest.fixture(scope="module")
def graph_small():
    return rmat_graph(scale=9, edge_factor=6, seed=81)


@pytest.fixture(scope="module")
def graph_undirected():
    return rmat_graph(scale=9, edge_factor=6, seed=81, directed=False)


class TestRoadmap:
    def test_profiles_well_formed(self):
        for name, factory in ROADMAP_PROFILES.items():
            profile = factory()
            assert profile.name.endswith("roadmap")
            assert name in PAPER_PREDICTED_GAP

    def test_improved_graphlab_uses_mpi(self):
        assert improved_graphlab().comm_layer.name == "mpi"

    def test_improved_giraph_uses_more_workers(self):
        profile = improved_giraph(workers_per_node=16)
        assert profile.cores_fraction == pytest.approx(16 / 24)
        assert profile.comm_layer.efficiency > 0.5

    def test_roadmap_closes_giraph_gap(self, graph_small):
        from repro.frameworks.roadmap import _with_profile
        from repro.frameworks.base import GIRAPH

        stock = _with_profile(
            "pagerank", graph_small,
            Cluster(paper_cluster(4), scale_factor=1e4), GIRAPH,
            iterations=2)
        better = _with_profile(
            "pagerank", graph_small,
            Cluster(paper_cluster(4), scale_factor=1e4), improved_giraph(),
            iterations=2)
        assert better.runtime_for_comparison() < \
            0.4 * stock.runtime_for_comparison()
        np.testing.assert_allclose(better.values, stock.values)


class TestRelatedWorkFrameworks:
    def test_gps_pagerank_correct(self, graph_small):
        result = runner("pagerank", "gps")(graph_small, Cluster(paper_cluster(2)),
                                           iterations=3)
        np.testing.assert_allclose(result.values,
                                   pagerank_reference(graph_small, 3),
                                   rtol=1e-10)

    def test_graphx_bfs_correct(self, graph_undirected):
        result = runner("bfs", "graphx")(graph_undirected, Cluster(paper_cluster(2)))
        np.testing.assert_array_equal(result.values,
                                      bfs_reference(graph_undirected, 0))

    def test_gps_between_pack_and_giraph(self, graph_small):
        from repro.harness import ExperimentSpec, run

        times = {}
        for framework in ("graphlab", "gps", "giraph"):
            cell = run(ExperimentSpec("pagerank", framework, graph_small,
                                      nodes=4, scale_factor=1e4,
                                      params={"iterations": 2}))
            times[framework] = cell.runtime()
        assert times["graphlab"] < times["gps"] < times["giraph"]

    def test_graphx_slower_than_graphlab(self, graph_small):
        from repro.harness import ExperimentSpec, run

        graphlab_run = run(ExperimentSpec("pagerank", "graphlab", graph_small,
                                          nodes=4, scale_factor=1e4,
                                          params={"iterations": 2}))
        graphx_run = run(ExperimentSpec("pagerank", "graphx", graph_small,
                                        nodes=4, scale_factor=1e4,
                                        params={"iterations": 2}))
        assert graphx_run.runtime() > 2 * graphlab_run.runtime()


class TestGraph500:
    def test_choose_keys_have_edges(self, graph_undirected):
        keys = choose_search_keys(graph_undirected, 8)
        degrees = graph_undirected.out_degrees()
        assert np.all(degrees[keys] > 0)
        assert np.unique(keys).size == keys.size

    def test_traversed_edges_bounds(self, graph_undirected):
        distances = bfs_reference(graph_undirected, 0)
        edges = traversed_edges(graph_undirected, distances)
        assert 0 <= edges <= graph_undirected.num_edges / 2

    def test_protocol_runs_and_validates(self):
        result = run_graph500(scale=9, edge_factor=8, num_roots=4,
                              nodes=2, scale_factor=100.0)
        assert isinstance(result, Graph500Result)
        assert result.all_valid
        assert result.harmonic_mean_teps > 0
        assert result.min_teps <= result.median_teps <= result.max_teps

    def test_framework_teps_ordering(self):
        native = run_graph500(scale=9, edge_factor=8, num_roots=3,
                              framework="native", scale_factor=100.0)
        giraph = run_graph500(scale=9, edge_factor=8, num_roots=3,
                              framework="giraph", scale_factor=100.0)
        assert native.harmonic_mean_teps > 10 * giraph.harmonic_mean_teps


class TestPersistence:
    def test_round_trip(self, tmp_path):
        data = {"pagerank": {"combblas": {"slowdown": 1.9}}}
        path = save_artifact(tmp_path / "t5.json", "table5", data,
                             metadata={"nodes": 1})
        loaded = load_artifact(path)
        assert loaded["artifact"] == "table5"
        assert loaded["data"]["pagerank"]["combblas"]["slowdown"] == 1.9
        assert loaded["metadata"]["nodes"] == 1

    def test_nan_becomes_null(self, tmp_path):
        path = save_artifact(tmp_path / "x.json", "t",
                             {"v": float("nan")})
        assert json.loads(path.read_text())["data"]["v"] is None

    def test_arrays_become_lists(self, tmp_path):
        # One normalizer serves artifacts, journals and RunResult.to_dict:
        # numpy arrays become (nested) lists, their NaNs null.
        value = {"a": np.arange(3), "b": np.array([[1.5, np.nan]]),
                 "c": (np.int64(2), np.bool_(True))}
        assert _jsonable(value) == {"a": [0, 1, 2], "b": [[1.5, None]],
                                    "c": [2, True]}
        path = save_artifact(tmp_path / "x.json", "t", value)
        assert load_artifact(path)["data"]["a"] == [0, 1, 2]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ReproError):
            load_artifact(tmp_path / "missing.json")


class TestCLI:
    def test_run_command(self, capsys):
        from repro.cli import main

        code = main(["run", "pagerank", "native", "--dataset", "rmat_mini",
                     "--nodes", "2", "--scale-factor", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "runtime" in out and "bound by" in out

    def test_run_unsupported_returns_nonzero(self, capsys):
        from repro.cli import main

        code = main(["run", "pagerank", "galois", "--dataset", "rmat_mini",
                     "--nodes", "4"])
        # Failure classes map to distinct exit codes (see --help):
        # unsupported-by-programming-model is 4.
        assert code == 4
        assert "unsupported" in capsys.readouterr().out

    def test_bad_parameter_is_one_error_line_not_a_traceback(self, capsys):
        # --iterations 0 used to escape as a bare ValueError from inside
        # the runner; it is a typed SpecError, so the CLI prints one
        # "error:" line and exits 1.
        from repro.cli import main

        code = main(["run", "pagerank", "galois", "--dataset", "rmat_mini",
                     "--iterations", "0"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.strip() == "error: iterations must be >= 1, got 0"
        assert captured.out == ""

    def test_iteration_flags_follow_declared_params(self, capsys):
        # The flags reach the spec as given, and the spec decides:
        # label_propagation takes --iterations, bfs refuses it — as a
        # served spec with the same params is refused.
        from repro.cli import main

        assert main(["run", "label_propagation", "native", "--dataset",
                     "rmat_mini", "--iterations", "2", "--json"]) == 0
        assert '"iterations": 2' in capsys.readouterr().out
        assert main(["run", "bfs", "native", "--dataset", "rmat_mini",
                     "--iterations", "2"]) == 1
        assert capsys.readouterr().err == (
            "error: unknown parameter(s) 'iterations' for bfs; valid: "
            "optimized, options, source\n")

    def test_datasets_command(self, capsys):
        from repro.cli import main

        assert main(["datasets"]) == 0
        assert "twitter" in capsys.readouterr().out

    def test_frameworks_command(self, capsys):
        from repro.cli import main

        assert main(["frameworks"]) == 0
        out = capsys.readouterr().out
        assert "gps" in out and "graphx" in out

    def test_table_command_with_save(self, tmp_path, capsys):
        from repro.cli import main

        save = tmp_path / "table2.json"
        assert main(["table", "2", "--save", str(save)]) == 0
        assert save.exists()
        assert "CombBLAS" in capsys.readouterr().out

    def test_unknown_table_number(self, capsys):
        from repro.cli import main

        assert main(["table", "9"]) == 2

    def test_graph500_command(self, capsys):
        from repro.cli import main

        assert main(["graph500", "--scale", "9", "--roots", "3"]) == 0
        assert "TEPS" in capsys.readouterr().out

    def test_graph500_dnf_is_one_status_line_and_its_exit_code(self, capsys):
        from repro.cli import main

        # Galois is single-node, so every search is the paper's dash: one
        # status line and the unsupported exit code, as `run` gives.
        assert main(["graph500", "--scale", "8", "--roots", "2",
                     "--framework", "galois", "--nodes", "4"]) == 4
        captured = capsys.readouterr()
        assert captured.out.startswith("status: unsupported (")
        assert captured.out.count("\n") == 1 and captured.err == ""
