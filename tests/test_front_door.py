"""The one front door: cell placement, the artifact table, the taxonomy.

* ``TestPlacements`` — ``experiment_dataset`` against
  ``tests/frozen_placements.json``, recorded from the three resolvers it
  replaced (at the commit before they were folded; never regenerated
  since), and against the one resident object it must hand back.
* ``TestOneResidentSet`` — a dataset is one object per content, held by
  ``harness.datasets`` alone; a name that cannot run is a typed error.
* ``TestArtifactTable`` — a row added to ``ARTIFACTS`` is a sweep
  target, a served target, and part of ``regenerate`` and ``report``
  with no other edit.
* ``TestFailureTaxonomy`` — every error class and every cell status
  pinned to its exit code and journaled status.
* ``TestAnyWorkingDirectory`` — commands that used to need the repo
  root as cwd.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import errors
from repro.cli import build_parser, main
from repro.datagen import cache as cache_module
from repro.harness import ARTIFACTS, Artifact, Sweep, fidelity
from repro.harness import datasets
from repro.harness.datasets import experiment_dataset
from repro.harness.tables import table5
from repro.observability import Tracer
from repro.serve.api import ApiError, parse_sweep_request

ROOT = Path(__file__).resolve().parent.parent
FROZEN = json.loads((ROOT / "tests" / "frozen_placements.json").read_text())


def _describe(data, factor):
    if hasattr(data, "num_ratings"):
        return [type(data).__name__, f"{data.num_users}x{data.num_items}",
                int(data.num_ratings), repr(float(factor))]
    return [type(data).__name__, int(data.num_vertices), int(data.num_edges),
            repr(float(factor))]


class TestPlacements:
    @pytest.mark.parametrize("cell", sorted(FROZEN))
    def test_experiment_dataset_reproduces_the_frozen_placement(self, cell):
        algorithm, name, nodes = cell.split("|")
        name, nodes = (None if name == "None" else name), int(nodes)
        data, factor = experiment_dataset(algorithm, name, nodes)
        assert _describe(data, factor) == FROZEN[cell]
        # No second build: the proxy is the resident one.
        ratings = algorithm == "collaborative_filtering"
        if name is None:
            memo = datasets.weak_scaling_ratings(nodes) if ratings \
                else datasets.weak_scaling_graph(algorithm, nodes)
        elif name != "synthetic":
            memo = datasets.single_node_ratings(name) if ratings \
                else datasets.single_node_graph(name, algorithm)
        else:
            memo = experiment_dataset(algorithm, name, nodes)[0]
        assert data is memo

    def test_frozen_file_covers_every_placement(self):
        from repro.algorithms.registry import ALGORITHMS
        from repro.harness.figures import FIGURE5_CONFIG
        from repro.harness.tables import SINGLE_NODE_DATASETS

        expected = {f"{a}|{d}|1" for a in ALGORITHMS
                    for d in SINGLE_NODE_DATASETS[a]}
        expected |= {f"{a}|None|{n}" for a in ALGORITHMS for n in (1, 4, 16)}
        expected |= {f"{a}|{d}|{n}" for a, (d, n) in FIGURE5_CONFIG.items()}
        assert set(FROZEN) == expected

    def test_a_dataset_without_a_paper_size_is_its_own_dataset(self):
        _data, factor = experiment_dataset("bfs", "rmat_mini")
        assert factor == 1.0


def _cache_hits(tracer):
    """``pinned`` of every dataset-cache hit a tracer saw, in order."""
    return [bool(span.attrs.get("pinned")) for span in tracer.spans
            if span.name == "dataset-cache-hit"]


class TestOneResidentSet:
    @pytest.mark.parametrize("nodes", [1, 4])
    @pytest.mark.parametrize(
        "name", [None, "synthetic", "livejournal", "facebook", "wikipedia"])
    def test_the_undirected_algorithms_share_one_object(self, name, nodes):
        first = experiment_dataset("bfs", name, nodes)[0]
        for algorithm in datasets.UNDIRECTED_ALGORITHMS:
            assert experiment_dataset(algorithm, name, nodes)[0] is first
        assert experiment_dataset("pagerank", name, nodes)[0] is not first

    def test_a_named_spec_runs_on_the_resident_catalog_proxy(self):
        from repro.harness import ExperimentSpec, run

        proxy = datasets.catalog_dataset("rmat_mini")
        assert experiment_dataset("pagerank", "rmat_mini")[0] is proxy
        tracer = Tracer()
        with cache_module.use_tracer(tracer):
            assert run(ExperimentSpec("bfs", "native", "rmat_mini")).ok
        assert _cache_hits(tracer) == [True]

    def test_a_sweep_loads_each_graph_once_and_derives_from_it_once(
            self, monkeypatch):
        from repro.graph import csr

        built = []
        real = csr.derived

        def counting(graph, key, build):
            def counted():
                built.append((id(graph), key))
                return build()
            return real(graph, key, counted)

        for module in list(sys.modules.values()):
            if vars(module).get("derived") is real:
                monkeypatch.setattr(module, "derived", counting)
        algorithms, frameworks = ("bfs", "wcc", "sssp"), ("giraph",)
        table5(frameworks, algorithms)               # warm the disk cache
        datasets.clear_proxy_caches()
        del built[:]
        tracer = Tracer()
        table5(frameworks, algorithms, sweep=Sweep("table5", tracer=tracer))
        # 4 datasets x 3 algorithms x (native, giraph): the three
        # algorithms share each dataset's symmetrized graph, so only
        # its first cell reaches the disk.
        hits = _cache_hits(tracer)
        assert len(hits) == 24 and hits.count(False) == 4
        assert len(cache_module.pinned()) == 4
        assert len(built) == len(set(built))
        assert len({graph for graph, _key in built}) == 4

    def test_clearing_sends_the_next_lookup_to_the_disk_cache(self):
        experiment_dataset("bfs", "synthetic")
        tracer = Tracer()
        with cache_module.use_tracer(tracer):
            held = experiment_dataset("wcc", "synthetic")[0]
            datasets.clear_proxy_caches()
            assert cache_module.pinned() == []
            reloaded = experiment_dataset("wcc", "synthetic")[0]
        assert _cache_hits(tracer) == [True, False]
        assert reloaded is not held

    @pytest.mark.parametrize("argv, message", [
        (["bfs", "native", "--dataset", "nosuch"],
         "bfs needs a graph dataset, got 'nosuch'; known: facebook"),
        (["bfs", "native", "--dataset", "netflix"],
         "bfs needs a graph dataset, got 'netflix'"),
        (["collaborative_filtering", "native", "--dataset", "facebook"],
         "needs a ratings dataset, got 'facebook'; known: netflix"),
    ])
    def test_a_name_that_cannot_run_is_one_error_line(self, argv, message,
                                                      capsys):
        assert main(["run", *argv]) == errors.EXIT_FAILURE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1


def _stub_producer(sweep=None, frameworks=("left", "right")):
    engine = sweep if sweep is not None else Sweep("stub")
    result = engine.run([{"framework": name} for name in frameworks],
                        lambda key, budget_s=None: {"runtime_s": 1.0})
    return {record.key["framework"]: record.runtime() for record in result}


STUB = Artifact(_stub_producer,
                lambda data, title: f"{title}\n{sorted(data.items())}",
                "Stub: a row nothing else knows about", sweepable=True)


@pytest.fixture
def stub_row(monkeypatch):
    """One new row; every real row made instant (no data, title only)."""
    for name, artifact in list(ARTIFACTS.items()):
        monkeypatch.setitem(ARTIFACTS, name, replace(
            artifact, producer=lambda **_: {},
            render=lambda data, title: title))
    monkeypatch.setitem(ARTIFACTS, "stub", STUB)
    monkeypatch.setattr(fidelity, "ROWS", ())


class TestArtifactTable:
    def test_a_new_row_is_a_sweep_target(self, stub_row, capsys):
        assert main(["sweep", "stub", "--frameworks", "galois"]) == 0
        out = capsys.readouterr().out
        assert STUB.title in out and "('galois', 1.0)" in out
        assert "Sweep 'stub': 1 cells, 100% ok" in out
        with pytest.raises(SystemExit) as usage:
            build_parser().parse_args(["sweep", "table1"])   # not sweepable
        assert usage.value.code == 2

    def test_a_new_row_is_a_served_sweep_target(self, stub_row):
        assert parse_sweep_request({"target": "stub"})["target"] == "stub"
        with pytest.raises(ApiError, match="does not take 'algorithms'"):
            parse_sweep_request({"target": "stub", "algorithms": ["bfs"]})
        with pytest.raises(ApiError, match="valid: table5.*stub"):
            parse_sweep_request({"target": "table4"})

    def test_a_new_row_is_regenerated_and_reported(self, stub_row, capsys,
                                                   tmp_path):
        assert main(["regenerate"]) == 0
        captured = capsys.readouterr()
        assert "[('left', 1.0), ('right', 1.0)]" in captured.out
        for artifact in ARTIFACTS.values():
            assert artifact.title in captured.out
        # Timings are not part of the transcript.
        assert "regenerated in" not in captured.out
        assert "[stub regenerated in" in captured.err

        report = tmp_path / "report.md"
        assert main(["report", "--output", str(report)]) == 0
        text = report.read_text()
        assert "## stub" in text and "[('left', 1.0), ('right', 1.0)]" in text
        assert all(f"## {name}" in text for name in ARTIFACTS)

    def test_unknown_numbers_are_usage_errors(self, capsys):
        assert main(["table", "9"]) == 2
        assert "the paper has tables 1-7" in capsys.readouterr().err
        assert main(["figure", "2"]) == 2
        assert "the paper has figures 3-7" in capsys.readouterr().err

    def test_every_title_names_its_artifact(self):
        for name, artifact in ARTIFACTS.items():
            if name.startswith(("table", "figure")):
                kind, number = name[:-1].capitalize(), name[-1]
                assert artifact.title.startswith(f"{kind} {number}: ")


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


class TestFailureTaxonomy:
    #: error class -> (journaled status, exit code, CLI label); every
    #: ReproError subclass not named here is the unclassified row.
    CLASSES = {
        "SweepInterrupted": (None, 8, "interrupted"),
        "CapacityError": ("out-of-memory", 3, "out of memory"),
        "ExpressibilityError": ("unsupported", 1, "error"),
        "DeadlineExceeded": ("timeout", 6, "deadline exceeded"),
        "NodeFailure": ("failed", 5, "node failure"),
        "PerfRegression": (None, 7, "error"),
        "ConvergenceError": ("failed", 1, "diverged"),
        "KeyRangeError": ("failed", 1, "key out of range"),
    }
    #: The four `run` hands back as a status instead of raising.
    RESULTS = {"CapacityError", "ExpressibilityError", "DeadlineExceeded",
               "ConvergenceError"}
    STATUSES = {"ok": 0, "out-of-memory": 3, "unsupported": 4, "timeout": 6,
                "failed": 5,
                # A cell that killed its workers is an unclassified
                # failure: exit 1, stated rather than defaulted.
                "crashed": 1}

    def test_every_error_class_is_pinned(self):
        import repro.frameworks.datalog.parser  # noqa: F401  (its error)
        import repro.serve  # noqa: F401  (ApiError, JobConflict)

        classes = {errors.ReproError, *_all_subclasses(errors.ReproError)}
        assert len(classes) >= 16
        for cls in classes:
            row = next(r for r in errors.FAILURE_CLASSES
                       if issubclass(cls, r.error))
            expected = self.CLASSES.get(cls.__name__, (None, 1, "error"))
            assert (row.status, row.exit_code, row.label) == expected, cls
            assert row.is_result == (cls.__name__ in self.RESULTS), cls

    def test_a_real_memory_error_is_the_out_of_memory_dash(self):
        row = errors.failure_class(MemoryError())
        assert (row.status, row.is_result) == ("out-of-memory", False)
        assert errors.failure_class(ValueError("x")).status is None

    def test_a_diverged_factorization_is_a_failed_result_everywhere(self):
        """Not ``ok`` with an inf/nan curve, not an exception out of
        ``run`` (which a sweep would retry with backoff and quarantine)."""
        from repro.algorithms.registry import FRAMEWORKS
        from repro.datagen import netflix_like_ratings
        from repro.harness import ExperimentSpec, run
        from repro.harness.sweep import CellPolicy, execute_cell

        ratings = netflix_like_ratings(scale=9, num_items=48, seed=78)

        def cell(framework, **params):
            return run(ExperimentSpec(
                "collaborative_filtering", framework, ratings,
                params={"hidden_dim": 8, "iterations": 12, **params}))

        with np.errstate(all="ignore"):
            for framework in FRAMEWORKS:
                diverged = cell(framework, gamma0=5.0)
                assert diverged.status == "failed", framework
                assert "diverged" in diverged.failure
        assert all(np.isfinite(cell("native").result.extras["rmse_curve"]))

        def raises(key, budget_s=None):
            raise errors.ConvergenceError("gd diverged")
        record = execute_cell({"framework": "x"}, raises, CellPolicy())
        assert (record.status, record.attempts, record.quarantined) == \
            ("failed", 1, False)

    def test_every_status_has_its_exit_code(self):
        assert errors.STATUS_EXIT_CODES == self.STATUSES
        assert set(errors.STATUS_EXIT_CODES) == set(errors.CELL_STATUSES)

    def test_the_cli_exits_with_the_class_code(self, monkeypatch, capsys):
        import repro.cli as cli

        for error, code, label in (
                (errors.NodeFailure(2, 3), 5, "node failure: "),
                (errors.SpecError("bad"), 1, "error: "),
                (errors.PerfRegression("slow"), 7, "error: ")):
            def _raise(_args, error=error):
                raise error
            monkeypatch.setattr(cli, "_cmd_frameworks", _raise)
            assert main(["frameworks"]) == code
            assert capsys.readouterr().err.startswith(label)


class TestAnyWorkingDirectory:
    def test_regenerate_does_not_need_the_repo_root(self, stub_row, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["regenerate"]) == 0
        assert STUB.title in capsys.readouterr().out

    def test_the_perf_gate_runs_away_from_the_repo(self, tmp_path):
        """Only ``src/`` is importable: the freeze needs nothing else."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        gate = [sys.executable, "-m", "repro", "freeze"]
        record = subprocess.run(
            gate + ["record", "--only", "gate/bfs/native/1",
                    "--file", "x.json"],
            cwd=tmp_path, env=env, capture_output=True, text=True)
        assert record.returncode == 0, record.stderr
        assert (tmp_path / "x.json").exists()
        check = subprocess.run(gate + ["check", "--file", "x.json"],
                               cwd=tmp_path, env=env, capture_output=True,
                               text=True)
        assert check.returncode == 0, check.stderr
        assert "0 of 1 frozen cells differ" in check.stdout

    def test_src_never_mentions_the_benchmarks_package(self):
        """Installed code must not reach for the repo's test packages."""
        assert not [path.relative_to(ROOT).as_posix()
                    for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
                    if "benchmarks" in path.read_text()]
