"""Tests for repro.perf (roofline, attribution, advisor) and the freeze gate."""

import json

import pytest

from repro.cli import main
from repro.cluster.metrics import RunMetrics
from repro.errors import PerfRegression, ReproError
from repro.harness import freeze
from repro.harness.runner import run_cell as _run_cell
from repro.observability import Tracer
from repro.perf import (
    Roofline,
    advise_cell,
    attribute,
    attribute_cell,
    classify,
    roofline_of,
    roofline_table,
)


def run_cell(algorithm, framework, nodes):
    return _run_cell({"algorithm": algorithm, "framework": framework,
                      "nodes": nodes})


class TestRoofline:
    def test_native_within_paper_band(self):
        # The acceptance criterion: achieved/bound lands in the paper's
        # "within 2-2.5x of the hardware limit" band for every workload
        # at 1 and 4 nodes.
        from repro.algorithms.registry import ALGORITHMS

        table = roofline_table("native")
        assert set(table) == set(ALGORITHMS)
        for algorithm, per_nodes in table.items():
            for nodes, cell in per_nodes.items():
                assert cell["status"] == "ok", (algorithm, nodes)
                assert 1.0 <= cell["ratio"] <= 2.5, (algorithm, nodes, cell)
                assert cell["bound_s"] == pytest.approx(max(
                    cell["memory_floor_s"], cell["cpu_floor_s"],
                    cell["wire_floor_s"]))

    def test_framework_ratio_reflects_inefficiency(self):
        # A framework run moves more bytes and wastes cores, so its
        # achieved time sits far above the same hardware's floor.
        run = run_cell("bfs", "giraph", 4)
        assert roofline_of(run.metrics()).ratio > 5.0

    def test_binding_and_ratio_properties(self):
        roofline = Roofline(memory_floor_s=2.0, cpu_floor_s=1.0,
                            wire_floor_s=3.0, achieved_s=6.0)
        assert roofline.bound_s == 3.0
        assert roofline.binding == "network"
        assert roofline.ratio == pytest.approx(2.0)

    def test_empty_run_has_unit_ratio(self):
        roofline = Roofline(memory_floor_s=0.0, cpu_floor_s=0.0,
                            wire_floor_s=0.0, achieved_s=0.0)
        assert roofline.ratio == 1.0

    def test_imbalance_reported_for_skewed_partitions(self):
        # Triangle counting at 4 nodes is the known skewed cell: RMAT
        # hub vertices pile counted bytes onto one node. The
        # critical-node bound exposes that as imbalance > 1 while the
        # achieved/bound ratio stays ~1 (the run really is limited by
        # the overloaded node's DRAM).
        run = run_cell("triangle_counting", "native", 4)
        roofline = roofline_of(run.metrics())
        assert roofline.imbalance > 1.5
        assert roofline.ratio < 1.5


class TestAttribution:
    def test_factors_multiply_to_gap_exactly(self):
        # The acceptance criterion asks within 10%; the telescoping
        # construction makes it exact to floating point.
        attribution = attribute_cell("bfs", "giraph", nodes=4)
        assert attribution.product() == pytest.approx(attribution.gap,
                                                      rel=1e-9)
        assert attribution.gap > 100  # the paper's worst cell (~560x)

    def test_factor_names_and_details(self):
        attribution = attribute_cell("bfs", "giraph", nodes=4)
        names = [factor.name for factor in attribution.factors]
        assert names == ["superstep-overhead", "network", "compute"]
        compute = attribution.factors[2]
        # The paper's 4-of-24 worker occupancy: 6x for Giraph.
        assert compute.detail["occupancy"] == pytest.approx(6.0)
        assert compute.detail["ops_inflation"] > 1.0
        network = attribution.factors[1]
        # Per-edge overhead bytes: Giraph serializes fat messages.
        assert network.detail["wire_bytes_ratio"] > 10.0

    def test_exact_for_every_gate_framework(self):
        for framework in ("combblas", "graphlab", "giraph"):
            attribution = attribute_cell("pagerank", framework, nodes=4)
            assert attribution.product() == pytest.approx(
                attribution.gap, rel=1e-9), framework
            assert attribution.gap >= 1.0

    def test_attribution_lands_in_trace(self):
        tracer = Tracer()
        attribute_cell("bfs", "giraph", nodes=4, trace=tracer)
        assert len(tracer.spans_named("perf-attribution")) == 1
        assert len(tracer.spans_named("perf-factor")) == 3

    def test_attribute_accepts_run_results(self):
        framework_run = run_cell("bfs", "graphlab", 4)
        native_run = run_cell("bfs", "native", 4)
        attribution = attribute(framework_run, native_run)
        assert attribution.framework == "graphlab"
        assert attribution.product() == pytest.approx(attribution.gap,
                                                      rel=1e-9)


class TestClassification:
    def make_metrics(self, compute=0.0, memory=0.0, cpu=0.0, comm=0.0,
                     overhead=0.0, total=None):
        if total is None:
            total = compute + comm + overhead
        return RunMetrics(num_nodes=1, total_time_s=total,
                          compute_time_s=compute, memory_time_s=memory,
                          cpu_time_s=cpu, overhead_time_s=overhead)

    def test_latency_bound_when_fixed_dominates(self):
        metrics = self.make_metrics(compute=1.0, overhead=2.0)
        assert classify(metrics) == "latency"

    def test_network_bound_when_exposed_comm_beats_compute(self):
        metrics = self.make_metrics(compute=1.0, comm=2.0)
        assert classify(metrics) == "network"

    def test_memory_vs_compute_split(self):
        assert classify(self.make_metrics(compute=2.0, memory=2.0,
                                          cpu=1.0)) == "memory"
        assert classify(self.make_metrics(compute=2.0, memory=1.0,
                                          cpu=2.0)) == "compute"

    def test_every_real_run_gets_a_class(self):
        for framework in ("native", "giraph"):
            run = run_cell("bfs", framework, 4)
            assert classify(run.metrics()) in ("compute", "memory",
                                               "network", "latency")


class TestAdvisor:
    def test_ranked_and_complete(self):
        advice = advise_cell("bfs", nodes=4)
        options = [item.option for item in advice]
        assert set(options) == {"prefetch", "compression", "overlap",
                                "bitvector", "all"}
        speedups = [item.speedup for item in advice]
        assert speedups == sorted(speedups, reverse=True)

    def test_all_options_dominate_singles(self):
        advice = {item.option: item for item in advise_cell("bfs", nodes=4)}
        singles = [item.speedup for option, item in advice.items()
                   if option != "all"]
        assert advice["all"].speedup >= max(singles)
        assert all(speedup >= 1.0 for speedup in singles)

    def test_predictions_match_simulated_runs(self):
        advice = {item.option: item for item in advise_cell("bfs", nodes=1)}
        # The advisor's prediction IS a simulated run with the option
        # on, so speedup must equal baseline/predicted exactly.
        for item in advice.values():
            assert item.speedup == pytest.approx(
                item.baseline_s / item.predicted_s)

    def test_rationale_mentions_measured_quantities(self):
        advice = {item.option: item for item in advise_cell("bfs", nodes=4)}
        assert "random" in advice["prefetch"].rationale
        assert "MB/node" in advice["compression"].rationale
        assert "exposed" in advice["overlap"].rationale


#: The four single-node BFS gate cells: a freeze file recorded in ~0.1 s.
SUBSET = "gate/bfs/*/1"


@pytest.fixture(scope="module")
def frozen_subset(tmp_path_factory):
    path = tmp_path_factory.mktemp("freeze") / "frozen.json"
    freeze.record(path, only=SUBSET)
    return path


class TestBaselineGate:
    """The gate's baseline is the frozen file: ``repro freeze``."""

    def test_record_then_check_passes(self, frozen_subset, capsys):
        assert freeze.check(frozen_subset) == 4
        assert "0 of 4 frozen cells differ" in capsys.readouterr().out

    def test_rerecord_is_byte_identical(self, frozen_subset, tmp_path):
        again = tmp_path / "again.json"
        freeze.record(again, only=SUBSET)
        assert again.read_bytes() == frozen_subset.read_bytes()

    def test_injected_slowdown_fails_and_names_cell(self, frozen_subset,
                                                    capsys):
        with pytest.raises(PerfRegression,
                           match="1 of 4 frozen cells differ"):
            freeze.check(frozen_subset, inject="bfs/giraph=2.0")
        assert capsys.readouterr().out.splitlines() == [
            "gate/bfs/giraph/1: runtime_s (2.00x runtime)"]

    def test_a_tampered_digest_names_cell_and_field(self, frozen_subset,
                                                    tmp_path, capsys):
        frozen = freeze.load(frozen_subset)
        frozen["gate/bfs/native/1"]["spans"] = "0" * 64
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(frozen))
        with pytest.raises(PerfRegression):
            freeze.check(tampered)
        assert capsys.readouterr().out.splitlines()[0] == \
            "gate/bfs/native/1: spans (1.00x runtime)"

    def test_missing_baseline_raises(self, tmp_path):
        with pytest.raises(ReproError, match="no frozen cells at"):
            freeze.check(tmp_path / "absent.json")

    def test_non_baseline_file_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        for payload in ({}, [], {"bfs/native/1": "ok"},
                        {"bfs/native/1": {"status": "ok"}}):
            path.write_text(json.dumps(payload))
            with pytest.raises(ReproError, match="not a freeze file"):
                freeze.check(path)

    def test_parse_injection(self, frozen_subset):
        frozen = freeze.load(frozen_subset)
        assert freeze.parse_injection(" bfs/giraph = 2.0", frozen) == \
            ("bfs/giraph", 2.0)
        assert freeze.parse_injection("bfs=0.5", frozen) == ("bfs", 0.5)

    @pytest.mark.parametrize("inject, message", [
        ("bfs=abc", "expected a number"),
        ("bfs=nan", "finite number > 0"),
        ("bfs=inf", "finite number > 0"),
        ("bfs=-1", "finite number > 0"),
        ("bfs=0", "finite number > 0"),
        ("=2", "non-empty pattern"),
        ("bfs/giraph", "non-empty pattern"),
        ("pagerank=2", "matches no frozen cell"),
    ])
    def test_a_lying_injection_is_refused(self, frozen_subset, capsys,
                                          inject, message):
        """A factor or pattern under which the check could not fire (or
        would fire everywhere) is one typed error line, exit 1."""
        code = main(["freeze", "check", "--file", str(frozen_subset),
                     "--inject", inject])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_an_only_glob_that_matches_nothing_is_refused(self, tmp_path,
                                                          capsys):
        path = tmp_path / "frozen.json"
        assert main(["freeze", "record", "--only", "bfs/nosuch/*",
                     "--file", str(path)]) == 1
        assert "matches no frozen cell" in capsys.readouterr().err
        assert not path.exists()

    def test_only_rewrites_just_the_matching_keys(self, frozen_subset,
                                                  tmp_path):
        copy = tmp_path / "frozen.json"
        frozen = freeze.load(frozen_subset)
        frozen["gate/bfs/native/1"]["spans"] = "0" * 64
        frozen["gate/bfs/giraph/1"]["spans"] = "0" * 64
        copy.write_text(json.dumps(frozen))
        freeze.record(copy, only="gate/bfs/native/*")
        refrozen = freeze.load(copy)
        assert refrozen["gate/bfs/native/1"] == \
            freeze.load(frozen_subset)["gate/bfs/native/1"]
        assert refrozen["gate/bfs/giraph/1"]["spans"] == "0" * 64

    def test_payload_and_report_key_sets_are_pinned(self, frozen_subset):
        """A record is the status, the simulated runtime and five digests;
        a cell that does not complete is its status and failure."""
        frozen = freeze.load(frozen_subset)
        assert {frozenset(entry) for entry in frozen.values()} == {
            frozenset({"status", "runtime_s", "result", "spans", "counters",
                       "values", "untraced"})}
        committed = freeze.load()
        assert committed["bfs/galois/4/x1/mem"] == {
            "status": "unsupported: Galois is a single-node framework "
                      "(paper Section 3); got a 4-node cluster",
            "runtime_s": None}


class TestPerfCLI:
    def test_analyze(self, capsys):
        code = main(["perf", "analyze", "--framework", "native",
                     "--algorithms", "bfs", "--nodes", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Roofline" in out and "bfs" in out

    def test_analyze_framework_includes_attribution(self, capsys):
        code = main(["perf", "analyze", "--framework", "giraph",
                     "--algorithms", "bfs", "--nodes", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "product of factors" in out

    def test_analyze_json(self, capsys):
        code = main(["perf", "analyze", "--framework", "native",
                     "--algorithms", "bfs", "--nodes", "1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["roofline"]["bfs"]["1"]["ratio"] >= 1.0

    def test_advise(self, capsys):
        code = main(["perf", "advise", "bfs", "--nodes", "1"])
        assert code == 0
        assert "speedup" in capsys.readouterr().out

    def test_baseline_record_check_and_gate_exit_code(self, tmp_path,
                                                      capsys):
        path = tmp_path / "frozen.json"
        assert main(["freeze", "record", "--only", "gate/bfs/giraph/*",
                     "--file", str(path)]) == 0
        assert "froze 2 cells" in capsys.readouterr().out
        assert main(["freeze", "check", "--file", str(path)]) == 0
        # The injected slowdown must flip the exit code to 7 (the
        # perf-gate failure class) and the output must name the cell.
        code = main(["freeze", "check", "--file", str(path),
                     "--inject", "bfs/giraph/4=2.0"])
        assert code == 7
        captured = capsys.readouterr()
        assert "gate/bfs/giraph/4: runtime_s (2.00x runtime)" in captured.out
        assert "gate/bfs/giraph/1" not in captured.out
        assert captured.err == "error: 1 of 2 frozen cells differ\n"

    def test_exit_code_documented(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "7" in capsys.readouterr().out


class TestOverBusyAccounting:
    """Satellite: cpu_utilization no longer hides accounting bugs."""

    def test_raw_ratio_exposed_unclamped(self):
        metrics = RunMetrics(num_nodes=1, busy_core_seconds=30.0,
                             total_core_seconds=24.0)
        assert metrics.raw_cpu_utilization == pytest.approx(1.25)

    def test_over_busy_warns_once_and_clamps(self):
        metrics = RunMetrics(num_nodes=1, busy_core_seconds=30.0,
                             total_core_seconds=24.0)
        with pytest.warns(RuntimeWarning, match="exceeds capacity"):
            assert metrics.cpu_utilization == 1.0
        # The warning fires once per run, not on every read.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert metrics.cpu_utilization == 1.0

    def test_normal_run_neither_warns_nor_clamps(self):
        metrics = RunMetrics(num_nodes=1, busy_core_seconds=12.0,
                             total_core_seconds=24.0)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert metrics.cpu_utilization == pytest.approx(0.5)
            assert metrics.raw_cpu_utilization == metrics.cpu_utilization

    def test_real_runs_stay_within_capacity(self):
        run = run_cell("pagerank", "giraph", 4)
        metrics = run.metrics()
        assert metrics.raw_cpu_utilization <= 1.0 + 1e-9
