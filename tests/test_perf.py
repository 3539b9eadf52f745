"""Tests for repro.perf: roofline, attribution, advisor, regression gate."""

import json

import pytest

from repro import perf
from repro.cli import main
from repro.cluster.metrics import RunMetrics
from repro.errors import PerfRegression, ReproError
from repro.harness.runner import run_cell as _run_cell
from repro.observability import Tracer
from repro.perf import (
    GateReport,
    Roofline,
    advise_cell,
    attribute,
    attribute_cell,
    cell_key,
    classify,
    parse_injection,
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

    def test_fallback_without_per_node_counters(self):
        # Metrics reconstructed without per-node arrays (e.g. from a
        # trace) still get a roofline: perfectly-balanced floors.
        metrics = RunMetrics(num_nodes=2, total_time_s=10.0,
                             streamed_bytes_total=86e9 * 2,
                             random_bytes_total=0.0, ops_total=0.0,
                             bytes_sent_total=0.0)
        roofline = roofline_of(metrics)
        assert roofline.memory_floor_s == pytest.approx(1.0)
        assert roofline.imbalance == 1.0
        assert roofline.ratio == pytest.approx(10.0)

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


class TestBaselineGate:
    CONFIG = dict(algorithms=("bfs",), frameworks=("native", "giraph"),
                  node_counts=(1,))

    def test_record_then_check_passes(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        payload = perf.record(path, **self.CONFIG)
        assert payload["cells"][cell_key("bfs", "giraph", 1)]["status"] == "ok"
        report = perf.check(path)
        assert report.ok
        assert len(report.checks) == 2
        report.raise_if_failed()  # must not raise

    def test_rerecord_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        perf.record(first, **self.CONFIG)
        perf.record(second, **self.CONFIG)
        assert first.read_bytes() == second.read_bytes()

    def test_injected_slowdown_fails_and_names_cell(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        perf.record(path, **self.CONFIG)
        report = perf.check(path, inject="bfs/giraph=2.0")
        assert not report.ok
        regressed = {check.cell for check in report.regressions}
        assert regressed == {cell_key("bfs", "giraph", 1)}
        assert report.regressions[0].ratio == pytest.approx(2.0)
        with pytest.raises(PerfRegression) as excinfo:
            report.raise_if_failed()
        assert "bfs/giraph/1" in str(excinfo.value)
        assert excinfo.value.report is report

    def test_tolerance_absorbs_small_drift(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        perf.record(path, **self.CONFIG)
        assert perf.check(path, tolerance=0.05, inject="bfs=1.04").ok
        assert not perf.check(path, tolerance=0.05, inject="bfs=1.06").ok

    def test_speedup_reports_improvement_not_failure(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        perf.record(path, **self.CONFIG)
        report = perf.check(path, inject="bfs/native=0.5")
        assert report.ok
        assert {check.cell for check in report.improvements} == \
            {cell_key("bfs", "native", 1)}

    def test_missing_baseline_raises(self, tmp_path):
        with pytest.raises(ReproError, match="no perf baseline"):
            perf.check(tmp_path / "absent.json")

    def test_non_baseline_file_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ReproError, match="not a perf baseline"):
            perf.load_baseline(path)

    def test_parse_injection(self):
        assert parse_injection(None) == {}
        assert parse_injection("bfs/giraph=2.0; pagerank=1.5") == \
            {"bfs/giraph": 2.0, "pagerank": 1.5}
        assert parse_injection({"bfs": 3}) == {"bfs": 3.0}
        with pytest.raises(ReproError, match="expected 'pattern=factor'"):
            parse_injection("bfs/giraph")

    def test_report_to_dict_roundtrips_through_json(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        perf.record(path, **self.CONFIG)
        report = perf.check(path, inject="bfs/giraph=2.0")
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is False
        assert payload["regressions"][0]["cell"] == "bfs/giraph/1"

    def test_empty_report_is_ok(self):
        assert GateReport(path="x", tolerance=0.05).ok

    def test_payload_and_report_key_sets_are_pinned(self, tmp_path):
        """Everything recorded and reported is on the simulated clock."""
        payload = perf.record(tmp_path / "BENCH_perf.json", **self.CONFIG)
        assert set(payload) == {"kind", "version", "config", "cells"}
        assert set(GateReport(path="x", tolerance=0.05).to_dict()) == {
            "path", "tolerance", "ok", "checked", "regressions",
            "improvements", "injected"}


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
        path = tmp_path / "BENCH_perf.json"
        args = ["--algorithms", "bfs", "--frameworks", "native,giraph",
                "--nodes", "1"]
        assert main(["perf", "baseline", "record", "--out", str(path)]
                    + args) == 0
        assert path.exists()
        assert main(["perf", "baseline", "check", "--baseline",
                     str(path)]) == 0
        # The injected slowdown must flip the exit code to 7 (the
        # perf-gate failure class) and the report must name the cell.
        code = main(["perf", "baseline", "check", "--baseline", str(path),
                     "--inject", "bfs/giraph=2.0"])
        assert code == 7
        assert "bfs/giraph/1" in capsys.readouterr().out

    def test_a_baseline_with_the_retired_sections_still_gates(self, tmp_path,
                                                               capsys):
        """The shape ``BENCH_serve.json`` was committed in: the advisory
        ``serve`` / ``wall_clock`` sections are ignored, the cells gate."""
        path = tmp_path / "BENCH_serve.json"
        payload = perf.record(path, algorithms=("bfs",),
                              frameworks=("native", "giraph"),
                              node_counts=(1,))
        payload["wall_clock"] = {
            "table2": {"seconds": 1.2e-05, "artifact": "table2",
                       "advisory": True}}
        payload["serve"] = {
            "advisory": True,
            "loadgen": {"requests": 1000, "completed": 1000, "failed": 0,
                        "latency_s": {"p50_s": 0.281, "p99_s": 0.9},
                        "throughput_rps": 17.0},
            "warm_cold": {"min_speedup": 3.5,
                          "cache_hits": {"total": 9, "pinned": 9}}}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

        assert perf.load_baseline(path)["serve"]["advisory"] is True
        report = perf.check(path)
        assert report.ok and len(report.checks) == 2
        assert main(["perf", "baseline", "check", "--baseline",
                     str(path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "advisory" not in out
        assert main(["perf", "baseline", "check", "--baseline", str(path),
                     "--inject", "bfs/giraph=2.0"]) == 7
        assert "bfs/giraph/1" in capsys.readouterr().out

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
