"""Self-tests of the benchmark (``pytest bench/``; not part of tier-1).

They check the benchmark's own promises — seeded inputs, a trace that
telescopes, wrappers that leave no residue, an isolated workload
process, and output that matches ``BENCHMARK.json`` name for name.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from bench import env

env.use_source_tree()

from bench import compare, measure, trace  # noqa: E402
from bench.workloads import WORKLOADS, Table5Sweep, ServeMixed  # noqa: E402

DECLARED = env.declared()


def _plan(name, seed) -> str:
    return json.dumps(WORKLOADS[name](seed, private=None).plan(),
                      sort_keys=True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_different_seed_different_inputs(name):
    assert _plan(name, 0) == _plan(name, 0)
    if name == Table5Sweep.name:
        # The catalog proxies are fixed: the seed has nothing to drive.
        assert _plan(name, 0) == _plan(name, 1)
    else:
        assert _plan(name, 0) != _plan(name, 1)


def test_serve_rounds_hold_the_same_requests_in_seeded_order():
    workload = ServeMixed(7, private=None)
    size = len(workload.templates)
    first, second = workload.round_order(0), workload.round_order(1)
    assert sorted(first) == sorted(second) == list(range(size))
    assert first != second
    assert first == ServeMixed(7, private=None).round_order(0)


# -- the trace ---------------------------------------------------------------


def _span(name, start, end, parent=None):
    span = trace.Span(name, parent)
    span.start, span.end = start, end
    return span


def test_self_times_telescope_on_a_synthetic_tree():
    root = _span("bench.unit", 0.0, 10.0)
    build = _span("datagen.build.x", 1.0, 5.0, root)
    edges = _span("datagen.rmat_edges", 1.5, 3.0, build)
    csr = _span("graph.csr_build", 3.0, 4.5, build)
    run = _span("frameworks.native.run", 6.0, 9.0, root)
    step = _span("kernels.step", 6.5, 8.5, run)
    summary = trace.summarize([root, build, edges, csr, run, step])
    assert summary.self_sum == pytest.approx(summary.root_sum) == 10.0
    assert summary.row("unit", "datagen.build.x").self_s == pytest.approx(1.0)
    assert summary.row("unit", "bench.unit").self_s == pytest.approx(3.0)
    assert summary.self_s("unit", "datagen.") == pytest.approx(2.5)


def test_self_time_subtracts_the_union_of_overlapping_children():
    root = _span("bench.unit", 0.0, 10.0)
    spans = [root, _span("serve.request.gate", 1.0, 6.0, root),
             _span("serve.request.gate", 4.0, 8.0, root)]
    summary = trace.summarize(spans)
    assert summary.row("unit", "bench.unit").self_s == pytest.approx(3.0)


def test_spans_of_other_threads_are_attributed_by_time():
    setup = _span("bench.setup", 0.0, 5.0)
    stray = _span("datagen.rmat_edges", 1.0, 2.0)     # no bench ancestor
    summary = trace.summarize([setup, stray])
    assert summary.row("setup", "datagen.rmat_edges").self_s == \
        pytest.approx(1.0)
    assert summary.self_sum == pytest.approx(summary.root_sum)


def _patched_attributes():
    """(owner, name, current object) of everything ``tracing`` replaces."""
    found = [(cls, attribute, vars(cls)[attribute])
             for cls, attribute, _name, _after in trace.patch_targets()]
    functions = [original for original, _name, _after
                 in trace.patch_functions()]
    from repro.datagen import cache
    from repro.harness import runner
    functions += [cache.get_or_build, cache.get_or_build_dir, runner.run]
    for module in trace._repro_modules():
        for attribute, value in list(vars(module).items()):
            if any(value is function for function in functions):
                found.append((module, attribute, value))
    return found


def test_every_wrapper_is_gone_after_tracing_also_on_exception():
    before = _patched_attributes()
    assert len(before) > 30
    with pytest.raises(RuntimeError):
        with trace.tracing(trace.Recorder()):
            during = [vars(owner)[name] for owner, name, _ in before]
            raise RuntimeError("boom")
    assert all(now is not original
               for now, (_, _, original) in zip(during, before))
    for owner, name, original in before:
        assert vars(owner)[name] is original, (owner, name)


def test_wrappers_record_nested_spans_and_counts():
    from repro import datagen

    recorder = trace.Recorder()
    with trace.tracing(recorder), recorder.span("bench.unit", root=True):
        graph = datagen.rmat_graph.__wrapped__(8, 4, seed=3)
    names = [span.name for span in recorder.spans]
    assert names == ["bench.unit", "datagen.rmat_edges", "graph.csr_build"]
    assert recorder.spans[1].counts == {"edges": 4 << 8}
    assert recorder.spans[2].counts == {"edges": graph.num_edges}
    assert recorder.spans[1].parent is recorder.spans[0]


# -- the measurement rules ------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert measure.tail_percentile(9) == 50.0
    assert measure.tail_percentile(18) == 50.0
    assert measure.tail_percentile(40) == 75.0
    assert measure.tail_percentile(100) == 90.0
    assert measure.tail_percentile(640) == 90.0


def test_a_wrong_status_or_a_changed_outcome_is_a_failed_op():
    m = measure.Measurement()
    m.op("a", 0.1, "ok|1.5|0|3|3", expect="ok")
    m.op("a", 0.1, "ok|1.5|0|3|3", expect="ok")
    m.op("a", 0.1, "ok|1.6|0|3|3", expect="ok")          # moved
    m.op("b", 0.1, "out-of-memory", expect="ok")         # wrong status
    assert (m.attempted, m.failed, m.cells_ok) == (4, 2, 2)
    probe = measure.SpeedProbe()
    m.close_unit(1.0, before=2 * probe.NOMINAL_S, after=2 * probe.NOMINAL_S)
    m.correct(probe)                    # the machine ran at half speed
    assert m.latencies == {"a": [0.05, 0.05]} and m.unit_s == [0.5]
    m.check_expected({"a": "ok|1.5|0|3|3", "c": "ok|2"})
    assert m.failed == 3 and "c:" in m.failures[-1]


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(steady, [10.5, 10.4, 10.6, 10.5],
                           "lower", 0.10) == "ok"
    assert compare.verdict(steady, [11.5, 11.4, 11.6, 11.5],
                           "lower", 0.10) == "worse"
    assert compare.verdict(steady, [8.5, 8.4, 8.6, 8.5],
                           "higher", 0.10) == "worse"
    noisy = [10.0, 13.0, 8.0, 12.0]
    assert compare.verdict(noisy, steady, "lower", 0.10) == "unresolved"
    assert compare.verdict(noisy, [7.0, 7.1, 6.9, 7.0],
                           "lower", 0.10) == "ok"


# -- end to end: the quick run ---------------------------------------------------


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    """``python3 -m bench --quick`` with a hostile environment."""
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    hostile = dict(os.environ, REPRO_KERNELS="interpreted",
                   REPRO_OUT_OF_CORE="1", REPRO_DATASET_CACHE="0",
                   REPRO_CACHE_DIR=str(env.ROOT / ".repro_cache"))
    started = time.perf_counter()
    subprocess.run([sys.executable, "-m", "bench", "--quick", "--seed", "0",
                    "--seconds", "0", "--out", str(out)],
                   cwd=env.ROOT, env=hostile, check=True,
                   stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - started
    return json.loads(out.read_text()), wall


def test_quick_emits_exactly_the_declared_names(quick_run):
    results, wall = quick_run
    assert wall < 60
    assert [record["workload"] for record in results["runs"]] == \
        [workload["name"] for workload in DECLARED["workloads"]]
    declared = {metric["name"]: metric["unit"]
                for metric in DECLARED["end_to_end"]}
    for record in results["runs"]:
        assert record["units"] == 1
        assert record["correct"], record["failures"]
        assert {name: entry["unit"]
                for name, entry in record["metrics"].items()} == declared
        assert all(entry["value"] > 0
                   for entry in record["metrics"].values())


def test_the_workload_process_is_isolated(quick_run):
    results, _wall = quick_run
    for record in results["runs"]:
        isolation = record["isolation"]
        assert set(isolation["scrubbed"].values()) == {None}
        assert isolation["cache_dir"].startswith(str(env.OUT / "tmp"))
        assert not os.path.exists(isolation["cache_dir"])   # cleaned up


def test_a_traced_quick_run_telescopes_and_names_every_layer_metric(tmp_path):
    record_path = tmp_path / "traced.json"
    subprocess.run([sys.executable, "-m", "bench.worker", "--workload",
                    "cold_dense", "--seed", "0", "--seconds", "0",
                    "--trace", "1", "--record", str(record_path)],
                   cwd=env.ROOT, check=True, stdout=subprocess.DEVNULL)
    record = json.loads(record_path.read_text())
    values = {name: entry["value"]
              for name, entry in record["metrics"].items()}
    assert set(values) == {metric["name"]
                           for metric in DECLARED["per_layer"]}
    assert record["correct"], record["failures"]
    assert values["trace.self_sum_s"] == \
        pytest.approx(values["trace.root_sum_s"], rel=0.01)
    construction = sum(values[name] for name in (
        "datagen.rmat_edges_s", "datagen.edge_prep_s",
        "datagen.cache_store_s", "graph.csr_build_s"))
    assert construction > values["kernels.step_s"] > 0
    assert values["serve.boot_s"] == 0          # a layer it never enters
