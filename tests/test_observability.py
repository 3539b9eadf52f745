"""Tests for the flight-recorder observability layer.

The tracer's numbers must be the *same* numbers the aggregate metrics
report — spans are just those quantities with timestamps and structure.
So the core assertions here cross-check trace totals against
:class:`RunMetrics`: summed superstep+tick durations == total runtime,
the bytes_sent counter == bytes_sent_total, and the Chrome export is
schema-valid trace_event JSON. The no-op path (no tracer passed) must
keep working for every framework in the registry.
"""

import json

import pytest

from repro.algorithms.registry import FRAMEWORKS
from repro.datagen import rmat_graph, rmat_triangle_graph
from repro.errors import ReproError
from repro.harness import ExperimentSpec, default_params, run
from repro.observability import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    chrome_trace,
    render_summary_tree,
    steps_csv,
)


@pytest.fixture(scope="module")
def graph_small():
    return rmat_graph(scale=9, edge_factor=6, seed=71)


def _traced(algorithm, framework, data, nodes=1, faults=None, fault_seed=0,
            **params):
    result = run(ExperimentSpec(algorithm, framework, data, nodes=nodes,
                                faults=faults, fault_seed=fault_seed,
                                params=params), trace=Tracer())
    assert result.ok, result.failure
    return result


# ---------------------------------------------------------------------------
# Tracer mechanics


class TestTracerMechanics:
    def test_span_nesting_stack(self):
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.advance(1.0)
            with tracer.span("inner"):
                tracer.advance(2.0)
        outer, inner = tracer.spans
        assert outer.parent is None and outer.depth == 0
        assert inner.parent == 0 and inner.depth == 1
        assert inner.start_s >= outer.start_s
        assert inner.end_s <= outer.end_s
        assert not tracer.open_spans()

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        assert not tracer.open_spans()

    def test_counters_accumulate(self):
        tracer = Tracer()
        tracer.count("messages", 3)
        tracer.count("messages", 4)
        assert tracer.counters["messages"] == 7
        # Samples record the running total at each bump.
        assert [s[2] for s in tracer.counter_samples] == [3, 7]

    def test_null_tracer_is_inert(self):
        tracer = NullTracer()
        assert not tracer.enabled
        with tracer.span("anything", attr=1):
            pass
        tracer.count("messages", 5)
        tracer.instant("marker")
        tracer.advance(1.0)
        assert not hasattr(tracer, "spans")
        assert not hasattr(tracer, "counters")

    def test_shared_null_tracer_identity(self):
        # Every default call site shares one instance: no allocations.
        from repro.frameworks.vertex.engine import NULL_TRACER as engine_null
        assert engine_null is NULL_TRACER


# ---------------------------------------------------------------------------
# Trace totals vs RunMetrics aggregates


class TestTraceAgreesWithMetrics:
    @pytest.fixture(scope="class")
    def giraph_run(self, graph_small):
        return _traced("pagerank", "giraph", graph_small, nodes=4,
                       iterations=3)

    def test_span_durations_cover_total_runtime(self, giraph_run):
        tracer = giraph_run.trace
        metrics = giraph_run.metrics()
        stepped = tracer.total_duration("superstep") \
            + tracer.total_duration("tick")
        assert stepped == pytest.approx(metrics.total_time_s, rel=1e-9)

    def test_bytes_counter_matches_metrics(self, giraph_run):
        tracer = giraph_run.trace
        metrics = giraph_run.metrics()
        assert metrics.bytes_sent_total > 0
        assert tracer.counters["bytes_sent"] == pytest.approx(
            metrics.bytes_sent_total, rel=1e-9)

    def test_run_span_wraps_everything(self, giraph_run):
        tracer = giraph_run.trace
        (run_span,) = tracer.spans_named("run")
        assert run_span.attrs["algorithm"] == "pagerank"
        assert run_span.attrs["framework"] == "giraph"
        assert run_span.parent is None
        for span in tracer.spans:
            assert span.start_s >= run_span.start_s
            if span.end_s is not None:
                assert span.end_s <= run_span.end_s + 1e-12

    def test_superstep_nests_under_engine_phase(self, giraph_run):
        tracer = giraph_run.trace
        for step in tracer.spans_named("superstep"):
            assert step.parent is not None
            parent = tracer.spans[step.parent]
            assert parent.name in ("exchange-apply", "gather/apply/scatter")

    def test_superstep_attrs_sum_to_metrics(self, giraph_run):
        metrics = giraph_run.metrics()
        steps = giraph_run.trace.spans_named("superstep")
        assert sum(s.attrs["bytes_sent"] for s in steps) == pytest.approx(
            metrics.bytes_sent_total, rel=1e-9)
        assert sum(s.attrs["compute_s"] for s in steps) == pytest.approx(
            metrics.compute_time_s, rel=1e-9)
        assert sum(s.attrs["comm_s"] for s in steps) == pytest.approx(
            metrics.comm_time_s, rel=1e-9)

    def test_frontier_counter_equals_reached(self, graph_small):
        result = _traced("bfs", "native", graph_small,
                         **default_params("bfs", graph_small))
        reached = result.result.extras["reached"]
        assert result.trace.counters["frontier_size"] == reached

    @pytest.mark.parametrize("framework", ("native", "graphlab", "galois"))
    @pytest.mark.parametrize("algorithm", ("bfs", "wcc", "sssp"))
    def test_frontier_counter_rule(self, algorithm, framework):
        # One rule on every engine: frontier_size is the sum of the
        # per-round active-set sizes, i.e. of the round spans' frontier
        # attribute (the all-vertex first round of wcc included).
        graph = rmat_graph(scale=9, edge_factor=6, seed=71, directed=False)
        result = _traced(algorithm, framework, graph,
                         **default_params(algorithm, graph))
        rounds = [span.attrs["frontier"] for span in result.trace.spans
                  if "frontier" in span.attrs]
        assert len(rounds) == result.result.iterations
        assert result.trace.counters["frontier_size"] == sum(rounds)

    def test_messages_counter_at_paper_scale(self, graph_small):
        plain = _traced("pagerank", "giraph", graph_small, nodes=2,
                        iterations=2)
        scaled = run(ExperimentSpec("pagerank", "giraph", graph_small, nodes=2,
                                    scale_factor=100.0,
                                    params={"iterations": 2}), trace=Tracer())
        assert scaled.trace.counters["messages"] == pytest.approx(
            100.0 * plain.trace.counters["messages"])


# ---------------------------------------------------------------------------
# Chaos runs: fault/checkpoint/recovery spans are part of the same story


class TestChaosTracing:
    @pytest.fixture(scope="class")
    def chaos_run(self, graph_small):
        return _traced("pagerank", "giraph", graph_small, nodes=4,
                       iterations=4,
                       faults="crash(node=2, superstep=2); drop(p=0.05)",
                       fault_seed=17)

    def test_fault_instants_and_recovery_spans(self, chaos_run):
        tracer = chaos_run.trace
        faults = tracer.spans_named("fault")
        assert any(span.attrs.get("kind") == "node-crash" for span in faults)
        (recovery,) = tracer.spans_named("recovery")
        assert recovery.node == 2           # rendered on node 2's lane
        assert recovery.attrs["superstep"] == 2
        assert recovery.attrs["replay_s"] >= 0
        assert tracer.spans_named("checkpoint")
        assert tracer.counters["faults"] >= 1

    def test_spans_mirror_recovery_stats(self, chaos_run):
        tracer = chaos_run.trace
        stats = chaos_run.recovery
        assert tracer.total_duration("recovery") == pytest.approx(
            stats.recovery_time_s, rel=1e-9)
        assert tracer.total_duration("checkpoint") == pytest.approx(
            stats.checkpoint_time_s, rel=1e-9)
        if stats.messages_dropped:
            assert tracer.counters["messages_dropped"] \
                == stats.messages_dropped

    def test_trace_totals_include_recovery_time(self, chaos_run):
        """The trace-vs-metrics invariant, extended: superstep + tick +
        checkpoint + recovery spans cover the whole simulated clock."""
        tracer = chaos_run.trace
        metrics = chaos_run.metrics()
        stepped = (tracer.total_duration("superstep")
                   + tracer.total_duration("tick")
                   + tracer.total_duration("checkpoint")
                   + tracer.total_duration("recovery"))
        assert stepped == pytest.approx(metrics.total_time_s, rel=1e-9)
        assert tracer.total_duration("recovery") > 0

    def test_chrome_export_carries_fault_events(self, chaos_run):
        doc = json.loads(json.dumps(chrome_trace(chaos_run.trace)))
        names = {event["name"] for event in doc["traceEvents"]}
        assert {"fault", "checkpoint", "recovery"} <= names
        recovery_us = sum(event["dur"] for event in doc["traceEvents"]
                          if event.get("ph") == "X"
                          and event["name"] == "recovery")
        assert recovery_us / 1e6 == pytest.approx(
            chaos_run.recovery.recovery_time_s, rel=1e-9)


# ---------------------------------------------------------------------------
# Exporters


class TestChromeTraceExport:
    @pytest.fixture(scope="class")
    def trace_doc(self, graph_small):
        result = _traced("pagerank", "giraph", graph_small, nodes=2,
                         iterations=2)
        return chrome_trace(result.trace), result

    def test_schema(self, trace_doc):
        doc, _ = trace_doc
        # Round-trips as JSON (no numpy scalars etc. leaking through).
        doc = json.loads(json.dumps(doc))
        assert doc["displayTimeUnit"] == "ms"
        phases = set()
        for event in doc["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(event)
            phases.add(event["ph"])
            if event["ph"] == "X":
                assert event["dur"] >= 0
                assert event["ts"] >= 0
        assert {"M", "X", "C"} <= phases

    def test_durations_and_counters_agree_with_metrics(self, trace_doc):
        doc, result = trace_doc
        metrics = result.metrics()
        us = 1e6
        step_durs = [e["dur"] for e in doc["traceEvents"]
                     if e.get("ph") == "X" and e["name"] in ("superstep",
                                                             "tick")]
        assert sum(step_durs) / us == pytest.approx(metrics.total_time_s,
                                                    rel=1e-9)
        final_bytes = [e["args"]["bytes_sent"] for e in doc["traceEvents"]
                       if e.get("ph") == "C" and e["name"] == "bytes_sent"]
        assert final_bytes[-1] == pytest.approx(metrics.bytes_sent_total,
                                                rel=1e-9)

    def test_node_lanes_are_named(self, trace_doc):
        doc, _ = trace_doc
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["name"] == "thread_name"}
        assert "driver (critical path)" in names
        assert "node 0" in names and "node 1" in names

    def test_steps_csv_rows(self, trace_doc):
        _, result = trace_doc
        lines = steps_csv(result.trace).strip().splitlines()
        header, rows = lines[0], lines[1:]
        assert header.startswith("index,start_s,time_s,compute_s")
        assert len(rows) == len(result.trace.spans_named("superstep"))
        total = sum(float(row.split(",")[2]) for row in rows)
        assert total <= result.metrics().total_time_s + 1e-9

    def test_summary_tree_renders(self, trace_doc):
        _, result = trace_doc
        text = render_summary_tree(result.trace)
        assert "run" in text and "superstep" in text
        assert "counters:" in text and "bytes_sent" in text

    def test_empty_tracer_renders(self):
        assert render_summary_tree(Tracer()) == "(empty trace)"


# ---------------------------------------------------------------------------
# Every framework: traced and untraced


class TestEveryFramework:
    @pytest.mark.parametrize("framework", FRAMEWORKS)
    def test_noop_tracer_path(self, framework, graph_small):
        """The default (no tracer) path must work for every framework."""
        result = run(ExperimentSpec("pagerank", framework, graph_small,
                                    params={"iterations": 2}))
        assert result.ok, result.failure
        assert result.trace is None

    @pytest.mark.parametrize("framework", FRAMEWORKS)
    def test_traced_run_records_spans(self, framework, graph_small):
        result = _traced("pagerank", framework, graph_small, iterations=2)
        tracer = result.trace
        assert tracer.spans_named("run")
        assert tracer.spans_named("superstep")
        assert not tracer.open_spans()
        # Trace and metrics tell the same runtime story, every engine.
        stepped = tracer.total_duration("superstep") \
            + tracer.total_duration("tick")
        assert stepped == pytest.approx(result.metrics().total_time_s,
                                        rel=1e-9)

    def test_tracing_does_not_change_results(self, graph_small):
        plain = run(ExperimentSpec("pagerank", "giraph", graph_small,
                                   params={"iterations": 2}))
        traced = _traced("pagerank", "giraph", graph_small, iterations=2)
        assert plain.runtime() == traced.runtime()
        assert (plain.result.values == traced.result.values).all()

    def test_oom_run_still_closes_spans(self):
        graph = rmat_triangle_graph(scale=8, edge_factor=6, seed=72)
        result = run(ExperimentSpec("triangle_counting", "combblas", graph,
                                    nodes=2, scale_factor=1e9), trace=Tracer())
        assert result.status == "out-of-memory"
        assert not result.trace.open_spans()


# ---------------------------------------------------------------------------
# Harness API symmetry (satellite: RunResult accessors)


class TestRunResultAccessors:
    def test_metrics_raises_on_failure(self, graph_small):
        failed = run(ExperimentSpec("pagerank", "galois", graph_small, nodes=4,
                                    params={"iterations": 2}))
        assert not failed.ok
        with pytest.raises(ReproError):
            failed.metrics()
        with pytest.raises(ReproError):
            failed.runtime()
        assert failed.metrics_or_none() is None
        assert failed.runtime_or_none() is None

    def test_or_none_variants_on_success(self, graph_small):
        result = run(ExperimentSpec("pagerank", "native", graph_small,
                                    params={"iterations": 2}))
        assert result.metrics_or_none() is result.metrics()
        assert result.runtime_or_none() == result.runtime()

    def test_to_dict_is_json_safe(self, graph_small):
        result = run(ExperimentSpec(
            "bfs", "native", graph_small,
            params=default_params("bfs", graph_small)))
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["status"] == "ok"
        assert payload["result"]["metrics"]["total_time_s"] > 0
        assert payload["result"]["values"]["shape"] == \
            [graph_small.num_vertices]

    def test_default_params(self, graph_small):
        assert default_params("pagerank") == {"iterations": 3}
        cf = default_params("collaborative_filtering")
        assert cf == {"iterations": 2, "hidden_dim": 32}
        bfs = default_params("bfs", graph_small)
        assert 0 <= bfs["source"] < graph_small.num_vertices
        assert default_params("triangle_counting") == {}
