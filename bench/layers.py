"""Per-layer metrics of the traced run, by the names in BENCHMARK.json.

Times are *self* times (so they add up), reported for one cycle of the
workload: the set-up's share plus the per-unit mean over the traced
units. ``datagen`` therefore shows inside the unit on the cold workloads
and inside set-up everywhere else — the placement the README's
prediction table relies on. A layer the workload never enters reads 0.
"""

from __future__ import annotations

import statistics

import numpy as np

from .trace import FAMILY, Summary


def _median_ms(values) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def _steady(m) -> float:
    """Median unit, leaving out the first (it pays one-off warm-up both
    with and without tracing, and only two units may have run)."""
    return statistics.median(m.unit_s[1:] or m.unit_s)


def per_layer(summary: Summary, traced, untraced, probes: dict) -> dict:
    """Every per-layer metric; ``traced``/``untraced`` are the two
    :class:`~bench.measure.Measurement` s of the trace-mode run."""
    units = max(len(traced.unit_s), 1)

    def cycle(getter) -> float:
        return getter("setup") + getter("unit") / units

    def self_s(*prefixes) -> float:
        return cycle(lambda phase: summary.self_s(phase, *prefixes))

    def calls(name) -> float:
        return cycle(lambda phase: summary.row(phase, name).calls)

    def counted(name, key) -> float:
        return cycle(lambda phase: summary.row(phase, name).counts.get(key, 0))

    def rate(name, key) -> float:
        total = sum(summary.row(phase, name).total_s
                    for phase in ("setup", "unit"))
        count = sum(summary.row(phase, name).counts.get(key, 0)
                    for phase in ("setup", "unit"))
        return count / total if total else 0.0

    out = {
        "datagen.rmat_edges_s": self_s("datagen.rmat_edges"),
        "datagen.rmat_edges_per_s": rate("datagen.rmat_edges", "edges"),
        "datagen.ratings_s": self_s("datagen.build.netflix_like_ratings"),
        "datagen.edge_prep_s":
            self_s("datagen.build.")
            - self_s("datagen.build.netflix_like_ratings"),
        "datagen.stream_chunk_s": self_s("datagen.stream_chunk"),
        "datagen.cache_store_s": self_s("datagen.cache_store"),
        "datagen.cache_hit_s": self_s("datagen.cache_hit"),
        "datagen.cache_hits": calls("datagen.cache_hits"),
        "datagen.cache_misses": calls("datagen.cache_misses"),
        "graph.csr_build_s": self_s("graph.csr_build"),
        "graph.csr_build_edges_per_s": rate("graph.csr_build", "edges"),
        "graph.sharded_build_s": self_s("graph.sharded_build"),
        "graph.shard_load_s": self_s("graph.shard_access"),
        "graph.shard_loads": calls("graph.shard_loads"),
        "graph.shard_evictions": calls("graph.shard_evictions"),
        "graph.partition_s": self_s("graph.partition"),
        "graph.partition_calls": calls("graph.partition"),
        "kernels.prepare_s": self_s("kernels.prepare"),
        "kernels.step_s": self_s("kernels.step"),
        "kernels.steps": calls("kernels.step"),
        "kernels.edges": counted("kernels.step", "edges"),
        "kernels.edges_per_s": rate("kernels.step", "edges"),
        "cluster.superstep_s": self_s("cluster.superstep"),
        "cluster.supersteps": calls("cluster.superstep"),
        "cluster.exchange_s": self_s("cluster.exchange"),
        "harness.journal_append_s": self_s("harness.journal_append"),
        "harness.journal_appends": calls("harness.journal_append"),
        "harness.journal_bytes": float(traced.extras.get("journal_bytes", 0)),
        "harness.cell_retries":
            traced.extras.get("cell_retries", 0) / units,
        "harness.run_fixed_ms": _median_ms(traced.extras.get("fixed_s")),
        "harness.journal_replay_s": 0.0,
        "harness.pool_start_s": 0.0,
        "harness.pool_noop_cell_ms": 0.0,
        "harness.pool_restarts":
            traced.extras.get("pool_restarts", 0) / units
            + traced.extras.get("stats", {}).get("pool", {})
            .get("restarts", 0),
        "observability.tracer_on_ratio": 0.0,
        "perf.analyze_s": 0.0,
        "trace_overhead_ratio": _steady(traced) / _steady(untraced),
    }
    for family in sorted(set(FAMILY.values())):
        out[f"frameworks.{family}_self_s"] = \
            self_s(f"frameworks.{family}.run")
    cells = summary.durations("unit", "frameworks.")
    for label in CELL_LABELS:
        out[f"cell.{label}_ms"] = _median_ms(cells.get(label))
    out.update(_serve(summary, traced, probes))
    out.update({name: value for name, value in probes.items()
                if name in out})
    return out


def _serve(summary: Summary, traced, probes: dict) -> dict:
    by_kind = summary.durations("unit", "serve.request.")
    stats = traced.extras.get("stats", {})
    responses = stats.get("responses", {})
    gate = by_kind.get("gate", [])
    return {
        "serve.boot_s": summary.row("setup", "serve.boot").total_s,
        "serve.healthz_ms": _median_ms(by_kind.get("healthz")),
        "serve.stats_ms": _median_ms(by_kind.get("stats")),
        "serve.gate_p99_ms": 1e3 * float(np.percentile(gate, 99)) if gate else 0.0,
        "serve.spec_p50_ms": _median_ms(by_kind.get("spec")),
        # Served gate p50 minus the same cells' in-process run() p50:
        # what HTTP, admission, the job journal and the pool add.
        "serve.overhead_ms":
            _median_ms(gate) - probes["in_process_gate_p50_ms"]
            if "in_process_gate_p50_ms" in probes else 0.0,
        "serve.shed_503": float(responses.get("503", 0)),
        "serve.responses_5xx": float(sum(
            count for code, count in responses.items()
            if code.startswith("5"))),
        "serve.pinned_hits": float(
            stats.get("cache", {}).get("hits", {}).get("pinned", 0)),
    }


def _cell_labels() -> list:
    from repro.algorithms.registry import ALGORITHMS

    from .workloads import HotCells

    return [f"{algorithm}.{framework}" for algorithm in ALGORITHMS
            for framework, _nodes in HotCells.FRAMEWORKS]


CELL_LABELS = _cell_labels()
