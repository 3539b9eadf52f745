"""Trace exporters: Chrome ``trace_event`` JSON, flat CSV, summary tree.

* :func:`chrome_trace` — the Trace Event Format consumed by
  ``chrome://tracing`` and https://ui.perfetto.dev: complete (``"X"``)
  events for spans, counter (``"C"``) tracks for counters, instant
  (``"i"``) events for markers, plus metadata naming the lanes. The
  simulated cluster maps to one process; tid 0 is the driver/critical
  path and tid ``n + 1`` is simulated node *n*.
* :func:`steps_csv` — one row per ``superstep`` span, the flat record
  the paper's per-superstep analysis plots from.
* :func:`render_summary_tree` — terminal tree of span names aggregated
  by call path, with counts, total simulated seconds and counters.
"""

from __future__ import annotations

import io
import json

from .tracer import Span, Tracer

_US = 1e6     # trace_event timestamps are microseconds


def _tid(span: Span) -> int:
    return 0 if span.node is None else span.node + 1


def chrome_trace(tracer: Tracer, process_name: str = "repro-sim") -> dict:
    """The tracer's contents as a Trace Event Format dict."""
    events = [{
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": process_name},
    }, {
        "name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": "driver (critical path)"},
    }]
    named_nodes = sorted({span.node for span in tracer.spans
                          if span.node is not None})
    for node in named_nodes:
        events.append({
            "name": "thread_name", "ph": "M", "pid": 0, "tid": node + 1,
            "args": {"name": f"node {node}"},
        })

    for span in tracer.spans:
        if span.end_s is None:
            continue
        if span.duration_s == 0.0 and not span.attrs.get("_span", False):
            events.append({
                "name": span.name, "ph": "i", "s": "t",
                "ts": span.start_s * _US, "pid": 0, "tid": _tid(span),
                "args": dict(span.attrs),
            })
        else:
            events.append({
                "name": span.name, "ph": "X",
                "ts": span.start_s * _US, "dur": span.duration_s * _US,
                "pid": 0, "tid": _tid(span),
                "args": dict(span.attrs),
            })

    for timestamp, name, total in tracer.counter_samples:
        events.append({
            "name": name, "ph": "C", "ts": timestamp * _US,
            "pid": 0, "tid": 0, "args": {name: total},
        })

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated-seconds",
                      "counters": dict(tracer.counters)},
    }


def write_chrome_trace(tracer: Tracer, path,
                       process_name: str = "repro-sim") -> None:
    """Serialize :func:`chrome_trace` to ``path`` as JSON (atomically)."""
    from ..harness.persistence import atomic_write_text

    atomic_write_text(path, json.dumps(chrome_trace(tracer, process_name)))


def steps_csv(tracer: Tracer) -> str:
    """Flat CSV of per-superstep records extracted from the trace."""
    columns = ("index", "start_s", "time_s", "compute_s", "comm_s",
               "bytes_sent", "peak_bandwidth", "overhead_s")
    out = io.StringIO()
    out.write(",".join(columns) + "\n")
    for span in tracer.spans_named("superstep"):
        if span.end_s is None:
            continue
        attrs = span.attrs
        row = (attrs.get("index", ""), f"{span.start_s:.9g}",
               f"{span.duration_s:.9g}",
               f"{attrs.get('compute_s', 0.0):.9g}",
               f"{attrs.get('comm_s', 0.0):.9g}",
               f"{attrs.get('bytes_sent', 0.0):.9g}",
               f"{attrs.get('peak_bandwidth', 0.0):.9g}",
               f"{attrs.get('overhead_s', 0.0):.9g}")
        out.write(",".join(str(cell) for cell in row) + "\n")
    return out.getvalue()


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}us"


def render_summary_tree(tracer: Tracer, max_depth: int = None) -> str:
    """Aggregate spans by call path into an indented terminal tree.

    Spans sharing the same path of names fold into one line with a call
    count and total simulated duration; counters print at the bottom.
    """
    paths: dict[tuple, list] = {}     # name path -> [count, total_s]
    span_paths: list[tuple] = []
    for span in tracer.spans:
        parent_path = span_paths[span.parent] if span.parent is not None \
            else ()
        path = parent_path + (span.name,)
        span_paths.append(path)
        if span.end_s is None:
            continue
        entry = paths.setdefault(path, [0, 0.0])
        entry[0] += 1
        entry[1] += span.duration_s

    if not paths and not tracer.counters:
        return "(empty trace)"

    # Depth-first over the path trie, in first-seen order at each level.
    order = list(paths)
    lines = []
    name_width = max((2 * (len(p) - 1) + len(p[-1]) for p in paths),
                     default=4) + 2

    def _walk(prefix: tuple) -> None:
        seen = []
        for path in order:
            if len(path) == len(prefix) + 1 and path[:-1] == prefix \
                    and path not in seen:
                seen.append(path)
        for path in seen:
            if max_depth is not None and len(path) > max_depth:
                continue
            count, total = paths[path]
            indent = "  " * (len(path) - 1)
            label = f"{indent}{path[-1]}"
            lines.append(f"{label:<{name_width}} x{count:<6} "
                         f"{_format_seconds(total):>10}")
            _walk(path)

    _walk(())
    if tracer.counters:
        lines.append("counters:")
        for name in sorted(tracer.counters):
            value = tracer.counters[name]
            rendered = f"{value:,.0f}" if value == int(value) \
                else f"{value:,.3f}"
            lines.append(f"  {name:<24} {rendered}")
    return "\n".join(lines)
