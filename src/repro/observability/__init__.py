"""Flight-recorder observability: spans, counters and trace exporters.

The paper's methodology (Section 5.4) explains end-to-end runtimes from
system-level observables. This package is the substrate that records
those observables *as they happen* instead of only as end-of-run
aggregates: a :class:`Tracer` collects nestable spans (``superstep``,
``compute``, ``comm``, ``gather/apply/scatter``, ``spmv``,
``rule-eval``) and named counters (``bytes_sent``, ``messages``,
``frontier_size``) on the simulator's clock, and the exporters turn a
recorded run into Chrome ``trace_event`` JSON (``chrome://tracing`` /
Perfetto), a flat per-superstep CSV, or a terminal summary tree.

Tracing is zero-overhead by default: every instrumented call site holds
a :data:`NULL_TRACER` whose methods are no-ops; passing
``run(spec, trace=Tracer())`` swaps in the recording one.
"""

from .export import (
    chrome_trace,
    render_summary_tree,
    steps_csv,
    write_chrome_trace,
)
from .memory import (
    current_rss_bytes,
    peak_rss_bytes,
    reset_peak_rss,
    sample_peak_rss,
)
from .tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "chrome_trace",
    "current_rss_bytes",
    "peak_rss_bytes",
    "render_summary_tree",
    "reset_peak_rss",
    "sample_peak_rss",
    "steps_csv",
    "write_chrome_trace",
]
