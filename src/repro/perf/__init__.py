"""Performance subsystem: rooflines, gap attribution, advice, gating.

Four parts, all built on the run metrics and calibrated constants the
rest of the package already measures:

* :mod:`~repro.perf.model` — speed-of-light lower bounds per cell and
  achieved-vs-bound ratios (the paper's Table 4 argument, generalized);
* :mod:`~repro.perf.attribution` — exact multiplicative decomposition
  of a framework's gap over native (the Section 5.4 Giraph breakdown);
* :mod:`~repro.perf.advisor` — simulate the Figure 7 what-ifs and rank
  them by predicted speedup;
* :mod:`~repro.perf.baselines` — record deterministic per-cell runtimes
  to ``BENCH_*.json`` and fail on regressions (``repro perf baseline``).
"""

from .advisor import WHAT_IFS, Advice, advise, advise_cell
from .attribution import Analysis, AnalysisRequest, GapAttribution, \
    GapFactor, analyze, attribute, attribute_cell, classify
from .baselines import (
    DEFAULT_BASELINE,
    DEFAULT_TOLERANCE,
    GATE_FRAMEWORKS,
    GATE_NODE_COUNTS,
    KERNEL_REPORT_SUBSET,
    OUTOFCORE_BASELINE,
    OUTOFCORE_MIN_RATIO,
    OUTOFCORE_SUBSET,
    CellCheck,
    GateReport,
    cell_key,
    check,
    check_kernel_backends,
    check_outofcore,
    load_baseline,
    measure_cells,
    measure_kernel_backends,
    measure_outofcore,
    parse_injection,
    record,
    record_outofcore,
    render_kernel_report,
    render_outofcore_report,
)
from .model import Roofline, roofline_of, roofline_table
from .report import (
    render_advice,
    render_attribution,
    render_gate,
    render_roofline,
)

__all__ = [
    "Advice",
    "Analysis",
    "AnalysisRequest",
    "CellCheck",
    "DEFAULT_BASELINE",
    "DEFAULT_TOLERANCE",
    "GATE_FRAMEWORKS",
    "GATE_NODE_COUNTS",
    "GapAttribution",
    "GapFactor",
    "GateReport",
    "KERNEL_REPORT_SUBSET",
    "OUTOFCORE_BASELINE",
    "OUTOFCORE_MIN_RATIO",
    "OUTOFCORE_SUBSET",
    "Roofline",
    "WHAT_IFS",
    "advise",
    "advise_cell",
    "analyze",
    "attribute",
    "attribute_cell",
    "cell_key",
    "check",
    "check_kernel_backends",
    "check_outofcore",
    "classify",
    "load_baseline",
    "measure_cells",
    "measure_kernel_backends",
    "measure_outofcore",
    "parse_injection",
    "record",
    "record_outofcore",
    "render_advice",
    "render_attribution",
    "render_gate",
    "render_kernel_report",
    "render_outofcore_report",
    "render_roofline",
    "roofline_of",
    "roofline_table",
]
