"""Performance subsystem: rooflines, gap attribution, advice, host gates.

The one place that explains a run (the cluster only simulates it). Five
parts, all built on the run metrics and calibrated constants the rest
of the package already measures:

* :mod:`~repro.perf.model` — speed-of-light lower bounds per cell and
  achieved-vs-bound ratios (the paper's Table 4 argument, generalized);
* :mod:`~repro.perf.attribution` — exact multiplicative decomposition
  of a framework's gap over native (the Section 5.4 Giraph breakdown),
  and :func:`classify`, the one label for what bound a run;
* :mod:`~repro.perf.advisor` — simulate the Figure 7 what-ifs and rank
  them by predicted speedup;
* :mod:`~repro.perf.baselines` — the host-time gates on the kernel
  backends and the out-of-core ingest (``repro perf kernels``,
  ``repro perf outofcore``);
* :func:`~repro.perf.report.render_timeline` — one run's supersteps as
  ASCII bars, footed by its exact compute / exposed-comm / fixed split,
  :func:`classify`'s label and that label's advice.

The simulated numbers themselves are frozen by ``repro freeze``
(:mod:`repro.harness.freeze`), not here.
"""

from .advisor import advise_cell
from .attribution import AnalysisRequest, analyze, attribute, \
    attribute_cell, classify
from .baselines import (
    OUTOFCORE_BASELINE,
    check_kernel_backends,
    check_outofcore,
    measure_kernel_backends,
    measure_outofcore,
    record_outofcore,
    render_kernel_report,
    render_outofcore_report,
)
from .model import Roofline, roofline_of, roofline_table
from .report import (
    render_advice,
    render_attribution,
    render_roofline,
    render_timeline,
)

__all__ = [
    "AnalysisRequest",
    "OUTOFCORE_BASELINE",
    "Roofline",
    "advise_cell",
    "analyze",
    "attribute",
    "attribute_cell",
    "check_kernel_backends",
    "check_outofcore",
    "classify",
    "measure_kernel_backends",
    "measure_outofcore",
    "record_outofcore",
    "render_advice",
    "render_attribution",
    "render_kernel_report",
    "render_outofcore_report",
    "render_roofline",
    "render_timeline",
    "roofline_of",
    "roofline_table",
]
