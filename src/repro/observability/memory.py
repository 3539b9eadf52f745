"""Process-memory probes: measured RSS instead of asserted budgets.

The out-of-core pipeline's whole claim is "bounded peak RSS", so the
bound has to come from the kernel's accounting, not from summing our
own arrays. Two stdlib-only probes:

* :func:`peak_rss_bytes` — the process high-water mark
  (``ru_maxrss``), sampled once per charged batch of supersteps into the
  tracer's ``peak-rss`` gauge and reported by ``/stats`` and the
  out-of-core demo journal;
* :func:`current_rss_bytes` — the instantaneous resident set from
  ``/proc/self/statm`` (0 where /proc is unavailable).

Note ``ru_maxrss`` includes resident *file* pages, so a run that maps
shard files counts the pages it actually touched — which is exactly the
working set ``memory_budget_mb`` promises to cap.
"""

from __future__ import annotations

import os
import resource
import sys


def peak_rss_bytes() -> int:
    """High-water resident set size of this process, in bytes.

    Prefers ``VmHWM`` from ``/proc/self/status`` because (unlike
    ``ru_maxrss``) it honors :func:`reset_peak_rss`, so long-lived sweep
    workers can report a *per-cell* peak instead of carrying the largest
    earlier cell's spike forever.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, IndexError, ValueError):
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS reports bytes.
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def reset_peak_rss() -> bool:
    """Reset the kernel's peak-RSS counter; True when it took effect.

    Writing ``5`` to ``/proc/self/clear_refs`` rewinds ``VmHWM`` to the
    current resident set (Linux >= 4.0). Elsewhere this is a no-op and
    :func:`peak_rss_bytes` keeps its process-lifetime meaning.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def current_rss_bytes() -> int:
    """Instantaneous resident set size, 0 where /proc is unavailable."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            fields = handle.read().split()
        return int(fields[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return 0


def sample_peak_rss(tracer) -> int:
    """Record the current peak into ``tracer``'s ``peak-rss`` gauge."""
    peak = peak_rss_bytes()
    tracer.gauge_max("peak-rss", peak)
    return peak
