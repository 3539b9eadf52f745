"""Run metrics: the quantities the paper measures with sar/sysstat.

Figure 6 characterizes every framework by four system-level metrics —
CPU utilization, peak achieved network bandwidth, memory footprint and
network bytes sent. :class:`RunMetrics` carries exactly those, plus the
runtime breakdown used for Tables 4-6, all extracted from the simulator's
per-superstep reports.

The counted-work totals (``ops_total``, ``streamed_bytes_total``,
``random_bytes_total``) and the fixed-cost split (``overhead_time_s``,
``tick_time_s``, ``charged_time_s``) exist for ``repro.perf``: the
roofline model derives speed-of-light lower bounds from the counted
work, and gap attribution needs the critical path decomposed into
compute, exposed communication and fixed overhead *exactly* (the three
components always sum to ``total_time_s``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np


@dataclass
class StepRecord:
    """One superstep as observed by the monitor."""

    index: int
    time_s: float
    compute_s: float            # slowest node's compute time
    comm_s: float               # slowest node's communication time
    bytes_sent: float           # wire bytes, all nodes
    peak_bandwidth: float       # bytes/s while transferring (0 if no traffic)
    memory_s: float = 0.0       # slowest node's memory half of compute
    cpu_s: float = 0.0          # slowest node's ALU half of compute
    overhead_s: float = 0.0     # fixed framework barrier/scheduling cost
    overlap: bool = False       # whether comm hid under compute this step


@dataclass
class RunMetrics:
    """Aggregated observables of one run on the simulated cluster."""

    num_nodes: int
    total_time_s: float = 0.0
    busy_core_seconds: float = 0.0     # sum over nodes of busy time x cores used
    total_core_seconds: float = 0.0    # nodes x cores x elapsed
    bytes_sent_total: float = 0.0
    memory_bytes_total: float = 0.0    # DRAM bytes touched, all nodes
    peak_network_bandwidth: float = 0.0
    memory_footprint_bytes: float = 0.0    # max over nodes, extrapolated
    iteration_times: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    compute_time_s: float = 0.0        # critical-path compute
    comm_time_s: float = 0.0           # critical-path communication
    # -- counted work (paper scale), inputs to the perf roofline ----------
    ops_total: float = 0.0             # scalar ops, all nodes
    streamed_bytes_total: float = 0.0  # sequential DRAM bytes, all nodes
    random_bytes_total: float = 0.0    # irregular DRAM bytes, all nodes
    # -- the same counters per node (np arrays, shape (num_nodes,)); the
    # -- roofline's critical-node floors come from these. None when the
    # -- metrics were built by hand without them.
    node_streamed_bytes: object = None
    node_random_bytes: object = None
    node_ops: object = None
    node_bytes_sent: object = None
    # -- critical-path split of compute into its two halves ---------------
    memory_time_s: float = 0.0         # sum of per-step memory-time maxima
    cpu_time_s: float = 0.0            # sum of per-step ALU-time maxima
    # -- fixed (unscaled) costs, split by origin ---------------------------
    overhead_time_s: float = 0.0       # per-superstep barrier/scheduling
    tick_time_s: float = 0.0           # startup / I/O ticks
    charged_time_s: float = 0.0        # out-of-band charges (recovery)

    _over_busy_warned: bool = field(default=False, repr=False, compare=False)

    # -- Figure 6 metrics -------------------------------------------------

    @property
    def raw_cpu_utilization(self) -> float:
        """Busy/capacity core-seconds, unclamped.

        Can legitimately exceed 1.0 only when the accounting is wrong
        (busy time charged outside the elapsed window); exposing the raw
        ratio is what lets a test or a perf analysis *see* that instead
        of having it silently clamped away.
        """
        if self.total_core_seconds == 0:
            return 0.0
        return self.busy_core_seconds / self.total_core_seconds

    @property
    def cpu_utilization(self) -> float:
        """Fraction of cluster CPU capacity that was busy, in [0, 1].

        Reads over 100% utilization are an accounting bug, not a
        physical possibility — warn once per run (the raw ratio stays
        available as :attr:`raw_cpu_utilization`) and clamp.
        """
        raw = self.raw_cpu_utilization
        if raw > 1.0 + 1e-9 and not self._over_busy_warned:
            self._over_busy_warned = True
            warnings.warn(
                f"cpu accounting exceeds capacity: busy "
                f"{self.busy_core_seconds:.3g} core-seconds vs "
                f"{self.total_core_seconds:.3g} available "
                f"(raw utilization {raw:.3f}); reporting 1.0",
                RuntimeWarning, stacklevel=2,
            )
        return min(raw, 1.0)

    @property
    def bytes_sent_per_node(self) -> float:
        return self.bytes_sent_total / self.num_nodes

    @property
    def average_network_bandwidth(self) -> float:
        """Sustained send rate per node over the whole run (Table 4)."""
        if self.total_time_s == 0:
            return 0.0
        return self.bytes_sent_per_node / self.total_time_s

    @property
    def achieved_memory_bandwidth(self) -> float:
        """Sustained DRAM bytes/s per node over the whole run (Table 4)."""
        if self.total_time_s == 0:
            return 0.0
        return self.memory_bytes_total / self.num_nodes / self.total_time_s

    # -- runtime breakdown --------------------------------------------------

    @property
    def num_iterations(self) -> int:
        return len(self.iteration_times)

    @property
    def time_per_iteration_s(self) -> float:
        if not self.iteration_times:
            return self.total_time_s
        return float(np.mean(self.iteration_times))

    @property
    def network_fraction(self) -> float:
        """Share of the critical path spent communicating."""
        denominator = self.compute_time_s + self.comm_time_s
        if denominator == 0:
            return 0.0
        return self.comm_time_s / denominator

    # -- exact critical-path decomposition (repro.perf) ---------------------

    @property
    def fixed_time_s(self) -> float:
        """Data-size-independent seconds: barriers, startup, recovery."""
        return self.overhead_time_s + self.tick_time_s + self.charged_time_s

    @property
    def exposed_comm_time_s(self) -> float:
        """Communication seconds *not* hidden under computation.

        Exact by construction: every superstep contributes
        ``combined - compute_max`` where ``combined`` is ``max`` (overlap)
        or ``sum`` (serial) of the slowest node's compute and comm, so
        ``compute + exposed_comm + fixed == total_time_s``.
        """
        return max(self.total_time_s - self.compute_time_s
                   - self.fixed_time_s, 0.0)

    def bound_by(self) -> str:
        """'network' or 'memory': the dominant hardware limit (Table 4)."""
        return "network" if self.comm_time_s > self.compute_time_s else "memory"

    def summary(self) -> dict:
        """Plain-dict snapshot used by the report renderers."""
        return {
            "num_nodes": self.num_nodes,
            "total_time_s": self.total_time_s,
            "time_per_iteration_s": self.time_per_iteration_s,
            "num_iterations": self.num_iterations,
            "cpu_utilization": self.cpu_utilization,
            "peak_network_bandwidth": self.peak_network_bandwidth,
            "average_network_bandwidth": self.average_network_bandwidth,
            "bytes_sent_per_node": self.bytes_sent_per_node,
            "memory_footprint_bytes": self.memory_footprint_bytes,
            "network_fraction": self.network_fraction,
            "bound_by": self.bound_by(),
        }
