"""Analytic cost model: counted work -> seconds on the paper's hardware.

The paper's Section 5.4 validates exactly this style of model: "network
bytes sent / peak network bandwidth" predicts framework slowdowns within
2.5x, and "bandwidth bound code will need to estimate the number of
reads/writes and scale it with the memory footprint". We apply the model
symmetrically:

* memory time = streamed bytes / streaming bandwidth
              + random bytes / random-access bandwidth,
* cpu time    = ops / (cores x frequency x IPC x efficiency),
* compute time = max(memory, cpu) — superscalar cores overlap the two,
* communication time comes from :class:`~repro.cluster.network.Fabric`,
* a superstep either overlaps compute with communication (max) or
  serializes them (sum), matching the paper's "Overlap of Computation
  and Communication" optimization (Section 6.1.1).

Software prefetching (Section 6.1.2, Figure 7) is modeled as raising the
effective random-access bandwidth: prefetches hide DRAM latency by
keeping more misses in flight, which is precisely why the paper's
PageRank gather of remote ranks speeds up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SimulationError
from .hardware import NodeSpec

#: Measured benefit of software prefetching on dependent random loads —
#: calibrated so the Figure 7 prefetch bars land in the paper's range.
PREFETCH_RANDOM_SPEEDUP = 3.0

#: DRAM moves whole cache lines: an 8-byte gather from a cold line still
#: costs 64 bytes of bandwidth. The paper's native PageRank rate
#: (640M edges/s/node at 78 GB/s, i.e. ~122 bytes per edge) only makes
#: sense under line-granular gather accounting, so every engine in this
#: package charges gathers at this granularity.
CACHE_LINE_BYTES = 64.0


@dataclass
class ComputeWork:
    """Counted compute work of one node in one superstep."""

    streamed_bytes: float = 0.0
    random_bytes: float = 0.0
    ops: float = 0.0
    #: Software efficiency vs tuned native code (framework profile).
    cpu_efficiency: float = 1.0
    #: Fraction of the node's cores doing work (e.g. Giraph: 4/24).
    cores_fraction: float = 1.0
    #: Whether this work issues software prefetches for random accesses.
    prefetch: bool = False
    #: Fraction of the node's memory parallelism available to this work.
    #: Few threads cannot keep enough misses in flight to saturate DRAM;
    #: bandwidth scales ~parallelism^0.7 at low thread counts. 1.0 for
    #: fully-threaded engines; Giraph's 4-of-24 workers set this low.
    memory_parallelism: float = 1.0

    def __post_init__(self):
        if min(self.streamed_bytes, self.random_bytes, self.ops) < 0:
            raise ValueError("work counters must be non-negative")

    def scaled(self, factor: float) -> "ComputeWork":
        """The same work at ``factor`` times the data size."""
        return ComputeWork(
            streamed_bytes=self.streamed_bytes * factor,
            random_bytes=self.random_bytes * factor,
            ops=self.ops * factor,
            cpu_efficiency=self.cpu_efficiency,
            cores_fraction=self.cores_fraction,
            prefetch=self.prefetch,
            memory_parallelism=self.memory_parallelism,
        )

    def merged(self, other: "ComputeWork") -> "ComputeWork":
        """Combine two pieces of work on the same node (same settings)."""
        return ComputeWork(
            streamed_bytes=self.streamed_bytes + other.streamed_bytes,
            random_bytes=self.random_bytes + other.random_bytes,
            ops=self.ops + other.ops,
            cpu_efficiency=min(self.cpu_efficiency, other.cpu_efficiency),
            cores_fraction=min(self.cores_fraction, other.cores_fraction),
            prefetch=self.prefetch and other.prefetch,
            memory_parallelism=min(self.memory_parallelism,
                                   other.memory_parallelism),
        )


@dataclass
class CostModel:
    """Node-level time accounting."""

    node: NodeSpec = field(default_factory=NodeSpec)

    def charge(self, work: ComputeWork, factor: float = 1.0) -> tuple:
        """``work`` at ``factor`` times the data size, counted and costed.

        Returns ``(streamed_bytes, random_bytes, ops, memory_s, cpu_s)``
        — the counters ``work.scaled(factor)`` would carry and the two
        times they cost — without building the copy; like the copy's
        constructor it refuses a counter that was mutated negative.
        """
        streamed = work.streamed_bytes * factor
        random = work.random_bytes * factor
        ops = work.ops * factor
        if min(streamed, random, ops) < 0:
            raise SimulationError("work counters must be non-negative")
        scale = work.memory_parallelism ** 0.7
        random_bw = self.node.random_bandwidth * scale
        if work.prefetch:
            random_bw = min(random_bw * PREFETCH_RANDOM_SPEEDUP,
                            self.node.stream_bandwidth * scale)
        memory_s = (streamed / (self.node.stream_bandwidth * scale)
                    + random / random_bw)
        cpu_s = 0.0 if ops == 0 else ops / self.node.compute_rate(
            work.cpu_efficiency, work.cores_fraction)
        return streamed, random, ops, memory_s, cpu_s

    def memory_time(self, work: ComputeWork) -> float:
        return self.charge(work)[3]

    def cpu_time(self, work: ComputeWork) -> float:
        return self.charge(work)[4]

    def compute_time(self, work: ComputeWork) -> float:
        """Max of memory and CPU time: cores overlap loads with ALU work."""
        return max(self.charge(work)[3:])

    def bound_by(self, work: ComputeWork) -> str:
        """Which resource limits this work ('memory' or 'cpu')."""
        return "memory" if self.memory_time(work) >= self.cpu_time(work) else "cpu"

    # -- speed-of-light floors (repro.perf roofline) ------------------------
    #
    # Same formulas as memory_time/cpu_time but with every software knob
    # at its physical best: all cores, full efficiency and memory
    # parallelism, prefetch on. For any ComputeWork carrying these byte
    # and op counts, memory_time(work) >= memory_floor_s(...) and
    # cpu_time(work) >= cpu_floor_s(...) — the roofline ratio is >= 1 by
    # construction.

    def memory_floor_s(self, streamed_bytes: float,
                       random_bytes: float) -> float:
        """Minimum DRAM seconds to move the given bytes on one node."""
        best_random = min(self.node.random_bandwidth * PREFETCH_RANDOM_SPEEDUP,
                          self.node.stream_bandwidth)
        return (streamed_bytes / self.node.stream_bandwidth
                + random_bytes / best_random)

    def cpu_floor_s(self, ops: float) -> float:
        """Minimum ALU seconds for the given ops on one node."""
        if ops == 0:
            return 0.0
        return ops / self.node.compute_rate(1.0, 1.0)

    @staticmethod
    def step_time(compute_s: float, comm_s: float, overlap: bool) -> float:
        """Combine compute and communication for one node's superstep."""
        if compute_s < 0 or comm_s < 0:
            raise ValueError("times must be non-negative")
        return max(compute_s, comm_s) if overlap else compute_s + comm_s
