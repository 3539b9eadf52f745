"""The simulated cluster: barriers, message exchange, byte counting.

Engines drive a :class:`Cluster` superstep by superstep: they hand over
per-node :class:`~repro.cluster.cost.ComputeWork` counters and a
node-to-node traffic matrix of *payload* bytes, and the cluster advances
a simulated wall clock using the cost model, the framework's
communication layer and (optionally) compute/communication overlap. All
Figure 6 observables accumulate as a side effect.

Scale extrapolation: experiments run on downscaled proxy datasets but
report paper-scale numbers. The cluster multiplies every counter (work,
traffic, memory) by ``scale_factor`` = paper size / proxy size at
accounting time, so the engines stay oblivious. Per-superstep *fixed*
costs (communication latency, framework barrier overhead) are *not*
scaled — that is what makes, e.g., Giraph's per-superstep Hadoop overhead
dominate BFS exactly as in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..chaos.recovery import FAIL_FAST, RecoveryStats
from ..errors import DeadlineExceeded, NodeFailure, SimulationError
from ..observability import NULL_TRACER, sample_peak_rss
from .cost import ComputeWork, CostModel
from .hardware import ClusterSpec
from .memory import MemoryTracker
from .metrics import RunMetrics, StepRecord
from .network import MPI, CommLayer, Fabric, TrafficReport


@dataclass
class StepReport:
    """Outcome of one superstep, visible to engines."""

    index: int
    time_s: float
    compute_times: np.ndarray
    comm_times: np.ndarray
    traffic: TrafficReport


class Cluster:
    """A running simulation on ``spec.num_nodes`` nodes."""

    def __init__(self, spec: ClusterSpec, comm_layer: CommLayer = MPI,
                 scale_factor: float = 1.0, enforce_memory: bool = True,
                 tracer=None, faults=None, recovery=None,
                 deadline_s: float = None):
        if scale_factor <= 0:
            raise SimulationError("scale_factor must be positive")
        if deadline_s is not None and deadline_s <= 0:
            raise SimulationError("deadline_s must be positive")
        self.spec = spec
        self.comm_layer = comm_layer
        self.scale_factor = float(scale_factor)
        self.cost = CostModel(spec.node)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.bind_clock(lambda: self._elapsed)
        self.fabric = Fabric(spec.node, spec.num_nodes, tracer=self.tracer)
        self._memory = [
            MemoryTracker(i, spec.node.dram_bytes, scale_factor, enforce_memory)
            for i in range(spec.num_nodes)
        ]
        self._elapsed = 0.0
        self._steps = 0
        # Per-run time budget on the simulated clock: the moment
        # ``_elapsed`` crosses it, the run stops with DeadlineExceeded —
        # the paper-style DNF for cells that would run "too long".
        self.deadline_s = deadline_s
        self._iteration_started_at = 0.0
        self._metrics = RunMetrics(
            num_nodes=spec.num_nodes,
            node_streamed_bytes=np.zeros(spec.num_nodes),
            node_random_bytes=np.zeros(spec.num_nodes),
            node_ops=np.zeros(spec.num_nodes),
            node_bytes_sent=np.zeros(spec.num_nodes),
        )
        # -- chaos: fault schedule + recovery protocol ---------------------
        # ``faults`` is a repro.chaos.FaultSchedule (or None: the happy
        # path, with zero chaos overhead). ``recovery`` is the framework's
        # RecoveryPolicy; with faults but no policy the cluster fails fast.
        self.faults = faults
        if recovery is None and faults is not None:
            recovery = FAIL_FAST
        self.recovery = recovery
        if faults is not None:
            faults.validate(spec.num_nodes)
        self._recovery_stats = RecoveryStats()
        self._since_checkpoint_s = 0.0
        self._checkpoint_state_bytes = 0.0   # per-node max, paper scale

    # -- basic accessors -----------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self.spec.num_nodes

    @property
    def elapsed_s(self) -> float:
        return self._elapsed

    def memory(self, node_id: int) -> MemoryTracker:
        return self._memory[node_id]

    # -- memory convenience ----------------------------------------------------

    def allocate(self, node_id: int, label: str, nbytes: float) -> None:
        self._memory[node_id].allocate(label, nbytes)

    def allocate_all(self, label: str, nbytes) -> None:
        """Allocate on every node; ``nbytes`` is scalar or per-node list."""
        sizes = np.broadcast_to(np.asarray(nbytes, dtype=np.float64),
                                (self.num_nodes,))
        for node_id, size in enumerate(sizes):
            self._memory[node_id].allocate(label, float(size))

    # -- time advancement --------------------------------------------------------

    def _normalize_work(self, work) -> list:
        if work is None:
            return [ComputeWork() for _ in range(self.num_nodes)]
        if isinstance(work, ComputeWork):
            return [work] * self.num_nodes
        work = list(work)
        if len(work) != self.num_nodes:
            raise SimulationError(
                f"expected {self.num_nodes} work entries, got {len(work)}"
            )
        return work

    def superstep(self, work=None, traffic=None, overlap: bool = False,
                  layer: CommLayer = None, overhead_s: float = 0.0) -> StepReport:
        """Advance the cluster by one bulk-synchronous superstep.

        ``work`` — per-node :class:`ComputeWork` (or one shared instance);
        ``traffic`` — payload bytes, shape ``(P, P)``, ``traffic[i, j]``
        from node *i* to node *j*; ``overlap`` — hide communication under
        computation; ``overhead_s`` — unscaled fixed cost (framework
        barrier/scheduling). The step lasts as long as its slowest node
        (BSP barrier semantics).
        """
        if overhead_s < 0:
            raise SimulationError("overhead_s must be non-negative")
        layer = layer or self.comm_layer
        step_index = self._steps
        step_faults = None
        if self.faults is not None:
            retry = self.recovery.retry if self.recovery is not None else None
            step_faults = self.faults.at(step_index, self.num_nodes, retry)
        if self.recovery is not None \
                and self.recovery.checkpoint_due(step_index):
            self._write_checkpoint(step_index)
        work = self._normalize_work(work)
        # One pass over the nodes: each node's counters at paper scale
        # and what they cost, as five per-node rows.
        streamed_bytes, random_bytes, ops, memory_times, cpu_times = \
            np.array(list(zip(*[self.cost.charge(w, self.scale_factor)
                                for w in work])))
        compute_times = np.maximum(memory_times, cpu_times)
        if step_faults is not None and step_faults.compute_factors is not None:
            memory_times = memory_times * step_faults.compute_factors
            cpu_times = cpu_times * step_faults.compute_factors
            compute_times = compute_times * step_faults.compute_factors

        if traffic is None:
            traffic = np.zeros((self.num_nodes, self.num_nodes))
        report = self.fabric.exchange(
            np.asarray(traffic, dtype=np.float64) * self.scale_factor, layer,
            disruption=step_faults.disruption if step_faults is not None
            else None,
        )

        # Every reduction of the step, once: the metrics, the step
        # record and the span below all read these.
        node_times = np.maximum(compute_times, report.comm_times) \
            if overlap else compute_times + report.comm_times
        step_time = float(node_times.max()) + overhead_s
        compute_s = float(compute_times.max())
        comm_s = float(report.comm_times.max())
        memory_s = float(memory_times.max())
        cpu_s = float(cpu_times.max())
        streamed_total = float(streamed_bytes.sum())
        random_total = float(random_bytes.sum())
        ops_total = float(ops.sum())
        if not math.isfinite(step_time + streamed_total + random_total
                             + ops_total + report.total_bytes):
            raise SimulationError(
                f"superstep {step_index}: work, traffic and overhead must "
                f"be finite")

        # -- bookkeeping ----------------------------------------------------
        cores = self.spec.node.cores
        metrics = self._metrics
        metrics.total_time_s += step_time
        metrics.compute_time_s += compute_s
        metrics.comm_time_s += comm_s
        metrics.busy_core_seconds += sum(
            busy_s * w.cores_fraction * cores
            for busy_s, w in zip(compute_times.tolist(), work))
        metrics.total_core_seconds += step_time * self.num_nodes * cores
        metrics.bytes_sent_total += report.total_bytes
        metrics.memory_bytes_total += streamed_total + random_total
        metrics.ops_total += ops_total
        metrics.streamed_bytes_total += streamed_total
        metrics.random_bytes_total += random_total
        metrics.node_streamed_bytes += streamed_bytes
        metrics.node_random_bytes += random_bytes
        metrics.node_ops += ops
        metrics.node_bytes_sent += report.bytes_out
        metrics.memory_time_s += memory_s
        metrics.cpu_time_s += cpu_s
        metrics.overhead_time_s += overhead_s
        metrics.peak_network_bandwidth = max(
            metrics.peak_network_bandwidth, report.peak_bandwidth
        )
        metrics.steps.append(StepRecord(
            index=step_index, time_s=step_time, compute_s=compute_s,
            comm_s=comm_s, bytes_sent=report.total_bytes,
            peak_bandwidth=report.peak_bandwidth, memory_s=memory_s,
            cpu_s=cpu_s, overhead_s=overhead_s, overlap=overlap,
        ))

        tracer = self.tracer
        if tracer.enabled:
            start = self._elapsed
            with tracer.span("superstep", index=step_index,
                             compute_s=compute_s, comm_s=comm_s,
                             bytes_sent=report.total_bytes,
                             peak_bandwidth=report.peak_bandwidth,
                             overhead_s=overhead_s):
                for node in range(self.num_nodes):
                    if compute_times[node] > 0:
                        tracer.record("compute", start,
                                      float(compute_times[node]), node=node)
                    if report.comm_times[node] > 0:
                        # Overlapped communication hides under compute;
                        # otherwise it follows it (BSP phase order).
                        comm_start = start if overlap \
                            else start + float(compute_times[node])
                        tracer.record("comm", comm_start,
                                      float(report.comm_times[node]),
                                      node=node,
                                      bytes_out=float(report.bytes_out[node]))
                self._elapsed += step_time
            # Superstep boundaries are where working sets turn over
            # (frontier gathers, partition loads), so they are where the
            # out-of-core memory claims get *measured*.
            sample_peak_rss(tracer)
        else:
            self._elapsed += step_time
        self._steps += 1
        self._since_checkpoint_s += step_time
        self._check_deadline(f"superstep {step_index}")

        if step_faults is not None:
            self._apply_step_faults(step_index, step_faults, report)
        return StepReport(step_index, step_time, compute_times,
                          report.comm_times, report)

    def _check_deadline(self, what: str = "") -> None:
        """Stop the run once the simulated clock passes its budget."""
        if self.deadline_s is not None and self._elapsed > self.deadline_s:
            self.tracer.instant("deadline-exceeded",
                                budget_s=self.deadline_s,
                                elapsed_s=self._elapsed)
            raise DeadlineExceeded(self.deadline_s, self._elapsed, what)

    # -- fault injection and recovery ---------------------------------------

    def _charge(self, seconds: float) -> None:
        """Advance the clock by an already-recorded out-of-band cost."""
        self._elapsed += seconds
        self._metrics.total_time_s += seconds
        self._metrics.charged_time_s += seconds
        self._metrics.total_core_seconds += (
            seconds * self.num_nodes * self.spec.node.cores
        )
        self._check_deadline("recovery accounting")

    def _write_checkpoint(self, superstep: int) -> None:
        """Checkpoint every node's live state to simulated disk."""
        policy = self.recovery
        per_node = [tracker.used_bytes for tracker in self._memory]
        largest = max(per_node)
        write_s = largest / self.spec.node.disk_bandwidth \
            + policy.checkpoint_overhead_s
        self.tracer.record("checkpoint", self._elapsed, write_s,
                           superstep=superstep, bytes=float(sum(per_node)))
        self._charge(write_s)
        stats = self._recovery_stats
        stats.checkpoints_written += 1
        stats.checkpoint_bytes += float(sum(per_node))
        stats.checkpoint_time_s += write_s
        self._checkpoint_state_bytes = largest
        self._since_checkpoint_s = 0.0

    def _apply_step_faults(self, superstep: int, step_faults, report) -> None:
        """Book transient-fault costs, then resolve crashes."""
        stats = self._recovery_stats
        tracer = self.tracer
        for event in step_faults.events:
            stats.faults_injected += 1
            stats.events.append(dict(event))
            tracer.instant("fault", **event)
            tracer.count("faults")
        info = report.faults
        if info is not None and (info["messages_dropped"]
                                 or info["messages_corrupted"]
                                 or info["blocked_pairs"]):
            stats.faults_injected += 1
            stats.messages_dropped += info["messages_dropped"]
            stats.messages_corrupted += info["messages_corrupted"]
            stats.retransmitted_bytes += info["retransmitted_bytes"]
            stats.retry_time_s += info["stall_s"]
            event = {"kind": "network-faults", "superstep": superstep,
                     **{key: info[key] for key in
                        ("messages_dropped", "messages_corrupted",
                         "blocked_pairs") if info[key]}}
            stats.events.append(event)
            tracer.instant("fault", **event)
            tracer.count("faults")
            if info["messages_dropped"]:
                tracer.count("messages_dropped", info["messages_dropped"])
            if info["messages_corrupted"]:
                tracer.count("messages_corrupted", info["messages_corrupted"])
        for node in step_faults.crashes:
            self._handle_crash(node, superstep)

    def _handle_crash(self, node: int, superstep: int) -> None:
        """Kill ``node``: recover from checkpoint or fail fast."""
        stats = self._recovery_stats
        stats.faults_injected += 1
        stats.crashes += 1
        event = {"kind": "node-crash", "superstep": superstep, "node": node}
        stats.events.append(dict(event))
        self.tracer.instant("fault", **event)
        self.tracer.count("faults")
        policy = self.recovery
        if policy is None or not policy.recovers_crashes:
            raise NodeFailure(node, superstep)
        # The replacement node reloads the last checkpoint (sequential
        # disk read) and replays every superstep since; with no
        # checkpoint yet, the run restarts from superstep 0.
        restore_s = self._checkpoint_state_bytes \
            / self.spec.node.disk_bandwidth
        replay_s = self._since_checkpoint_s
        total_s = policy.detect_timeout_s + restore_s + replay_s
        self.tracer.record("recovery", self._elapsed, total_s, node=node,
                           superstep=superstep, restore_s=restore_s,
                           replay_s=replay_s,
                           detect_s=policy.detect_timeout_s)
        self._charge(total_s)
        stats.recoveries += 1
        stats.restore_time_s += restore_s
        stats.replay_time_s += replay_s
        stats.recovery_time_s += total_s
        stats.events.append({"kind": "recovery", "superstep": superstep,
                             "node": node, "time_s": total_s})

    def tick(self, seconds: float) -> None:
        """Advance wall clock by a fixed, unscaled amount (startup, I/O)."""
        if seconds < 0:
            raise SimulationError("tick must be non-negative")
        self.tracer.record("tick", self._elapsed, seconds)
        self._elapsed += seconds
        self._metrics.total_time_s += seconds
        self._metrics.tick_time_s += seconds
        self._metrics.total_core_seconds += (
            seconds * self.num_nodes * self.spec.node.cores
        )
        self._check_deadline("tick")

    def mark_iteration(self) -> float:
        """Close the current algorithm iteration; returns its duration."""
        duration = self._elapsed - self._iteration_started_at
        self._iteration_started_at = self._elapsed
        self._metrics.iteration_times.append(duration)
        self.tracer.instant("iteration-mark",
                            index=len(self._metrics.iteration_times) - 1,
                            time_s=duration)
        return duration

    def trace_span(self, name: str, **attrs):
        """Open an engine-level span on this cluster's tracer."""
        return self.tracer.span(name, **attrs)

    # -- results ------------------------------------------------------------

    def metrics(self) -> RunMetrics:
        """Snapshot of the metrics accumulated so far."""
        self._metrics.memory_footprint_bytes = max(
            tracker.peak_bytes for tracker in self._memory
        )
        return self._metrics

    def recovery_stats(self) -> RecoveryStats:
        """Fault/recovery accounting (all zeros on fault-free runs)."""
        return self._recovery_stats
