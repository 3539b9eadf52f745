"""The simulated cluster: barriers, message exchange, byte counting.

Engines drive a :class:`Cluster` superstep by superstep: they hand over
one :class:`~repro.cluster.cost.ComputeWork` of per-node counter columns
and a node-to-node traffic matrix of *payload* bytes, and the cluster
advances a simulated wall clock using the cost model, the framework's
communication layer and (optionally) compute/communication overlap. All
Figure 6 observables accumulate as a side effect.

A step is checked when it is taken and appended to a columnar step log;
the log is charged in one vectorized pass — every row exactly as it
would be alone — when something reads the clock or the metrics. An
engine hands a chunk of rows over in one :meth:`Cluster.supersteps`
call. Runs whose tracer, deadline or chaos schedule read the clock every
row charge every row as it comes.

Scale extrapolation: experiments run on downscaled proxy datasets but
report paper-scale numbers. The cluster multiplies every counter (work,
traffic, memory) by ``scale_factor`` = paper size / proxy size at
accounting time, so the engines stay oblivious. Per-superstep *fixed*
costs (communication latency, framework barrier overhead) are *not*
scaled — that is what makes, e.g., Giraph's per-superstep Hadoop overhead
dominate BFS exactly as in the paper.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math

import numpy as np

from ..chaos.recovery import FAIL_FAST, RecoveryStats
from ..errors import (
    DeadlineExceeded,
    NodeFailure,
    ReproError,
    SimulationError,
)
from ..observability import NULL_TRACER, sample_peak_rss
from .cost import ComputeWork, CostModel, negative
from .hardware import ClusterSpec
from .memory import MemoryTracker
from .metrics import RunMetrics, StepRecord
from .network import MPI, CommLayer, Fabric


_STEP, _TICK, _MARK = 0, 1, 2
#: Bytes of superstep rows the log holds before it charges them: a fixed
#: cap, so a run's memory does not grow with its supersteps.
_LOG_BYTES = 256 * 2**10
_NO_WORK = ComputeWork()
#: The RunMetrics totals a superstep adds to, in the order of rows 1-11
#: of ``_charge_steps``' columns (row 0 is the step time); then the
#: per-node ones.
_TOTALS = ("compute_time_s", "comm_time_s", "bytes_sent_total",
           "memory_time_s", "cpu_time_s", "overhead_time_s",
           "busy_core_seconds", "memory_bytes_total", "ops_total",
           "streamed_bytes_total", "random_bytes_total")
_NODE_TOTALS = ("node_streamed_bytes", "node_random_bytes", "node_ops",
                "node_bytes_sent")


def _fold(totals, columns) -> np.ndarray:
    """Each of ``totals`` plus its column's values one at a time, left to
    right (``np.add.accumulate``): the bits of a per-step ``+=`` loop,
    never numpy's pairwise sum. ``columns`` is ``(k, S)`` or ``(k, S, P)``
    for ``k`` totals of shape ``()`` or ``(P,)``."""
    totals = np.asarray(totals, dtype=np.float64)[:, None]
    return np.add.accumulate(np.concatenate((totals, columns), axis=1),
                             axis=1)[:, -1]


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
        # -- the step log: rows are charged when something reads the
        # clock or the metrics, the log is full, or the layer changes.
        # A tracer, a deadline or chaos read the clock every row, so
        # they charge every row as it comes (eager).
        width = 3 * spec.num_nodes + spec.num_nodes ** 2
        self._rows = np.empty((max(1, _LOG_BYTES // (8 * width)), width))
        self._kinds, self._seconds, self._knobs = [], [], []
        self._layer, self._rates = comm_layer, {}
        self._suspect = False    # a pending row may fail a check
        self._eager = self.tracer.enabled or deadline_s is not None \
            or self.recovery is not None

    # -- basic accessors -----------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self.spec.num_nodes

    @property
    def elapsed_s(self) -> float:
        self._flush()
        return self._elapsed

    def memory(self, node_id: int) -> MemoryTracker:
        return self._memory[node_id]

    # -- memory convenience ----------------------------------------------------

    def allocate(self, node_id: int, label: str, nbytes: float) -> None:
        self._memory[node_id].allocate(label, nbytes)

    def allocate_all(self, label: str, nbytes) -> None:
        """Allocate on every node; ``nbytes`` is scalar or per-node list."""
        sizes = np.asarray(nbytes, dtype=np.float64)
        if sizes.shape != (self.num_nodes,):
            sizes = np.broadcast_to(sizes, (self.num_nodes,))
        for node_id, size in enumerate(sizes.tolist()):
            self._memory[node_id].allocate(label, size)

    # -- time advancement: rows appended to the step log ---------------------

    def superstep(self, work: ComputeWork = None, traffic=None,
                  overlap: bool = False, layer: CommLayer = None,
                  overhead_s: float = 0.0) -> None:
        """Advance the cluster by one bulk-synchronous superstep.

        ``work`` — one :class:`ComputeWork` whose counters are per-node
        ``(P,)`` columns or shared scalars (None: no work);
        ``traffic`` — payload bytes, shape ``(P, P)``, ``traffic[i, j]``
        from node *i* to node *j*; ``overlap`` — hide communication under
        computation; ``overhead_s`` — unscaled fixed cost (framework
        barrier/scheduling). The step lasts as long as its slowest node
        (BSP barrier semantics). It becomes a row of the step log, and
        every check that can refuse it runs now.
        """
        if overhead_s < 0:
            raise SimulationError("overhead_s must be non-negative")
        step_index, nodes = self._steps, self.num_nodes
        step_faults = None
        if self.faults is not None:
            retry = self.recovery.retry if self.recovery is not None else None
            step_faults = self.faults.at(step_index, nodes, retry)
        if self.recovery is not None \
                and self.recovery.checkpoint_due(step_index):
            self._write_checkpoint(step_index)
        work = _NO_WORK if work is None else work
        counters = (work.streamed_bytes, work.random_bytes, work.ops)
        for column in counters:
            shape = getattr(column, "shape", ())
            if shape and shape != (nodes,):
                raise SimulationError(
                    f"expected {nodes} work entries, got shape {shape}")
        if traffic is not None:
            traffic = np.asarray(traffic, dtype=np.float64)
            if traffic.shape != (nodes, nodes):
                self._flush()
                if negative(*(np.multiply(column, self.scale_factor)
                              for column in counters)).any():
                    raise SimulationError("work counters must be non-negative")
                raise SimulationError(f"traffic matrix must be {nodes}x"
                                      f"{nodes}, got {traffic.shape}")
        tail = self._tail(work, layer, overlap, overhead_s)
        row = self._rows[len(self._knobs)]
        row[:nodes], row[nodes:2 * nodes], row[2 * nodes:3 * nodes] = counters
        row[3 * nodes:] = 0.0 if traffic is None else traffic.ravel()
        self._knobs.append((step_index, *tail))
        self._kinds.append(_STEP)
        self._seconds.append(0.0)
        self._steps += 1
        # Only a row with a negative or (at paper scale) non-finite entry
        # can fail the counter and traffic checks: it is charged now, so
        # it raises before any later step or allocation can.
        suspect = not (np.minimum.reduce(row) >= 0 and overhead_s < math.inf
                       and float(np.maximum.reduce(row)) * self.scale_factor
                       < math.inf)
        self._suspect = self._suspect or suspect
        if self._eager:
            info = self._flush(step_faults)
            if step_faults is not None:
                self._apply_step_faults(step_index, step_faults, info)
        else:
            self._flush_if(suspect)

    def supersteps(self, work: ComputeWork, traffic=None,
                   overlap: bool = False, layer: CommLayer = None,
                   overhead_s: float = 0.0, buffers=None, marks=(),
                   trace=None) -> None:
        """S supersteps in one call, bit for bit what S :meth:`superstep`
        calls do, each after ``allocate_all(*buffers)`` of its row.

        ``work``'s counters are ``(S, P)`` (or broadcast to it) and
        ``traffic`` is ``(S, P, P)`` or None; ``buffers`` is ``(label,
        (S, P) sizes)`` or None. A mark at position ``p`` of ``marks``
        closes an iteration once ``p`` rows are taken. Without a tracer,
        deadline or recovery policy the rows join the log in a few array
        copies; otherwise each is taken as it comes, inside ``trace``
        (built only while the tracer is on): ``("open", name, attrs)``,
        ``("close",)``, ``("count", name, value)``, ``("instant", name,
        attrs)``, ``("alloc", row)``, ``("step", row)`` and ``("mark",)``.
        """
        nodes = self.num_nodes
        counters = np.broadcast_arrays(*(
            np.asarray(column, dtype=np.float64) for column in
            (work.streamed_bytes, work.random_bytes, work.ops)))
        count = counters[0].shape[0]
        counters = [np.broadcast_to(column, (count, nodes))
                    for column in counters]
        at = np.bincount(np.asarray(marks, dtype=np.int64),
                         minlength=count + 1).tolist()
        if self._eager:
            if trace is None or not self.tracer.enabled:
                trace = [event for row in range(count) for event in
                         [("mark",)] * at[row] + [("alloc", row),
                                                  ("step", row)]] \
                    + [("mark",)] * at[count]
            self._play(trace, work, counters, traffic, buffers,
                       dict(overlap=overlap, layer=layer,
                            overhead_s=overhead_s))
            return
        if overhead_s < 0:
            raise SimulationError("overhead_s must be non-negative")
        tail = self._tail(work, layer, overlap, overhead_s)
        parts = counters if traffic is None \
            else [*counters, traffic.reshape(count, nodes * nodes)]
        # The rows :meth:`superstep` would charge as soon as they come.
        suspect = ~((np.minimum.reduce([part.min(1) for part in parts]) >= 0)
                    & (np.maximum.reduce([part.max(1) for part in parts])
                       * self.scale_factor < math.inf)
                    & (overhead_s < math.inf))
        row = 0
        while row < count:
            end = min(count, row + len(self._rows) - len(self._knobs))
            if suspect[row:end].any():
                end = row + int(np.argmax(suspect[row:end])) + 1
            for taken in range(row, end if buffers is not None else row):
                try:
                    self.allocate_all(buffers[0], buffers[1][taken])
                except ReproError:      # the rows before it are taken
                    self._append(counters, traffic, row, taken, at, tail)
                    self._kinds.extend([_MARK] * at[taken])
                    self._seconds.extend([0.0] * at[taken])
                    raise
            self._append(counters, traffic, row, end, at, tail)
            self._suspect = self._suspect or suspect[end - 1]
            self._flush_if(suspect[end - 1]
                           or len(self._knobs) == len(self._rows))
            row = end
        self._kinds.extend([_MARK] * at[count])
        self._seconds.extend([0.0] * at[count])
        self._flush_if(False)

    def _tail(self, work, layer, overlap, overhead_s) -> tuple:
        """A step's knobs after its index, on the log of its layer."""
        layer = layer or self.comm_layer
        if layer is not self._layer:
            self._flush()
            self._layer, self._rates = layer, {}
        knobs = (work.cpu_efficiency, work.cores_fraction, work.prefetch,
                 work.memory_parallelism)
        rates = self._rates.get(knobs)
        if rates is None:
            rates = self._rates[knobs] = self.cost.rates(work)
        return (*rates, work.cores_fraction, overlap, overhead_s)

    def _append(self, counters, traffic, row, end, at, tail) -> None:
        """Rows ``row:end`` of a :meth:`supersteps` chunk onto the log,
        each after the marks ``at`` its position."""
        start, nodes = len(self._knobs), self.num_nodes
        if end == row:
            return
        block = self._rows[start:start + end - row]
        for offset, column in enumerate(counters):
            block[:, offset * nodes:(offset + 1) * nodes] = column[row:end]
        block[:, 3 * nodes:] = 0.0 if traffic is None \
            else traffic[row:end].reshape(end - row, nodes * nodes)
        spaced = np.add.accumulate(np.add(at[row:end], 1))
        kinds = np.full(int(spaced[-1]), _MARK, dtype=np.int8)
        kinds[spaced - 1] = _STEP
        self._kinds.extend(kinds.tolist())
        self._seconds.extend([0.0] * kinds.size)
        self._knobs.extend((index, *tail) for index in
                           range(self._steps, self._steps + end - row))
        self._steps += end - row

    def _play(self, events, work, counters, traffic, buffers, step) -> None:
        """:meth:`supersteps`' rows taken one call at a time, with the
        tracer's events between them; a span still open when a row
        raises closes as a ``with`` block would."""
        tracer, spans = self.tracer, []
        try:
            for event in events:
                kind = event[0]
                if kind == "step":
                    row = event[1]
                    self.superstep(dataclasses.replace(
                        work, streamed_bytes=counters[0][row],
                        random_bytes=counters[1][row], ops=counters[2][row]),
                        None if traffic is None else traffic[row], **step)
                elif kind == "alloc" and buffers is not None:
                    self.allocate_all(buffers[0], buffers[1][event[1]])
                elif kind == "mark":
                    self.mark_iteration()
                elif kind == "open":
                    spans.append(tracer.span(event[1], **event[2]))
                elif kind == "close":
                    spans.pop().__exit__(None, None, None)
                elif kind == "count":
                    tracer.count(event[1], event[2])
                elif kind == "instant":
                    tracer.instant(event[1], **event[2])
        finally:
            while spans:
                spans.pop().__exit__(None, None, None)

    def tick(self, seconds: float) -> None:
        """Advance wall clock by a fixed, unscaled amount (startup, I/O)."""
        if seconds < 0:
            raise SimulationError("tick must be non-negative")
        self._kinds.append(_TICK)
        self._seconds.append(seconds)
        self._flush_if(self._eager)

    def mark_iteration(self) -> None:
        """Close the current algorithm iteration."""
        self._kinds.append(_MARK)
        self._seconds.append(0.0)
        self._flush_if(self._eager)

    def _flush_if(self, now: bool) -> None:
        """Charge the log now, or once it is full."""
        if now or len(self._kinds) >= len(self._rows):
            self._flush()

    # -- materializing the log ----------------------------------------------

    def _flush(self, step_faults=None):
        """Charge every pending row of the log in one vectorized pass:
        the clock, :class:`RunMetrics`, the step records, the iteration
        times and (with a tracer) the spans. Returns the network's fault
        info of a lone chaos step.

        A step a check refuses raises its ``SimulationError`` once the
        rows before it are charged; it and any later rows are dropped,
        as if it had raised when it was taken.
        """
        if not self._kinds:
            return None
        kinds = np.array(self._kinds, dtype=np.int8)
        dt = np.array(self._seconds)
        is_step = kinds == _STEP
        steps = None
        if self._knobs:
            with (np.errstate(over="ignore", invalid="ignore")
                  if self._suspect else contextlib.nullcontext()):
                steps = self._charge_steps(step_faults)
            if isinstance(steps, tuple):
                row, message = steps
                position = int(np.flatnonzero(is_step)[row])
                del self._kinds[position:], self._seconds[position:]
                self._steps = self._knobs[row][0]
                del self._knobs[row:]
                self._suspect = False
                self._flush()
                raise SimulationError(message)
            dt[is_step] = steps["totals"][0]
        elapsed = np.add.accumulate(np.concatenate(([self._elapsed], dt)))
        metrics = self._metrics
        # One fold for every running total; a row adds 0.0 to the totals
        # it does not touch, which is exact.
        columns = np.zeros((3 + len(_TOTALS), len(kinds)))
        columns[0] = dt * self.num_nodes * self.spec.node.cores
        columns[1] = dt * (kinds == _TICK)
        if steps is not None:
            columns[2:, is_step] = steps["totals"]
            for name, total in zip(_NODE_TOTALS, _fold(
                    [getattr(metrics, name) for name in _NODE_TOTALS],
                    steps["nodes"])):
                getattr(metrics, name)[:] = total
            metrics.peak_network_bandwidth = max(
                [metrics.peak_network_bandwidth] + steps["peaks"])
            metrics.steps.extend(map(StepRecord, *steps["records"]))
        totals = _fold([metrics.total_core_seconds, metrics.tick_time_s,
                        self._since_checkpoint_s]
                       + [getattr(metrics, name) for name in _TOTALS],
                       columns).tolist()
        metrics.total_core_seconds, metrics.tick_time_s, \
            self._since_checkpoint_s = totals[:3]
        for name, total in zip(_TOTALS, totals[3:]):
            setattr(metrics, name, total)
        if _MARK in self._kinds:
            marked = elapsed[1:][kinds == _MARK]
            metrics.iteration_times.extend((marked - np.concatenate(
                ([self._iteration_started_at], marked[:-1]))).tolist())
            self._iteration_started_at = float(marked[-1])
        if self.tracer.enabled:
            self._trace_row(self._kinds[0], float(elapsed[-1]), steps)
        self._elapsed = metrics.total_time_s = float(elapsed[-1])
        last = self._kinds[-1]
        self._kinds, self._seconds, self._knobs = [], [], []
        self._suspect = False
        if last == _STEP:
            self._check_deadline(f"superstep {steps['records'][0][-1]}")
        elif last == _TICK:
            self._check_deadline("tick")
        return None if steps is None else steps["report"].faults

    def _charge_steps(self, step_faults) -> dict:
        """The pending supersteps charged at once, each row computed as
        it would be alone: ``(S,)`` and ``(S, P)`` columns, or
        ``(row, message)`` for the first row a check refuses."""
        nodes, knobs = self.num_nodes, np.array(self._knobs)
        count, width = len(knobs), 3 * nodes
        index = knobs[:, 0].astype(np.int64)
        rows = self._rows[:count] * self.scale_factor
        counters = rows[:, :width].reshape(count, 3, nodes)
        streamed, random, ops = counters[:, 0], counters[:, 1], counters[:, 2]
        traffic = rows[:, width:].reshape(count, nodes, nodes)
        if self._suspect:
            bad_work = negative(streamed, random, ops).any(axis=1)
            bad = np.flatnonzero(bad_work | (traffic < 0).any(axis=(1, 2)))
            if bad.size:
                return int(bad[0]), ("work counters must be non-negative"
                                     if bad_work[bad[0]]
                                     else "traffic bytes must be non-negative")
        memory, cpu = CostModel.charge(streamed, random, ops,
                                       *knobs[:, 1:4].T[:, :, None])
        compute = np.maximum(memory, cpu)
        factors = None if step_faults is None else step_faults.compute_factors
        if factors is not None:
            memory, cpu, compute = memory * factors, cpu * factors, \
                compute * factors
        report = self.fabric.exchange(
            traffic, self._layer,
            disruption=None if step_faults is None else step_faults.disruption)
        comm, overlap, overhead = report.comm_times, knobs[:, 5] != 0, \
            knobs[:, 6]
        time = np.where(overlap[:, None], np.maximum(compute, comm),
                        compute + comm).max(axis=1) + overhead
        # Each (step, counter) sum reduces one contiguous node row, as the
        # per-step sums did.
        streamed_total, random_total, ops_total = counters.sum(axis=2).T
        finite = np.isfinite(time + streamed_total + random_total + ops_total
                             + report.total_bytes)
        if not finite.all():
            row = int(np.flatnonzero(~finite)[0])
            return row, (f"superstep {index[row]}: work, traffic and "
                         f"overhead must be finite")
        compute_s, comm_s, memory_s, cpu_s = np.array(
            [compute, comm, memory, cpu]).max(axis=2)
        busy = np.add.accumulate(
            compute * knobs[:, 4:5] * self.spec.node.cores, axis=1)[:, -1]
        totals = np.array([time, compute_s, comm_s, report.total_bytes,
                           memory_s, cpu_s, overhead, busy,
                           streamed_total + random_total, ops_total,
                           streamed_total, random_total])
        lists = totals[:7].tolist()
        peaks = report.peak_bandwidth.tolist()
        return {
            "totals": totals, "report": report, "compute": compute,
            "nodes": np.array([streamed, random, ops, report.bytes_out]),
            "peaks": peaks,
            "records": [index.tolist(), *lists[:4], peaks, *lists[4:],
                        overlap.tolist()],
        }

    def _trace_row(self, kind: int, end: float, steps) -> None:
        """The spans of the log's lone row (a tracer charges every row as
        it comes), on the clock as it stood: ``self._elapsed`` is the
        row's start, and ``end`` its end."""
        tracer, start = self.tracer, self._elapsed
        if kind == _TICK:
            tracer.record("tick", start, self._seconds[0])
        elif kind == _MARK:
            times = self._metrics.iteration_times
            tracer.instant("iteration-mark", index=len(times) - 1,
                           time_s=times[-1])
        else:
            (index, _time, compute_s, comm_s, sent, peak, _memory, _cpu,
             overhead, overlap) = (column[0] for column in steps["records"])
            with tracer.span("superstep", index=index, compute_s=compute_s,
                             comm_s=comm_s, bytes_sent=sent,
                             peak_bandwidth=peak, overhead_s=overhead):
                report = steps["report"]
                for node, (busy, comm, out) in enumerate(zip(
                        steps["compute"][0].tolist(),
                        report.comm_times[0].tolist(),
                        report.bytes_out[0].tolist())):
                    if busy > 0:
                        tracer.record("compute", start, busy, node=node)
                    if comm > 0:
                        # Overlapped communication hides under compute;
                        # otherwise it follows it (BSP phase order).
                        tracer.record("comm", start if overlap
                                      else start + busy, comm, node=node,
                                      bytes_out=out)
                self._elapsed = end
            # Superstep boundaries are where working sets turn over
            # (frontier gathers, partition loads), so they are where the
            # out-of-core memory claims get *measured*.
            sample_peak_rss(tracer)

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
        self._flush()
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

    def _apply_step_faults(self, superstep: int, step_faults, info) -> None:
        """Book transient-fault costs, then resolve crashes."""
        stats = self._recovery_stats
        tracer = self.tracer
        for event in step_faults.events:
            stats.faults_injected += 1
            stats.events.append(dict(event))
            tracer.instant("fault", **event)
            tracer.count("faults")
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

    def trace_span(self, name: str, **attrs):
        """Open an engine-level span on this cluster's tracer."""
        return self.tracer.span(name, **attrs)

    # -- results ------------------------------------------------------------

    def metrics(self) -> RunMetrics:
        """Snapshot of the metrics accumulated so far."""
        self._flush()
        self._metrics.memory_footprint_bytes = max(
            tracker.peak_bytes for tracker in self._memory
        )
        return self._metrics

    def recovery_stats(self) -> RecoveryStats:
        """Fault/recovery accounting (all zeros on fault-free runs)."""
        return self._recovery_stats
