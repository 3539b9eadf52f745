"""The simulated cluster: barriers, message exchange, byte counting.

Engines drive a :class:`Cluster` in chunks of supersteps: per row they
hand over a :class:`~repro.cluster.cost.ComputeWork` of per-node counter
columns and a node-to-node traffic matrix of *payload* bytes, and the
cluster advances a simulated wall clock using the cost model, the
framework's communication layer and (optionally) compute/communication
overlap. All Figure 6 observables accumulate as a side effect.

A step is checked when it is taken and appended to a columnar step log;
the log is charged in one vectorized pass — every row exactly as it
would be alone — when something reads the clock or the metrics. Every
framework hands over a frontier chunk of rounds, a dense iteration or a
rule-evaluation round in one :meth:`Cluster.supersteps` call, its spans
declared as data (:class:`Spans`); :meth:`Cluster.superstep` is a chunk
of one. Traced or not, the rows are charged in the same passes: a trace
is a view of the charged log, rendered from the kept records when the
tracer reads its clock or its spans, each row at its own start and end.
A deadline is a search of the charged clock. Only a fault schedule or
recovery policy charges every row as it comes.

Scale extrapolation: experiments run on downscaled proxy datasets but
report paper-scale numbers. The cluster multiplies every counter (work,
traffic, memory) by ``scale_factor`` = paper size / proxy size at
accounting time, so the engines stay oblivious. Per-superstep *fixed*
costs (communication latency, framework barrier overhead) are *not*
scaled — that is what makes, e.g., Giraph's per-superstep Hadoop overhead
dominate BFS exactly as in the paper.
"""

from __future__ import annotations

import collections
import contextlib
import math
from typing import NamedTuple

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
_COUNTERS = ("streamed_bytes", "random_bytes", "ops")
#: A ``superstep`` span's attributes, read off its :class:`StepRecord`.
_SUPERSTEP = ("index", "compute_s", "comm_s", "bytes_sent",
              "peak_bandwidth", "overhead_s")
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


class Spans(NamedTuple):
    """The spans a tracer reads off a chunk of :meth:`Cluster.supersteps`
    rows once they are charged, declared as data next to the rows.

    ``extents`` are ``(name, attrs, first, end, depth)``: a span from the
    start of row ``first`` to the end of row ``end - 1``, ``depth``
    extents deep, listed in the order they open. A depth-0 extent holds
    the iteration mark at its end; an empty one (``first == end``) holds
    the mark at its position. ``counts`` ``(row, name, value)`` and
    ``instants`` / ``leading`` instants ``(row, name, attrs)`` are taken
    at their row's start: a row opens its extents shallower than
    ``alloc_depth``, takes its counts and leading instants, allocates its
    buffers (stopping there if one does not fit), then opens the rest and
    takes its other instants, each in the deepest extent open then.
    """

    extents: list = ()
    counts: list = ()
    instants: list = ()
    leading: list = ()
    alloc_depth: int = 1


class _View:
    """A traced run's trace as a view of its charged log: each charged
    entry ``(kind, start, end, what)``, and ``events`` at log positions
    (a chunk's :class:`Spans`, a row of it starting: ``"row"``, or
    ``"buffer"`` if its buffer did not fit, and the chunk's end: None),
    rendered into the tracer when it reads its clock."""

    def __init__(self, tracer):
        self.tracer, self.entries, self.events = tracer, [], \
            collections.deque()
        self.position, self.at = 0, None   # entries[0]'s; the walk's clock
        self._event(Spans())

    def keep(self, kinds, elapsed, dt, steps, marks) -> None:
        """One charged pass's entries: ``what`` is a tick's seconds, a
        mark's index and time, or a step's :class:`StepRecord` and
        per-node compute, comm and ``bytes_out``."""
        steps, marks = iter(steps), iter(marks)
        self.entries.extend(
            (kind, elapsed[position], elapsed[position + 1],
             dt[position] if kind == _TICK
             else next(marks if kind == _MARK else steps))
            for position, kind in enumerate(kinds))

    def note(self, pending: int, event) -> None:
        """``event`` after ``pending`` entries not yet charged. Events
        kept past that lie in rows a refusal dropped: they follow it."""
        position = self.position + len(self.entries) + pending
        later = []
        while self.events and self.events[-1][0] > position:
            later.append((position, self.events.pop()[1]))
        self.events.extend([(position, event)] + later[::-1])

    def render(self, end_s: float) -> None:
        """The kept records as tracer calls, in log order, up to the
        log's end at ``end_s``; the host's peak RSS sampled once."""
        entries, events, tracer = self.entries, self.events, self.tracer
        for position, entry in enumerate(entries + [None], self.position):
            self.at = end_s if entry is None else entry[1]
            while events and events[0][0] <= position:
                self._event(events.popleft()[1])
            if entry is None:
                break
            kind, start, end, what = entry
            if kind == _TICK:
                tracer.record("tick", start, what)
            elif kind == _MARK:
                self.mark(*what)
            else:
                self.step(start, end, *what)
        if entries:
            sample_peak_rss(tracer)
            self.position += len(entries)
            entries.clear()
        self.at = None

    def step(self, start: float, end: float, record, nodes) -> None:
        """A superstep's ``bytes_sent`` count and span, with a
        ``compute`` and a ``comm`` record per busy node under it."""
        tracer = self.tracer
        self.begin()
        if record.bytes_sent > 0:
            tracer.count("bytes_sent", record.bytes_sent)
        with tracer.span("superstep", **{name: getattr(record, name)
                                         for name in _SUPERSTEP}):
            for node, (busy, comm, out) in enumerate(zip(*nodes)):
                if busy > 0:
                    tracer.record("compute", start, busy, node=node)
                if comm > 0:
                    # Overlapped communication hides under compute;
                    # otherwise it follows it (BSP phase order).
                    tracer.record("comm", start if record.overlap
                                  else start + busy, comm, node=node,
                                  bytes_out=out)
            self.at = end
        self.begun, self.row = False, self.row + 1

    def _event(self, event) -> None:
        """Apply one event; outside a chunk the walk holds an empty one."""
        if event is None:
            self.close()
            event = Spans()
        if not isinstance(event, Spans):
            return self.begin(outer=event == "buffer")
        self.extents = sorted(event.extents, key=lambda span: span[2::2])
        self.alloc_depth, self.open, self.rows = event.alloc_depth, [], {}
        for kind, entries in enumerate((event.counts, event.instants,
                                        event.leading)):
            for row, *entry in entries:    # row -> (counts, instants, leading)
                self.rows.setdefault(row, ([], [], []))[kind].append(entry)
        self.row = self.taken = 0
        self.begun = False

    def begin(self, outer: bool = False) -> None:
        """Start row ``self.row``: close what ended before it, open what
        starts there and take its counts and instants as :class:`Spans`
        orders them; ``outer`` (its buffer did not fit) stops there."""
        if self.begun:
            return
        self.begun, row, extents = True, self.row, self.extents
        self.close(row)
        counts, instants, leading = self.rows.get(row, ((), (), ()))
        # Up to where its buffers are allocated, then (unless refused) on.
        for depth, taken in ((self.alloc_depth, leading),
                             (math.inf, instants))[:2 - outer]:
            while self.taken < len(extents) \
                    and extents[self.taken][2] <= row \
                    and extents[self.taken][4] < depth:
                self._open(row)
            for name, value in counts:
                self.tracer.count(name, value)
            for name, attrs in taken:
                self.tracer.instant(name, **attrs)
            counts = ()

    def mark(self, index: int, time_s: float) -> None:
        """An iteration mark after ``self.row`` rows: inside the depth-0
        extent that ends there (or an empty one there), else between
        extents."""
        row = self.row
        self.close(row, holders=False)
        if not (self.open and self.open[-1][0] <= row) \
                and self.extents[self.taken:self.taken + 1] \
                and self.extents[self.taken][2:] == (row, row, 0):
            self._open(row, keep=True)
        self.tracer.instant("iteration-mark", index=index, time_s=time_s)
        self.close(row)

    def _open(self, row: int, keep: bool = False) -> None:
        """Open the next extent; one that ends by ``row`` closes at once
        unless ``keep``."""
        name, attrs, _first, end, depth = self.extents[self.taken]
        self.taken += 1
        self.open.append((end, not depth, self.tracer.span(name, **attrs)))
        if end <= row and not keep:
            self.close(row)

    def close(self, row: float = math.inf, holders: bool = True) -> None:
        """Close the open extents that end by ``row`` (not one that holds
        the mark at its end, unless ``holders``)."""
        while self.open and self.open[-1][0] <= row \
                and (holders or not self.open[-1][1]):
            self.open.pop()[2].__exit__(None, None, None)


class Cluster:
    """A running simulation on ``spec.num_nodes`` nodes."""

    def __init__(self, spec: ClusterSpec, comm_layer: CommLayer = MPI,
                 scale_factor: float = 1.0, enforce_memory: bool = True,
                 tracer=None, faults=None, recovery=None,
                 deadline_s: float = None):
        if scale_factor <= 0:
            raise SimulationError("scale_factor must be positive")
        if deadline_s is not None and not 0 < deadline_s < math.inf:
            raise SimulationError(f"deadline_s must be finite and positive, "
                                  f"got {deadline_s}")
        self.spec = spec
        self.comm_layer = comm_layer
        self.scale_factor = float(scale_factor)
        self.cost = CostModel(spec.node)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # A span or count taken outside the log reads the clock after
        # the pending rows are charged and the trace rendered up to them.
        self._view = _View(self.tracer) if self.tracer.enabled else None
        self.tracer.bind_clock(self._clock)
        self.fabric = Fabric(spec.node, spec.num_nodes)
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
        # clock or the metrics, the log is full, or the layer changes;
        # with a deadline, at the end of the call that took them. A
        # tracer changes none of this: it reads the charged entries.
        # Recovery replays steps, so under faults or a recovery policy
        # every row is charged as it comes (eager).
        width = 3 * spec.num_nodes + spec.num_nodes ** 2
        self._rows = np.empty((max(1, _LOG_BYTES // (8 * width)), width))
        self._kinds, self._seconds, self._knobs = [], [], []
        self._layer, self._rates = comm_layer, {}
        self._suspect = False    # a pending row may fail a check
        self._eager = self.recovery is not None

    # -- basic accessors -----------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self.spec.num_nodes

    @property
    def elapsed_s(self) -> float:
        self._flush()
        return self._elapsed

    def _clock(self) -> float:
        """The tracer's clock: the pending rows charged and the trace
        rendered up to them first; while rendering, the render's time."""
        view = self._view
        if view is not None and view.at is not None:
            return view.at
        self._flush()
        if view is not None:
            view.render(self._elapsed)
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
        """Advance the cluster by one bulk-synchronous superstep: a
        :meth:`supersteps` chunk of one row. ``work``'s counters are
        per-node ``(P,)`` columns or shared scalars (None: no work);
        ``traffic[i, j]`` is the payload bytes node *i* sends node *j*."""
        self.supersteps(_NO_WORK if work is None else work,
                        None if traffic is None
                        else np.asarray(traffic, dtype=np.float64)[None],
                        overlap, layer, overhead_s)

    def supersteps(self, work: ComputeWork, traffic=None,
                   overlap: bool = False, layer: CommLayer = None,
                   overhead_s: float = 0.0, buffers=None, marks=(),
                   spans: Spans = None) -> None:
        """S supersteps in one call, bit for bit what S :meth:`superstep`
        calls do, each after ``allocate_all(*buffers)`` of its row.

        ``work``'s counters are ``(S, P)``, or ``(P,)`` or scalars every
        row shares (S is 1 if none is ``(S, P)``); ``traffic`` is ``(S, P,
        P)`` or None (a wrong shape refuses the call); ``overlap`` hides
        communication under computation; ``overhead_s`` is the unscaled
        fixed cost of each step (a step lasts as long as its slowest node);
        ``buffers`` is ``(label, (S, P) sizes)`` or None. A mark at
        position ``p`` of ``marks`` closes an iteration once ``p`` rows are
        taken. ``spans`` (kept only while the tracer is on) are the chunk's
        declared spans, rendered with its rows once they are charged.

        The rows join the log in a few array copies and are charged with
        it, traced or not; under a deadline, before the call returns.
        Within the chunk the first event in row order decides: a buffer
        that does not fit, a row a check refuses, or the first row over
        the deadline; nothing after it is allocated or charged. Only
        under a fault schedule or recovery policy is each row charged
        alone, between its checkpoint and its faults.
        """
        if overhead_s < 0:
            raise SimulationError("overhead_s must be non-negative")
        nodes = self.num_nodes
        columns = [np.asarray(getattr(work, name), dtype=np.float64)
                   for name in _COUNTERS]
        count = next((len(column) for column in columns if column.ndim == 2),
                     1)
        for column in columns:
            if column.shape not in ((), (nodes,), (count, nodes)):
                raise SimulationError(f"expected {nodes} work entries, "
                                      f"got shape {column.shape}")
        if traffic is not None:
            traffic = np.asarray(traffic, dtype=np.float64)
            if traffic.shape != (count, nodes, nodes):
                self._flush()
                if negative(*(column * self.scale_factor
                              for column in columns)).any():
                    raise SimulationError("work counters must be non-negative")
                shape = traffic.shape[1:] if traffic.shape[:1] == (count,) \
                    else traffic.shape
                raise SimulationError(f"traffic matrix must be {nodes}x"
                                      f"{nodes}, got {shape}")
        rows = np.empty((count, self._rows.shape[1]))
        for offset, column in enumerate(columns):
            rows[:, offset * nodes:(offset + 1) * nodes] = column
        rows[:, 3 * nodes:] = 0.0 if traffic is None \
            else traffic.reshape(count, nodes * nodes)
        self._take(rows, self._tail(work, layer, overlap, overhead_s),
                   buffers, marks, spans)

    def _take(self, rows, tail, buffers=None, marks=(), spans=None) -> None:
        """Charge ``rows`` as the log holds them (three ``(S, P)`` counter
        blocks, then the ``(S, P * P)`` traffic), each with knobs ``tail``."""
        count, eager = len(rows), self._eager
        at = np.bincount(np.asarray(marks, dtype=np.int64),
                         minlength=count + 1).tolist() if len(marks) \
            else [0] * (count + 1)
        scale, finite = self.scale_factor, tail[-1] < math.inf
        # The rows a check may refuse, charged as soon as they come (a
        # row whose scaled maximum overflows is one of them).
        suspect = [not (low >= 0 and high * scale < math.inf and finite)
                   for low, high in zip(rows.min(1).tolist(),
                                        rows.max(1).tolist())]
        declared = spans is not None and count + len(marks) > 0
        if declared:
            self._note(spans)
        first = self._steps
        # Taken one at a time, a row's marks are charged before it.
        lead = [0] * (count + 1) if eager else at
        saved = None if eager or self.deadline_s is None or buffers is None \
            else [(dict(tracker._allocations), tracker._peak_bytes)
                  for tracker in self._memory]
        try:
            row = 0
            while row < count:
                end = row + 1 if eager \
                    else min(count, row + len(self._rows) - len(self._knobs))
                if any(suspect[row:end]):
                    end = suspect.index(True, row, end) + 1
                if eager:
                    self._marks(at[row])
                    self._flush()
                for taken in range(row, end if buffers is not None else row):
                    try:
                        self.allocate_all(buffers[0], buffers[1][taken])
                    except ReproError:      # the rows before it are taken
                        self._append(rows, row, taken, tail, lead)
                        self._marks(lead[taken])
                        self._flush()
                        self._note("buffer")
                        raise
                if eager:
                    step_faults = self._before_step()
                self._append(rows, row, end, tail, lead)
                self._suspect = self._suspect or suspect[end - 1]
                if eager:
                    info = self._flush(step_faults)
                    if step_faults is not None:
                        self._apply_step_faults(first + row, step_faults,
                                                info)
                self._flush_if(suspect[end - 1]
                               or len(self._knobs) == len(self._rows))
                row = end
            self._marks(at[count])
            self._flush_if(eager or self.deadline_s is not None)
        except DeadlineExceeded:
            if saved is not None:   # only the rows through the crossing
                for tracker, (allocations, peak) in zip(self._memory, saved):
                    tracker._allocations, tracker._peak_bytes = \
                        allocations, peak
                for taken in range(self._steps - first):
                    self.allocate_all(buffers[0], buffers[1][taken])
            raise
        finally:    # the chunk ends here, raised or not
            if declared:
                self._note(None)

    def _note(self, event) -> None:
        """Keep ``event`` at the log's end for the trace: a chunk's
        :class:`Spans`, a row of it starting (``"row"``, ``"buffer"``),
        or its end (None)."""
        if self._view is not None:
            self._view.note(len(self._kinds), event)

    def _before_step(self):
        """A lone step's part before it is charged: its row starts (in
        the trace), its checkpoint if one is due; returns its faults."""
        self._note("row")
        index = self._steps
        step_faults = None if self.faults is None \
            else self.faults.at(index, self.num_nodes, self.recovery.retry)
        if self.recovery.checkpoint_due(index):
            self._write_checkpoint(index)
        return step_faults

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

    def _append(self, rows, row, end, tail, at) -> None:
        """Rows ``row:end`` of a :meth:`supersteps` chunk onto the log,
        each after the marks ``at`` its position."""
        if end == row:
            return
        start = len(self._knobs)
        self._rows[start:start + end - row] = rows[row:end]
        if any(at[row:end]):
            spaced = np.add.accumulate(np.add(at[row:end], 1))
            kinds = np.full(int(spaced[-1]), _MARK, dtype=np.int8)
            kinds[spaced - 1] = _STEP
            kinds = kinds.tolist()
        else:
            kinds = [_STEP] * (end - row)
        self._kinds.extend(kinds)
        self._seconds.extend([0.0] * len(kinds))
        self._knobs.extend((index, *tail) for index in
                           range(self._steps, self._steps + end - row))
        self._steps += end - row

    def _marks(self, count: int) -> None:
        self._kinds.extend([_MARK] * count)
        self._seconds.extend([0.0] * count)

    def tick(self, seconds: float) -> None:
        """Advance wall clock by a fixed, unscaled amount (startup, I/O)."""
        if seconds < 0:
            raise SimulationError("tick must be non-negative")
        self._kinds.append(_TICK)
        self._seconds.append(seconds)
        self._flush_if(self._eager or self.deadline_s is not None)

    def mark_iteration(self) -> None:
        """Close the current algorithm iteration."""
        self._marks(1)
        self._flush_if(self._eager)

    def _flush_if(self, now: bool) -> None:
        """Charge the log now, or once it is full."""
        if now or len(self._kinds) >= len(self._rows):
            self._flush()

    # -- materializing the log ----------------------------------------------

    def _flush(self, step_faults=None):
        """Charge every pending row of the log in one vectorized pass:
        the clock, :class:`RunMetrics`, the step records, the iteration
        times and (with a tracer) the records its view renders. Returns
        the network's fault info of a lone chaos step.

        A step a check refuses raises its ``SimulationError`` once the
        rows before it are charged; it and any later rows are dropped,
        as if it had raised when it was taken. So are the rows after the
        first one over the deadline, which then raises
        ``DeadlineExceeded``.
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
                self._truncate(int(np.flatnonzero(is_step)[row]))
                self._suspect = False
                self._flush()
                self._note("row")
                raise SimulationError(message)
            dt[is_step] = steps["totals"][0]
        elapsed = np.add.accumulate(np.concatenate(([self._elapsed], dt)))
        if self.deadline_s is not None:
            over = int(np.searchsorted(elapsed[1:], self.deadline_s, "right"))
            if over < len(kinds) - 1:
                self._truncate(over + 1)
                return self._flush(step_faults)
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
            records = list(map(StepRecord, *steps["records"]))
            metrics.steps.extend(records)
        totals = _fold([metrics.total_core_seconds, metrics.tick_time_s,
                        self._since_checkpoint_s]
                       + [getattr(metrics, name) for name in _TOTALS],
                       columns).tolist()
        metrics.total_core_seconds, metrics.tick_time_s, \
            self._since_checkpoint_s = totals[:3]
        for name, total in zip(_TOTALS, totals[3:]):
            setattr(metrics, name, total)
        marked = ()
        if _MARK in self._kinds:
            ends = elapsed[1:][kinds == _MARK]
            marked = (ends - np.concatenate(
                ([self._iteration_started_at], ends[:-1]))).tolist()
            metrics.iteration_times.extend(marked)
            self._iteration_started_at = float(ends[-1])
        last = self._kinds[-1]
        self._kinds, self._seconds, self._knobs = [], [], []
        self._suspect = False
        if self._view is not None:
            self._view.keep(kinds.tolist(), elapsed.tolist(), dt.tolist(),
                            () if steps is None else zip(records, np.stack(
                                (steps["compute"], steps["report"].comm_times,
                                 steps["report"].bytes_out), 1).tolist()),
                            enumerate(marked, len(metrics.iteration_times)
                                      - len(marked)))
        self._elapsed = metrics.total_time_s = float(elapsed[-1])
        if last == _STEP:
            self._check_deadline(f"superstep {steps['records'][0][-1]}")
        elif last == _TICK:
            self._check_deadline("tick")
        return None if steps is None else steps["report"].faults

    def _truncate(self, position: int) -> None:
        """Drop the log's entries from ``position`` on, as if never taken."""
        kept = self._kinds[:position].count(_STEP)
        if kept < len(self._knobs):
            self._steps = self._knobs[kept][0]
            del self._knobs[kept:]
        del self._kinds[position:], self._seconds[position:]

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
        self.tracer.record("checkpoint", self._clock(), write_s,
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
        self.tracer.record("recovery", self._clock(), total_s, node=node,
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
