"""One measurement of one workload, and the end-to-end metric formulas.

A workload is a set-up followed by identical *units* (one cold build +
three cells, one 48-cell pass, one 144-cell sweep, eight 57-request
rounds). A unit is made of *ops* — experiment cells or HTTP requests —
each of which either succeeds, with a latency and a simulated outcome,
or fails. A failed op counts against ``attempted`` and contributes to no
latency or throughput figure.

The driver contract wants every end-to-end metric from every workload,
so each metric has one definition that every workload can evaluate (the
glossary in ``bench/README.md`` says what it reduces to on each):

``setup_s``          median wall of one set-up
``cold_cell_s``      median wall of one unit
``cells_per_s``      successful cells per unit / ``cold_cell_s``
``requests_per_s``   timed front-door calls per unit / ``cold_cell_s``
``cell_geomean_ms``  geometric mean over distinct cells of each cell's
                     median latency (mean ms per cell where single cells
                     cannot be timed from outside: the pooled sweep)
``gate_p50_ms``      median latency of the ops the workload gates on —
                     the served gate requests; where a workload has no
                     stream of like requests, the unit itself
``gate_p90_ms``      their 90th percentile — or the highest percentile
                     >= 50 that still has ten samples beyond it
``peak_rss_mb``      VmHWM of the workload process

**Machine-speed correction.** This box shares its two cores: the same
code runs up to 1.3x slower for tens of seconds at a time, which no
median inside a 12 s run can remove. So a fixed reference kernel
(:class:`SpeedProbe`, ~90 ms of numpy sorting plus an interpreter loop)
is timed before and after every set-up and every unit, and each timing
is divided by ``mean(probes at its two boundaries) / NOMINAL_S`` — host
seconds at the probe's nominal speed. The raw timings stay in the run
record (``raw_unit_s``, ``speed``). On this box that took the
run-to-run spread of a unit's median from 4-19 % to 2-11 % (README);
both sides of any comparison use the same probe and constant, so only
the ratio of program time to probe time matters.
"""

from __future__ import annotations

import statistics
import time
from contextlib import nullcontext

import numpy as np

from . import env



class SpeedProbe:
    """How fast is the machine right now? A fixed kernel, timed."""

    #: The kernel's time on this box when nothing else runs.
    NOMINAL_S = 0.090

    def __init__(self):
        self._keys = np.random.default_rng(1).integers(0, 1 << 40,
                                                       size=1 << 18)

    def __call__(self) -> float:
        """Seconds the kernel takes now (sort/unique/scan/bincount over
        2 MB of keys — the program's own idiom — plus a Python loop)."""
        keys = self._keys
        started = time.perf_counter()
        order = np.argsort(keys, kind="stable")
        np.unique(keys >> 8)
        np.cumsum(keys[order])
        np.bincount(keys & 0xFFFF, minlength=1 << 16)
        total = 0
        for i in range(20000):
            total += i * i
        return time.perf_counter() - started

    def factor(self, *timings) -> float:
        """Slow-down of an interval, from the probe timings around it."""
        return sum(timings) / len(timings) / self.NOMINAL_S


class Measurement:
    """Everything one run observed."""

    def __init__(self):
        self.setup_s = []
        self.unit_s = []        # filled by correct()
        self.raw_unit_s = []
        self.speed = []         # slow-down factor of each unit
        self._probes = []       # (before, after) probe timings per unit
        self._raw_ops = [[]]    # per unit: (timing id, raw seconds)
        self.latencies = {}     # timing id -> [seconds], successful ops
        self.cell_ids = set()   # timing ids that are experiment cells
        self.gate_ids = set()   # timing ids the workload gates on
        self.cells = {}         # cell id -> first simulated outcome
        self.cells_ok = 0
        self.attempted = 0
        self.failures = []      # "op id: reason"
        self.extras = {}        # workload-specific facts for the trace run

    def fail(self, op_id, reason) -> None:
        self.attempted += 1
        self.failures.append(f"{op_id}: {reason}")

    def op(self, op_id, seconds=None, outcome=None, expect=None,
           cell=True, gate=False, timing_id=None) -> None:
        """Record one attempted op.

        ``outcome`` is its simulated-outcome tuple (``check.run_tuple``);
        it must start with ``expect`` (a status) when given, and equal
        the op's first observation in this run. Latencies pool under
        ``timing_id`` (default: the op id) — the cold workloads time
        ``bfs`` as one kind of cell whichever graph it ran on.
        """
        if outcome is not None:
            if expect is not None and outcome.split("|")[0] != expect:
                return self.fail(op_id, f"status {outcome.split('|')[0]!r}"
                                        f", expected {expect!r}")
            first = self.cells.setdefault(op_id, outcome)
            if first != outcome:
                return self.fail(op_id, f"not deterministic: {outcome} "
                                        f"after {first}")
        self.attempted += 1
        timing_id = timing_id or op_id
        if cell:
            self.cells_ok += 1
            self.cell_ids.add(timing_id)
        if gate:
            self.gate_ids.add(timing_id)
        if seconds is not None:
            self._raw_ops[-1].append((timing_id, seconds))

    def close_unit(self, raw_s: float, before: float, after: float) -> None:
        """End the unit; ``before``/``after`` are the probe timings
        taken just outside it."""
        self.raw_unit_s.append(raw_s)
        self._probes.append((before, after))
        self._raw_ops.append([])

    def correct(self, probe: SpeedProbe) -> None:
        """Divide every unit, and the latencies of its ops, by the
        machine's slow-down around it: the mean of the probes at its two
        boundaries — its own pair plus the neighbouring units' probes
        taken at the same moments."""
        for index, raw_s in enumerate(self.raw_unit_s):
            timings = list(self._probes[index])
            if index > 0:
                timings.append(self._probes[index - 1][1])
            if index + 1 < len(self._probes):
                timings.append(self._probes[index + 1][0])
            factor = probe.factor(*timings)
            self.speed.append(factor)
            self.unit_s.append(raw_s / factor)
            for timing_id, seconds in self._raw_ops[index]:
                self.latencies.setdefault(timing_id, []).append(
                    seconds / factor)

    def check_expected(self, expected, complete: bool = True) -> None:
        """Compare the observed cells with a committed cell map.

        A run of fewer than three units (``--quick``, the traced run)
        does not reach every cell; pass ``complete=False`` and only the
        cells it did reach are compared.
        """
        if expected is None:
            return
        reached = set(self.cells) | (set(expected) if complete else set())
        for cell_id in sorted(reached):
            seen, want = self.cells.get(cell_id), expected.get(cell_id)
            if seen != want:
                self.failures.append(
                    f"{cell_id}: simulated outcome {seen}, expected {want}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def tail_percentile(count: int) -> float:
    """90, or the highest percentile >= 50 with ten samples beyond it."""
    if count <= 0:
        return 50.0
    return max(50.0, min(90.0, 100.0 * (count - 10) / count))


def end_to_end(m: Measurement) -> dict:
    """``name -> (value, sample count)`` for every end-to-end metric."""
    from repro.observability import peak_rss_bytes

    units = len(m.unit_s)
    unit = statistics.median(m.unit_s)
    timed = sum(len(values) for values in m.latencies.values())
    cell_medians = [statistics.median(values) for op_id, values
                    in m.latencies.items() if op_id in m.cell_ids]
    if cell_medians:
        cell_ms = 1e3 * statistics.geometric_mean(cell_medians)
    else:
        cell_ms = 1e3 * unit / (m.cells_ok / units)
    gate = [value for op_id, values in m.latencies.items()
            if op_id in m.gate_ids for value in values] or m.unit_s
    return {
        "setup_s": (statistics.median(m.setup_s), len(m.setup_s)),
        "cold_cell_s": (unit, units),
        "cells_per_s": (m.cells_ok / units / unit, units),
        "requests_per_s": (timed / units / unit, units),
        "cell_geomean_ms": (cell_ms, len(cell_medians) or units),
        "gate_p50_ms": (1e3 * statistics.median(gate), len(gate)),
        "gate_p90_ms": (1e3 * float(np.percentile(
            gate, tail_percentile(len(gate)))), len(gate)),
        "peak_rss_mb": (peak_rss_bytes() / 2 ** 20, 1),
    }


def root_span(recorder, name):
    """A root span of the traced run, or nothing when tracing is off."""
    if recorder is None:
        return nullcontext()
    return recorder.span(name, root=True)


def measure(workload, seconds: float, min_units: int,
            setup_reps: int) -> Measurement:
    """Set up ``setup_reps`` times (each from an empty cache), then run
    units for ``seconds`` (at least ``min_units``), then verify. Spans
    go to ``workload.recorder`` when the run is traced."""

    m = Measurement()
    probe = SpeedProbe()
    state = None
    try:
        for _ in range(setup_reps):
            if state is not None:
                workload.teardown(state)
                state = None
            env.empty_cache(workload.private)
            before = probe()
            with root_span(workload.recorder, "bench.setup"):
                started = time.perf_counter()
                state = workload.setup()
                raw = time.perf_counter() - started
            m.setup_s.append(raw / probe.factor(before, probe()))
        workload.run_units(state, seconds, min_units, m, probe)
        m.correct(probe)
        workload.verify(state, m)
    finally:
        if state is not None:
            workload.teardown(state)
    return m
