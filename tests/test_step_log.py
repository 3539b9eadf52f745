"""The step log: a run charged in batches equals the run charged per row.

Without a tracer, deadline or chaos, :class:`~repro.cluster.Cluster`
appends each superstep, tick and iteration mark to a columnar log and
charges it in one vectorized pass when something reads the clock or the
metrics. With a tracer (or a deadline) it charges every row as it comes.
Both must produce the same bits: every ``RunMetrics`` field, every
``StepRecord``, the iteration times and the clock — and a row that fails
a check must raise the same error at the same superstep either way.

The reductions the batch uses are pinned too: each ``(S, P)`` or
``(S, P, P)`` form must equal the per-row form it replaces, bit for bit.
So must :meth:`~repro.cluster.Cluster.supersteps`, which takes a chunk of
S rows (with their buffers, iteration marks and traced spans) in one
call: it equals the S ``superstep`` calls it stands for, with a tracer,
a deadline and a fault schedule too.
"""

import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import FaultSchedule
from repro.chaos.recovery import checkpointing
from repro.cluster import (
    MPI,
    PREFETCH_RANDOM_SPEEDUP,
    TCP_SOCKETS,
    Cluster,
    ComputeWork,
    node_volumes,
    paper_cluster,
)
from repro.errors import (
    CapacityError,
    DeadlineExceeded,
    ReproError,
    SimulationError,
)
from repro.observability import NULL_TRACER, Tracer

NODES = (1, 3, 9, 17)
REDUCTION_NODES = (1, 3, 8, 9, 17, 64)
#: The knob settings a step draws from (efficiency, cores, prefetch,
#: memory parallelism), as framework profiles set them.
KNOBS = ((1.0, 1.0, False, 1.0), (0.3, 4 / 24, False, 4 / 24),
         (0.55, 1.0, True, 1.0), (0.12, 0.5, True, 0.5))
OPS = ("step", "tick", "mark", "allocate", "read")


def _bits(value):
    """``value`` with every float as its exact bit pattern."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.tobytes()
    if isinstance(value, (list, tuple)):
        return [_bits(item) for item in value]
    return value


def snapshot(cluster: Cluster) -> dict:
    """Everything the log materializes, bit for bit."""
    metrics = cluster.metrics()
    state = {field.name: _bits(getattr(metrics, field.name))
             for field in dataclasses.fields(metrics)
             if field.name not in ("steps", "_over_busy_warned")}
    state["steps"] = [_bits(list(dataclasses.astuple(step)))
                      for step in metrics.steps]
    state["elapsed_s"] = _bits(cluster.elapsed_s)
    return state


def _step_args(nodes: int, seed: int, bad: str = None) -> dict:
    """One superstep's arguments, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    knobs = KNOBS[rng.integers(len(KNOBS))]
    columns = [rng.random(nodes) * 10.0 ** rng.integers(0, 12, nodes)
               for _ in range(3)]
    for column in columns:
        column[rng.random(nodes) < 0.2] = 0.0
    if rng.random() < 0.15:     # a shared scalar instead of a column
        columns[rng.integers(3)] = float(rng.random() * 1e9)
    traffic = None
    if rng.random() < 0.8:
        traffic = rng.random((nodes, nodes)) * 10.0 ** rng.integers(
            0, 10, (nodes, nodes))
        traffic[rng.random((nodes, nodes)) < 0.3] = 0.0
    args = dict(overlap=bool(rng.random() < 0.5),
                layer=(MPI, TCP_SOCKETS)[int(rng.random() < 0.2)],
                overhead_s=float(rng.choice([0.0, 1e-4, 5e-3, 0.9])))
    if bad is not None:
        node = int(rng.integers(nodes))
        columns = [np.broadcast_to(column, (nodes,)).copy()
                   for column in columns]
        if bad == "negative-work":
            columns[rng.integers(3)][node] = -1.0
        elif bad == "nan-work":
            columns[rng.integers(3)][node] = np.nan
        elif bad == "huge-work":
            columns[0][node] = 1e306
        elif bad == "negative-traffic":
            traffic = np.zeros((nodes, nodes)) if traffic is None else traffic
            traffic[node, (node + 1) % nodes] = -5.0
        elif bad == "inf-traffic" and nodes > 1:   # off the diagonal
            traffic = np.zeros((nodes, nodes)) if traffic is None else traffic
            traffic[node, (node + 1) % nodes] = np.inf
        elif bad == "inf-traffic":
            columns[1][node] = np.inf
        elif bad == "nan-overhead":
            args["overhead_s"] = float("nan")
    streamed, random, ops = columns
    args["work"] = ComputeWork(
        streamed_bytes=streamed, random_bytes=random, ops=ops,
        cpu_efficiency=knobs[0], cores_fraction=knobs[1],
        prefetch=knobs[2], memory_parallelism=knobs[3])
    args["traffic"] = traffic
    return args


def play(cluster: Cluster, ops, bad=None, read_every_row=False) -> None:
    """Apply ``ops`` (``(kind, seed)`` pairs) to ``cluster``; ``bad`` is
    ``(position, badness)`` for one poisoned superstep."""
    for position, (kind, seed) in enumerate(ops):
        if kind == "step":
            poison = bad[1] if bad is not None and bad[0] == position else None
            cluster.superstep(**_step_args(cluster.num_nodes, seed, poison))
        elif kind == "tick":
            cluster.tick(float(np.random.default_rng(seed).random() * 3.0))
        elif kind == "mark":
            cluster.mark_iteration()
        elif kind == "allocate":
            node = seed % cluster.num_nodes
            cluster.allocate(node, f"buffer-{seed % 3}", float(seed % 1000))
        else:
            cluster.elapsed_s     # a read charges the pending rows
        if read_every_row:
            cluster.elapsed_s


def _cluster(nodes, scale_factor=1.0, **kwargs) -> Cluster:
    return Cluster(paper_cluster(nodes), scale_factor=scale_factor,
                   **kwargs)


programs = st.lists(st.tuples(st.sampled_from(OPS),
                              st.integers(0, 2**31 - 1)),
                    min_size=1, max_size=30)


@settings(max_examples=40, deadline=None)
@given(nodes=st.sampled_from(NODES), ops=programs,
       scale_factor=st.sampled_from([1.0, 2e4, 3e6]))
def test_lazy_equals_eager(nodes, ops, scale_factor):
    lazy = _cluster(nodes, scale_factor, tracer=NULL_TRACER)
    play(lazy, ops)
    traced = _cluster(nodes, scale_factor, tracer=Tracer())
    play(traced, ops)
    per_row = _cluster(nodes, scale_factor)
    play(per_row, ops, read_every_row=True)
    assert snapshot(lazy) == snapshot(traced) == snapshot(per_row)
    # The tracer's superstep spans are the same steps.
    spans = traced.tracer.spans_named("superstep")
    assert [span.attrs["index"] for span in spans] == \
        [step.index for step in lazy.metrics().steps]


@settings(max_examples=30, deadline=None)
@given(nodes=st.sampled_from(NODES), ops=programs,
       fraction=st.floats(0.05, 0.95))
def test_deadline_raises_the_same_way(nodes, ops, fraction):
    free = _cluster(nodes)
    play(free, ops)
    budget = fraction * free.elapsed_s
    if budget <= 0:
        return
    outcomes = []
    for tracer in (NULL_TRACER, Tracer()):
        cluster = _cluster(nodes, tracer=tracer, deadline_s=budget)
        with pytest.raises(DeadlineExceeded) as caught:
            play(cluster, ops)
        outcomes.append((caught.value.elapsed_s.hex(), str(caught.value),
                         snapshot(cluster)))
    assert outcomes[0] == outcomes[1]
    assert float.fromhex(outcomes[0][0]) > budget


@settings(max_examples=40, deadline=None)
@given(nodes=st.sampled_from(NODES), ops=programs,
       badness=st.sampled_from(["negative-work", "nan-work", "huge-work",
                                "negative-traffic", "inf-traffic",
                                "nan-overhead"]),
       where=st.integers(0, 29))
def test_bad_step_raises_at_the_same_superstep(nodes, ops, badness, where):
    ops = ops + [("step", 7)]
    steps = [position for position, (kind, _) in enumerate(ops)
             if kind == "step"]
    bad = (steps[where % len(steps)], badness)
    outcomes = []
    for tracer in (NULL_TRACER, Tracer()):
        cluster = _cluster(nodes, 3e6, tracer=tracer)
        with pytest.raises(SimulationError) as caught:
            play(cluster, ops, bad=bad)
        assert not isinstance(caught.value, CapacityError)
        outcomes.append((str(caught.value), snapshot(cluster)))
    assert outcomes[0] == outcomes[1]
    # Nothing of the refused step (or after it) was charged.
    recorded = outcomes[0][1]["steps"]
    assert len(recorded) == steps.index(bad[0])


def per_step_reference(nodes: int, scale_factor: float, ops) -> dict:
    """The per-node, per-step charging the log replaced, as a loop over
    Python scalars: the reference the batched pass must equal."""
    spec = paper_cluster(nodes).node
    cores, factor = spec.cores, scale_factor
    totals = dict.fromkeys(
        ("total_time_s", "busy_core_seconds", "total_core_seconds",
         "bytes_sent_total", "memory_bytes_total", "peak_network_bandwidth",
         "compute_time_s", "comm_time_s", "ops_total",
         "streamed_bytes_total", "random_bytes_total", "memory_time_s",
         "cpu_time_s", "overhead_time_s", "tick_time_s"), 0.0)
    per_node = {name: np.zeros(nodes) for name in (
        "node_streamed_bytes", "node_random_bytes", "node_ops",
        "node_bytes_sent")}
    steps, iteration_times, started = [], [], 0.0
    for kind, seed in ops:
        if kind == "tick":
            seconds = float(np.random.default_rng(seed).random() * 3.0)
            totals["total_time_s"] += seconds
            totals["tick_time_s"] += seconds
            totals["total_core_seconds"] += seconds * nodes * cores
        elif kind == "mark":
            iteration_times.append(totals["total_time_s"] - started)
            started = totals["total_time_s"]
        if kind != "step":
            continue
        args = _step_args(nodes, seed)
        work, layer = args["work"], args["layer"]
        columns = [np.broadcast_to(column, (nodes,)) for column in
                   (work.streamed_bytes, work.random_bytes, work.ops)]
        charged = []
        for node in range(nodes):
            streamed, random, ops_ = (float(column[node]) * factor
                                      for column in columns)
            scale = work.memory_parallelism ** 0.7
            random_bw = spec.random_bandwidth * scale
            if work.prefetch:
                random_bw = min(random_bw * PREFETCH_RANDOM_SPEEDUP,
                                spec.stream_bandwidth * scale)
            memory = streamed / (spec.stream_bandwidth * scale) \
                + random / random_bw
            cpu = 0.0 if ops_ == 0 else ops_ / spec.compute_rate(
                work.cpu_efficiency, work.cores_fraction)
            charged.append((streamed, random, ops_, memory, cpu))
        streamed, random, ops_, memory, cpu = np.array(list(zip(*charged)))
        compute = np.maximum(memory, cpu)
        traffic = args["traffic"]
        wire = layer.wire_bytes(np.zeros((nodes, nodes)) if traffic is None
                                else traffic * factor)
        wire.flat[::nodes + 1] = 0.0
        bytes_out = wire.sum(axis=1)
        sent = float(bytes_out.sum())
        volume = np.maximum(bytes_out, wire.sum(axis=0))
        comm = np.where(volume > 0, volume / layer.sustained_bandwidth(spec)
                        + layer.latency_s, 0.0)
        peak = layer.effective_bandwidth(spec) if volume.max() > 0 else 0.0
        node_times = np.maximum(compute, comm) if args["overlap"] \
            else compute + comm
        time = float(node_times.max()) + args["overhead_s"]
        step = (time, float(compute.max()), float(comm.max()), sent, peak,
                float(memory.max()), float(cpu.max()), args["overhead_s"])
        steps.append((len(steps), *step, args["overlap"]))
        for name, value in zip(
                ("total_time_s", "compute_time_s", "comm_time_s",
                 "bytes_sent_total", "memory_time_s", "cpu_time_s",
                 "overhead_time_s"),
                (time, step[1], step[2], sent, step[5], step[6], step[7])):
            totals[name] += value
        totals["busy_core_seconds"] += sum(
            busy * work.cores_fraction * cores for busy in compute.tolist())
        totals["total_core_seconds"] += time * nodes * cores
        totals["memory_bytes_total"] += float(streamed.sum()) \
            + float(random.sum())
        totals["ops_total"] += float(ops_.sum())
        totals["streamed_bytes_total"] += float(streamed.sum())
        totals["random_bytes_total"] += float(random.sum())
        totals["peak_network_bandwidth"] = max(
            totals["peak_network_bandwidth"], peak)
        for name, value in zip(per_node, (streamed, random, ops_,
                                          bytes_out)):
            per_node[name] += value
    state = {name: _bits(value) for name, value in totals.items()}
    state.update({name: _bits(value) for name, value in per_node.items()})
    state["iteration_times"] = _bits(iteration_times)
    state["steps"] = [_bits(list(step)) for step in steps]
    return state


@settings(max_examples=30, deadline=None)
@given(nodes=st.sampled_from(NODES), ops=programs,
       scale_factor=st.sampled_from([1.0, 2e4, 3e6]))
def test_log_equals_the_per_step_loop(nodes, ops, scale_factor):
    cluster = _cluster(nodes, scale_factor)
    play(cluster, ops)
    state = snapshot(cluster)
    expected = per_step_reference(nodes, scale_factor, ops)
    assert {name: state[name] for name in expected} == expected


def test_bad_step_raises_before_a_later_capacity_error():
    cluster = _cluster(2)
    cluster.superstep(ComputeWork(streamed_bytes=np.array([1e9, 2e9])))
    with pytest.raises(SimulationError, match="finite"):
        cluster.superstep(ComputeWork(ops=np.array([1.0, np.nan])))
    with pytest.raises(CapacityError):
        cluster.allocate(0, "too-big", 1e15)
    assert len(cluster.metrics().steps) == 1


def test_full_log_is_charged_and_equal():
    """At 64 nodes a row is 34 KB, so the log holds a handful of rows
    and a 40-step run charges it many times over."""
    ops = [("step", seed) if seed % 5 else ("mark", seed)
           for seed in range(40)]
    lazy, traced = _cluster(64, 2e4), _cluster(64, 2e4, tracer=Tracer())
    play(lazy, ops)
    play(traced, ops)
    assert len(lazy._rows) < 10
    assert snapshot(lazy) == snapshot(traced)


def test_superstep_returns_nothing():
    assert _cluster(1).superstep(ComputeWork(ops=1.0)) is None


# -- the batch's reductions equal the per-row ones, bit for bit -------------


def _values(rng, shape):
    """Non-integer values over many magnitudes, where summation order
    shows in the last bits."""
    return rng.random(shape) * 10.0 ** rng.integers(0, 15, shape)


@pytest.mark.parametrize("nodes", REDUCTION_NODES)
def test_reductions_match_the_per_row_forms(nodes):
    rng = np.random.default_rng(nodes)
    # A column slice of the log's flat rows, as the batch reads it.
    rows = _values(rng, (37, 3 * nodes))[:, nodes:2 * nodes]
    stack = _values(rng, (37, nodes, nodes))
    cores_fraction = rng.random((37, 1))

    def same(batch, per_row):
        assert np.asarray(batch).tobytes() == \
            np.asarray(per_row, dtype=np.float64).tobytes()

    # per-step totals and maxima over nodes
    same(rows.sum(axis=-1), [float(row.sum()) for row in rows])
    same(rows.max(axis=-1), [float(row.max()) for row in rows])
    # a stack's row sums (bytes out) and column sums (bytes in)
    same(stack.sum(axis=-1), [matrix.sum(axis=1) for matrix in stack])
    same(stack.sum(axis=1), [matrix.sum(axis=0) for matrix in stack])
    same(stack.sum(axis=-1).sum(axis=-1),
         [float(matrix.sum(axis=1).sum()) for matrix in stack])
    # sent + received per node, against the per-node slices
    for matrix in stack[:5]:
        same(node_volumes(matrix),
             [matrix[node, :].sum() + matrix[:, node].sum()
              for node in range(nodes)])
    # busy core-seconds: Python's left-to-right sum over nodes
    busy = rows * cores_fraction * 24
    same(np.add.accumulate(busy, axis=1)[:, -1],
         [sum(row.tolist()) for row in busy])
    # running totals: one += per step, and per node
    total, expected = 0.5, 0.5
    for value in rows[:, 0].tolist():
        expected += value
    same(np.add.accumulate(np.concatenate(([total], rows[:, 0])))[-1],
         expected)
    node_total = np.zeros(nodes)
    for row in rows:
        node_total += row
    same(np.add.accumulate(np.concatenate((np.zeros((1, nodes)), rows)),
                           axis=0)[-1], node_total)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflow_of_finite_entries_raises_when_charged():
    """Entries that are finite at paper scale but overflow a per-step
    sum are deferred; charging the log raises the step's own error and
    keeps the steps before it."""
    outcomes = []
    for tracer in (NULL_TRACER, Tracer()):
        cluster = _cluster(2, tracer=tracer)
        with pytest.raises(SimulationError, match="superstep 1: .* finite"):
            cluster.superstep(ComputeWork(ops=np.array([1.0, 2.0])))
            cluster.superstep(ComputeWork(streamed_bytes=np.full(2, 1e308)))
            cluster.superstep(ComputeWork(ops=np.array([3.0, 4.0])))
            cluster.metrics()
        outcomes.append(snapshot(cluster))
    assert outcomes[0] == outcomes[1]
    assert len(outcomes[0]["steps"]) == 1


# -- many rows in one call equal one call per row ---------------------------

BATCH_NODES = (1, 3, 17, 64)
BADNESS = ("negative-work", "nan-work", "huge-work", "negative-traffic",
           "inf-traffic", "nan-overhead")


def _chunk(nodes: int, seed: int, rows: int, bad=None, huge=None) -> dict:
    """``Cluster.supersteps`` arguments for ``rows`` rows, drawn from
    ``seed``: ``bad`` is ``(row, badness)`` for one poisoned row, ``huge``
    a row whose buffer cannot fit."""
    rng = np.random.default_rng(seed)
    knobs = KNOBS[rng.integers(len(KNOBS))]
    columns = [_values(rng, (rows, nodes)) % 1e12 for _ in range(3)]
    traffic = _values(rng, (rows, nodes, nodes)) % 1e10
    traffic[rng.random((rows, nodes, nodes)) < 0.3] = 0.0
    sizes = _values(rng, (rows, nodes)) % 1e6
    args = dict(overlap=bool(rng.random() < 0.5),
                layer=(MPI, TCP_SOCKETS)[int(rng.random() < 0.2)],
                overhead_s=float(rng.choice([0.0, 1e-4, 0.9])))
    if bad is not None:
        row, badness = bad
        node = int(rng.integers(nodes))
        if badness == "negative-work":
            columns[rng.integers(3)][row, node] = -1.0
        elif badness == "nan-work":
            columns[rng.integers(3)][row, node] = np.nan
        elif badness == "huge-work":
            columns[0][row, node] = 1e306
        elif badness == "negative-traffic":
            traffic[row, node, (node + 1) % nodes] = -5.0
        elif badness == "inf-traffic":
            traffic[row, node, (node + 1) % nodes] = np.inf
        else:
            args["overhead_s"] = float("nan")
    if huge is not None:
        sizes[huge, rng.integers(nodes)] = 1e18
    args["work"] = ComputeWork(
        streamed_bytes=columns[0], random_bytes=columns[1], ops=columns[2],
        cpu_efficiency=knobs[0], cores_fraction=knobs[1], prefetch=knobs[2],
        memory_parallelism=knobs[3])
    args["traffic"] = traffic
    args["buffers"] = ("message-buffers", sizes)
    args["marks"] = np.sort(rng.integers(0, rows + 1,
                                         int(rng.integers(0, rows + 1))))
    return args


def _trace(rows: int, marks) -> list:
    """The tracer events ``one_call_per_row`` opens and counts."""
    at = np.bincount(marks, minlength=rows + 1)
    events = []
    for row in range(rows):
        events += [("mark",)] * at[row] + [
            ("count", "rows", 1.0), ("open", "round", {"index": row}),
            ("alloc", row), ("instant", "taken", {"row": row}),
            ("step", row), ("close",)]
    return events + [("mark",)] * at[rows]


def one_call_per_row(cluster: Cluster, args: dict) -> None:
    """What ``cluster.supersteps(**args)`` stands for, row by row."""
    work, (label, sizes), tracer = args["work"], args["buffers"], \
        cluster.tracer
    rows = len(sizes)
    at = np.bincount(args["marks"], minlength=rows + 1)
    for row in range(rows):
        for _ in range(at[row]):
            cluster.mark_iteration()
        tracer.count("rows", 1.0)
        with tracer.span("round", index=row):
            cluster.allocate_all(label, sizes[row])
            tracer.instant("taken", row=row)
            cluster.superstep(
                dataclasses.replace(work, streamed_bytes=work.streamed_bytes[row],
                                    random_bytes=work.random_bytes[row],
                                    ops=work.ops[row]),
                args["traffic"][row], overlap=args["overlap"],
                layer=args["layer"], overhead_s=args["overhead_s"])
    for _ in range(at[rows]):
        cluster.mark_iteration()


def state(cluster: Cluster) -> dict:
    """The snapshot plus memory, spans, counters and recovery."""
    tracer = cluster.tracer
    out = {"memory": [(cluster.memory(node).peak_bytes.hex(),
                       cluster.memory(node).breakdown())
                      for node in range(cluster.num_nodes)],
           "recovery": cluster.recovery_stats().to_dict()}
    if tracer.enabled:
        out["spans"] = [[span.name, span.depth, span.node,
                         _bits(span.start_s), _bits(span.end_s),
                         _bits(list(span.attrs.items()))]
                        for span in tracer.spans]
        out["counters"] = {name: _bits(total) for name, total
                           in tracer.counters.items() if name != "peak-rss"}
    with contextlib.suppress(ReproError):
        out.update(snapshot(cluster))
    return out


def both_ways(make, args: dict, prefix=()) -> list:
    """``(error, state)`` of the rows taken in one call and one call per
    row, each on a fresh ``make()`` cluster after the ``prefix`` ops."""
    outcomes = []
    for batched in (True, False):
        cluster = make()
        play(cluster, prefix)
        error = None
        try:
            if batched:
                cluster.supersteps(**args, trace=_trace(
                    len(args["buffers"][1]), args["marks"]))
            else:
                one_call_per_row(cluster, args)
        except ReproError as caught:
            error = (type(caught).__name__, str(caught),
                     getattr(caught, "elapsed_s", 0.0).hex())
        outcomes.append((error, state(cluster)))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


def _maker(nodes, tracer=False, faults=None, **kwargs):
    def make():
        return _cluster(nodes, 2e4, tracer=Tracer() if tracer else None,
                        faults=None if faults is None
                        else FaultSchedule.from_spec(faults, seed=3),
                        recovery=None if faults is None else checkpointing(),
                        enforce_memory=True, **kwargs)
    return make


@settings(max_examples=40, deadline=None)
@given(nodes=st.sampled_from(BATCH_NODES), seed=st.integers(0, 2**31 - 1),
       rows=st.integers(0, 40), prefix=programs, tracer=st.booleans())
def test_one_call_equals_a_call_per_row(nodes, seed, rows, prefix, tracer):
    error, _ = both_ways(_maker(nodes, tracer), _chunk(nodes, seed, rows),
                         prefix)
    assert error is None


@settings(max_examples=30, deadline=None)
@given(nodes=st.sampled_from(BATCH_NODES), seed=st.integers(0, 2**31 - 1),
       rows=st.integers(1, 30), fraction=st.floats(0.05, 0.95),
       tracer=st.booleans())
def test_a_deadline_raises_at_the_same_row(nodes, seed, rows, fraction,
                                           tracer):
    args = _chunk(nodes, seed, rows)
    free = _cluster(nodes, 2e4)
    free.supersteps(**args)
    error, _ = both_ways(_maker(nodes, tracer,
                                deadline_s=fraction * free.elapsed_s), args)
    assert error[0] == "DeadlineExceeded"


@settings(max_examples=40, deadline=None)
@given(nodes=st.sampled_from(BATCH_NODES), seed=st.integers(0, 2**31 - 1),
       rows=st.integers(1, 30), where=st.integers(0, 29),
       badness=st.sampled_from(BADNESS), tracer=st.booleans())
def test_a_bad_row_raises_at_the_same_superstep(nodes, seed, rows, where,
                                                badness, tracer):
    if badness == "inf-traffic" and nodes == 1:
        badness = "huge-work"       # the diagonal never reaches the wire
    bad = where % rows
    error, after = both_ways(_maker(nodes, tracer),
                             _chunk(nodes, seed, rows, (bad, badness)))
    assert error[0] == "SimulationError"
    if badness != "nan-overhead":
        assert len(after["steps"]) == bad


@settings(max_examples=30, deadline=None)
@given(nodes=st.sampled_from(BATCH_NODES), seed=st.integers(0, 2**31 - 1),
       rows=st.integers(1, 30), where=st.integers(0, 29),
       tracer=st.booleans())
def test_an_oversized_buffer_raises_the_same_capacity_error(
        nodes, seed, rows, where, tracer):
    huge = where % rows
    error, after = both_ways(_maker(nodes, tracer),
                             _chunk(nodes, seed, rows, huge=huge))
    assert error[0] == "CapacityError"
    assert len(after["steps"]) == huge


@settings(max_examples=20, deadline=None)
@given(nodes=st.sampled_from((3, 17)), seed=st.integers(0, 2**31 - 1),
       rows=st.integers(1, 30), tracer=st.booleans(),
       faults=st.sampled_from([
           "straggler(node=1, factor=3)", "latency(factor=2, at=2:)",
           "drop(p=0.2)", "crash(node=2, superstep=3)"]))
def test_a_fault_schedule_sees_the_same_rows(nodes, seed, rows, tracer,
                                             faults):
    both_ways(_maker(nodes, tracer, faults), _chunk(nodes, seed, rows))
