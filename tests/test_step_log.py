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
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    MPI,
    PREFETCH_RANDOM_SPEEDUP,
    TCP_SOCKETS,
    Cluster,
    ComputeWork,
    node_volumes,
    paper_cluster,
)
from repro.errors import CapacityError, DeadlineExceeded, SimulationError
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
