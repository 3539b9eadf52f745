"""The traced run: an in-memory span recorder plus outside-in wrappers.

Nothing under ``src/`` knows about this module. Spans come from two
places, both in ``bench/``:

1. the benchmark timing its own calls into public functions (set-up,
   units, HTTP round trips) with :meth:`Recorder.span`;
2. timing wrappers that :func:`tracing` installs on public callables of
   each layer *for the duration of the traced run only* and removes
   afterwards — so the untraced run that produces the end-to-end
   metrics executes the program exactly as shipped.

Counters are recorded at the same seams (edges generated, ``KernelWork``
edges, cache hits/misses, shard loads/evictions) so rates are measured
where the work happens. A span's *self time* is its duration minus the
part of that interval its child spans cover; self times of a tree sum to
its root, which is what lets the per-layer table telescope to the traced
wall time.
"""

from __future__ import annotations

import collections
import contextvars
import functools
import json
import os
import sys
import time
from contextlib import ExitStack, contextmanager

#: Engine family of each registry framework (``frameworks.<family>.run``).
FAMILY = {
    "native": "native",
    "graphlab": "vertex", "giraph": "vertex", "gps": "vertex",
    "graphx": "vertex",
    "combblas": "matrix", "kdt": "matrix",
    "socialite": "datalog", "socialite-published": "datalog",
    "galois": "task",
}

#: Tracer instants of ``datagen.cache`` / ``graph.sharded`` -> counter.
_INSTANT_COUNTERS = {
    "dataset-cache-hit": "datagen.cache_hits",
    "dataset-cache-miss": "datagen.cache_misses",
    "partition-load": "graph.shard_loads",
    "partition-evict": "graph.shard_evictions",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "label", "counts",
                 "_token")

    def __init__(self, name, parent, label=None):
        self.name = name
        self.parent = parent
        self.label = label
        self.counts = None
        self.start = self.end = 0.0
        self._token = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans and counters of one traced run, kept in memory.

    The current span lives in a ``ContextVar``, so every thread and
    every asyncio task has its own lineage: the two client lanes of
    ``serve_mixed`` never become each other's children.
    """

    def __init__(self):
        self.spans = []
        self._current = contextvars.ContextVar("bench-span", default=None)
        # Pool workers forked during the traced run inherit the wrappers
        # but their spans cannot come back: drop them instead of growing
        # a list in every worker for the whole run.
        os.register_at_fork(after_in_child=self._discard_spans)

    def _discard_spans(self) -> None:
        self.spans = collections.deque(maxlen=0)

    def open(self, name, label=None, root=False) -> Span:
        span = Span(name, None if root else self._current.get(), label)
        span._token = self._current.set(span)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._current.reset(span._token)

    @contextmanager
    def span(self, name, label=None, root=False):
        span = self.open(name, label, root)
        try:
            yield span
        finally:
            self.close(span)

    def count(self, name, value=1) -> None:
        """A counter tick at this instant, under the current span."""
        now = time.perf_counter()
        span = Span(name, self._current.get())
        span.start = span.end = now
        span.counts = {"n": value}
        self.spans.append(span)

    def dump(self, path, **meta) -> None:
        """Write every span (name, start, end, parent id, label, counts)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [[span.name, span.start, span.end,
                 index.get(id(span.parent), -1), span.label, span.counts]
                for span in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"meta": meta,
                       "columns": ["name", "start", "end", "parent",
                                   "label", "counts"],
                       "spans": rows}, handle)


# ---------------------------------------------------------------------------
# Self time and the per-(phase, name) summary
# ---------------------------------------------------------------------------


def _covered(children) -> float:
    """Length of the union of the child intervals."""
    total, reach = 0.0, float("-inf")
    for child in sorted(children, key=lambda span: span.start):
        if child.end > reach:
            total += child.end - max(child.start, reach)
            reach = child.end
    return total


class Row:
    __slots__ = ("self_s", "total_s", "calls", "counts")

    def __init__(self):
        self.self_s = self.total_s = 0.0
        self.calls = 0
        self.counts = {}


class Summary:
    """Aggregates of one recorder: rows and labelled durations."""

    def __init__(self):
        self.rows = {}       # (phase, name) -> Row
        self.labelled = {}   # (phase, name, label) -> [duration, ...]
        self.self_sum = 0.0  # over every span
        self.root_sum = 0.0  # over every root, any thread

    def row(self, phase, name) -> Row:
        return self.rows.get((phase, name)) or Row()

    def self_s(self, phase, *prefixes) -> float:
        return sum(row.self_s for (p, name), row in self.rows.items()
                   if p == phase and name.startswith(prefixes))

    def durations(self, phase, name_prefix) -> dict:
        """label -> durations, over labelled spans ``name_prefix*``."""
        out = {}
        for (p, name, label), values in self.labelled.items():
            if p == phase and name.startswith(name_prefix):
                out.setdefault(label, []).extend(values)
        return out


def summarize(spans) -> Summary:
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    bench_roots = [span for span in spans if span.parent is None
                   and span.name.startswith("bench.")]

    def phase_of(span) -> str:
        root = span
        while root.parent is not None:
            root = root.parent
        if not root.name.startswith("bench."):
            # Opened on a thread with no bench root (the service's own
            # thread during boot): attribute by time containment.
            for candidate in bench_roots:
                if candidate.start <= root.start <= candidate.end:
                    root = candidate
                    break
            else:
                return "other"
        return root.name.split(".")[1]

    summary = Summary()
    for span in spans:
        phase = phase_of(span)
        self_s = span.duration - _covered(children.get(id(span), ()))
        row = summary.rows.setdefault((phase, span.name), Row())
        row.self_s += self_s
        row.total_s += span.duration
        row.calls += 1
        for key, value in (span.counts or {}).items():
            row.counts[key] = row.counts.get(key, 0) + value
        if span.label is not None:
            summary.labelled.setdefault(
                (phase, span.name, span.label), []).append(span.duration)
        summary.self_sum += self_s
        if span.parent is None:
            summary.root_sum += span.duration
    return summary


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def render_layer_table(summary: Summary) -> str:
    """Self time by layer and span name; the rows sum to the traced wall."""
    lines = [f"{'layer':<12}{'span':<38}{'phase':<7}{'calls':>8}"
             f"{'self_s':>10}{'share':>8}"]
    total = summary.root_sum or 1.0
    by_layer = {}
    for (phase, name), row in summary.rows.items():
        by_layer.setdefault(layer_of(name), []).append((phase, name, row))
    for layer in sorted(by_layer,
                        key=lambda key: -sum(r.self_s for _, _, r
                                             in by_layer[key])):
        rows = by_layer[layer]
        layer_self = sum(row.self_s for _, _, row in rows)
        lines.append(f"{layer:<12}{'':<38}{'':<7}{'':>8}"
                     f"{layer_self:>10.3f}{layer_self / total:>8.1%}")
        for phase, name, row in sorted(rows, key=lambda r: -r[2].self_s):
            if row.self_s < 0.0005 and row.total_s < 0.0005:
                continue
            lines.append(f"{'':<12}{name:<38}{phase:<7}{row.calls:>8}"
                         f"{row.self_s:>10.3f}{row.self_s / total:>8.1%}")
    lines.append(f"{'sum of self times':<65}{summary.self_sum:>10.3f}")
    lines.append(f"{'traced wall (sum of root spans)':<65}"
                 f"{summary.root_sum:>10.3f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Installing and removing the wrappers
# ---------------------------------------------------------------------------


class _Patches:
    """Every replaced attribute, so each can be put back by identity."""

    def __init__(self):
        self.applied = []   # (owner, attribute name, original object)

    def replace(self, owner, name, new) -> None:
        self.applied.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def restore(self) -> None:
        while self.applied:
            owner, name, original = self.applied.pop()
            setattr(owner, name, original)


def _timed(recorder, name, function, after=None):
    """``function`` inside a span; ``after(span, result, args)`` adds
    counts at the seam."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.close(span)
        if after is not None:
            after(span, result, args)
        return result

    return wrapper


def _edges_of(span, result, _args) -> None:
    span.counts = {"edges": int(result.num_edges)}


def _kernel_edges(span, result, _args) -> None:
    span.counts = {"edges": float(result[1].edges)}


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def _patch_function(patches, original, wrapper) -> None:
    """Replace ``original`` under every name a loaded ``repro`` module
    holds it by — import-by-name call sites resolve their own module
    global, so patching only the defining module would miss them."""
    for module in _repro_modules():
        for attribute, value in list(vars(module).items()):
            if value is original:
                patches.replace(module, attribute, wrapper)


def _patch_method(patches, recorder, cls, attribute, name, after=None):
    """Replace a plain method, classmethod or read-only property."""
    raw = vars(cls)[attribute]
    if isinstance(raw, classmethod):
        new = classmethod(_timed(recorder, name, raw.__func__, after))
    elif isinstance(raw, property):
        new = property(_timed(recorder, name, raw.fget, after), doc=raw.__doc__)
    else:
        new = _timed(recorder, name, raw, after)
    patches.replace(cls, attribute, new)


def _cache_wrapper(recorder, original):
    """``get_or_build`` / ``get_or_build_dir``: time the ``build``
    argument as a child span, and name the lookup span by its outcome
    (a hit costs a manifest read + mmap; a miss also hashes, stores and
    reloads — the store cost is the miss span's self time)."""

    @functools.wraps(original)
    def wrapper(generator, params, build, *args, **kwargs):
        built = []

        def timed_build(*build_args, **build_kwargs):
            built.append(True)
            with recorder.span("datagen.build." + generator):
                return build(*build_args, **build_kwargs)

        span = recorder.open("datagen.cache_hit")
        try:
            return original(generator, params, timed_build, *args, **kwargs)
        finally:
            if built:
                span.name = "datagen.cache_store"
            recorder.close(span)

    return wrapper


def _run_wrapper(recorder, original):
    """``harness.run``: one span per cell, named by engine family and
    labelled ``<algorithm>.<framework>``; the status rides as a count so
    the fixed cost of immediately-unsupported cells can be read off."""

    @functools.wraps(original)
    def wrapper(spec, *args, **kwargs):
        family = FAMILY.get(spec.framework, "other")
        span = recorder.open(f"frameworks.{family}.run",
                             label=f"{spec.algorithm}.{spec.framework}")
        try:
            result = original(spec, *args, **kwargs)
            span.counts = {result.status: 1}
            return result
        finally:
            recorder.close(span)

    return wrapper


def _instant_hook(recorder):
    from repro.observability import NullTracer

    class InstantHook(NullTracer):
        """Counts the cache/shard instants the program already emits."""

        def instant(self, name, node=None, **attrs):
            counter = _INSTANT_COUNTERS.get(name)
            if counter is not None:
                recorder.count(counter)

    return InstantHook()


def patch_targets() -> list:
    """``(owner, attribute)`` of every attribute :func:`tracing` replaces
    on a class (module-level functions are found by identity scan)."""
    from repro.cluster.network import Fabric
    from repro.cluster.simulator import Cluster
    from repro.datagen.stream import RMATStream
    from repro.graph import CSRGraph
    from repro.graph.sharded import CSRPartition, ShardedCSRGraph
    from repro.harness.supervisor import SupervisorPool
    from repro.harness.sweep import SweepJournal
    from repro.kernels.registry import KERNELS

    targets = [
        (CSRGraph, "from_edges", "graph.csr_build", _edges_of),
        (RMATStream, "chunk", "datagen.stream_chunk", None),
        (Cluster, "superstep", "cluster.superstep", None),
        (Fabric, "exchange", "cluster.exchange", None),
        (SweepJournal, "append", "harness.journal_append", None),
        (SweepJournal, "load", "harness.journal_load", None),
        (SupervisorPool, "start", "harness.pool_start", None),
        (CSRPartition, "targets", "graph.shard_access", None),
    ]
    targets += [(ShardedCSRGraph, attribute, "graph.shard_access", None)
                for attribute in ("neighbors", "neighbors_of_many",
                                  "frontier_neighbors_unique", "targets",
                                  "sources", "reverse")]
    seen = set()
    for kernel in KERNELS.values():
        for attribute, name, after in (
                ("prepare", "kernels.prepare", None),
                ("step", "kernels.step", _kernel_edges)):
            owner = next(cls for cls in kernel.__mro__
                         if attribute in vars(cls))
            if owner.__module__.startswith("repro.kernels.base") \
                    or (owner, attribute) in seen:
                continue
            seen.add((owner, attribute))
            targets.append((owner, attribute, name, after))
    return targets


def patch_functions() -> list:
    """``(original function, span name, after)`` for module-level seams."""
    from repro.datagen import rmat
    from repro.graph import partition, sharded

    return [
        (rmat.rmat_edges, "datagen.rmat_edges", _edges_of),
        (sharded.build_sharded_csr, "graph.sharded_build", None),
        (partition.partition_vertices_1d, "graph.partition", None),
        (partition.partition_edges_1d, "graph.partition", None),
        (partition.partition_2d, "graph.partition", None),
        (partition.partition_vertex_cut, "graph.partition", None),
    ]


@contextmanager
def tracing(recorder: Recorder):
    """Install every wrapper and hook; remove them all on exit.

    Yields the instant hook, which callers hand to program entry points
    that take a ``tracer=`` and would otherwise shadow the module-level
    hook (``Sweep``).
    """
    from repro.datagen import cache
    from repro.graph import sharded
    from repro.harness import runner

    patches = _Patches()
    hook = _instant_hook(recorder)
    with ExitStack() as stack:
        stack.callback(patches.restore)
        for cls, attribute, name, after in patch_targets():
            _patch_method(patches, recorder, cls, attribute, name, after)
        for original, name, after in patch_functions():
            _patch_function(patches, original,
                            _timed(recorder, name, original, after))
        for original in (cache.get_or_build, cache.get_or_build_dir):
            _patch_function(patches, original,
                            _cache_wrapper(recorder, original))
        _patch_function(patches, runner.run, _run_wrapper(recorder, runner.run))
        stack.enter_context(cache.use_tracer(hook))
        stack.enter_context(sharded.use_tracer(hook))
        yield hook
