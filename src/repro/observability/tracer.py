"""Span-based flight recorder on the simulator's clock.

A :class:`Tracer` records three kinds of events:

* **spans** — named intervals with attributes, nested via a stack
  (``with tracer.span("superstep", index=3): ...``). Timestamps come
  from a bound clock — the simulated cluster binds its own elapsed-time
  clock, so span durations are *simulated* seconds, directly comparable
  to :class:`~repro.cluster.metrics.RunMetrics` aggregates;
* **counters** — monotone named totals (``bytes_sent``, ``messages``,
  ``frontier_size``), each bump also recorded as a timestamped sample
  so exporters can plot counter tracks;
* **instants** — zero-duration markers for discrete facts (a rule
  fired, a frontier level closed).

The default at every instrumented call site is :data:`NULL_TRACER`, a
shared :class:`NullTracer` whose methods do nothing and allocate
nothing — the zero-overhead-off path.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Span:
    """One recorded interval (or instant, when ``end_s == start_s``)."""

    name: str
    start_s: float
    end_s: float = None          # None while the span is still open
    node: int = None             # simulated node id, None = driver-level
    parent: int = None           # index of the enclosing span, None = root
    depth: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return (self.end_s if self.end_s is not None else self.start_s) \
            - self.start_s


class _NullSpanHandle:
    """Reusable no-op context manager returned by the null tracer."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpanHandle()


class NullTracer:
    """Does nothing, costs (almost) nothing; the default everywhere."""

    enabled = False

    def bind_clock(self, clock) -> None:
        pass

    def span(self, name: str, node: int = None, **attrs):
        return _NULL_SPAN

    def record(self, name: str, start_s: float, duration_s: float,
               node: int = None, **attrs) -> None:
        pass

    def instant(self, name: str, node: int = None, **attrs) -> None:
        pass

    def count(self, name: str, value: float = 1.0) -> None:
        pass

    def gauge_max(self, name: str, value: float) -> None:
        pass

    def advance(self, seconds: float) -> None:
        pass

    def merge_spans(self, spans, worker=None) -> None:
        pass


NULL_TRACER = NullTracer()


class _SpanHandle:
    """Context manager that opens/closes one span on a tracer."""

    __slots__ = ("_tracer", "_index")

    def __init__(self, tracer: "Tracer", index: int):
        self._tracer = tracer
        self._index = index

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._tracer._close(self._index)
        return False


class Tracer(NullTracer):
    """Recording tracer: collects spans, counters and instants.

    One tracer observes one run. The clock starts as a manual step
    counter; the simulated cluster binds its elapsed-seconds clock on
    construction, after which all timestamps are simulated seconds.
    """

    enabled = True

    def __init__(self):
        self._spans: list[Span] = []
        self._counters: dict[str, float] = {}
        self._samples: list[tuple[float, str, float]] = []
        self._stack: list[int] = []
        self._clock = None
        self._manual = 0.0

    # -- clock -------------------------------------------------------------

    def bind_clock(self, clock) -> None:
        """Use ``clock()`` (e.g. the cluster's elapsed seconds) for time.

        Every event reads the clock before it is recorded, and so does
        every read of :attr:`spans`, :attr:`counters` and
        :attr:`counter_samples`: the cluster's clock charges its pending
        rows first, so their spans come before the event and a reader
        sees them."""
        self._clock = clock

    def now(self) -> float:
        return self._clock() if self._clock is not None else self._manual

    def advance(self, seconds: float) -> None:
        """Step the manual clock (only used when no clock is bound)."""
        self._manual += seconds

    # -- spans -------------------------------------------------------------

    def span(self, name: str, node: int = None, **attrs) -> _SpanHandle:
        """Open a nested span; close it by exiting the context manager."""
        start = self.now()
        parent = self._stack[-1] if self._stack else None
        depth = self._spans[parent].depth + 1 if parent is not None else 0
        self._spans.append(Span(name=name, start_s=start, node=node,
                                parent=parent, depth=depth, attrs=attrs))
        index = len(self._spans) - 1
        self._stack.append(index)
        return _SpanHandle(self, index)

    def _close(self, index: int) -> None:
        self._spans[index].end_s = self.now()
        while self._stack and self._stack[-1] >= index:
            self._stack.pop()

    def record(self, name: str, start_s: float, duration_s: float,
               node: int = None, **attrs) -> None:
        """Add an already-timed span (children of the open span)."""
        parent = self._stack[-1] if self._stack else None
        depth = self._spans[parent].depth + 1 if parent is not None else 0
        self._spans.append(Span(name=name, start_s=start_s,
                                end_s=start_s + duration_s, node=node,
                                parent=parent, depth=depth, attrs=attrs))

    def instant(self, name: str, node: int = None, **attrs) -> None:
        """Zero-duration marker at the current clock."""
        self.record(name, self.now(), 0.0, node=node, **attrs)

    def merge_spans(self, spans, worker=None) -> None:
        """Graft another tracer's spans under the currently open span.

        The parallel sweep executor runs one tracer per worker cell and
        ships the spans back; merging re-parents each worker tree onto
        this tracer's open span (usually ``sweep``), preserves internal
        parent/child structure via index offsetting, and stamps every
        span with ``worker=`` so a merged timeline still says who ran
        what.
        """
        offset = len(self.spans)
        graft_parent = self._stack[-1] if self._stack else None
        graft_depth = self._spans[graft_parent].depth + 1 \
            if graft_parent is not None else 0
        for span in spans:
            attrs = dict(span.attrs)
            if worker is not None:
                attrs["worker"] = worker
            parent = span.parent + offset if span.parent is not None \
                else graft_parent
            self._spans.append(Span(
                name=span.name, start_s=span.start_s, end_s=span.end_s,
                node=span.node, parent=parent,
                depth=span.depth + graft_depth, attrs=attrs))

    # -- counters ----------------------------------------------------------

    def count(self, name: str, value: float = 1.0) -> None:
        """Bump a named monotone counter and sample it at the clock."""
        now = self.now()
        total = self._counters.get(name, 0.0) + value
        self._counters[name] = total
        self._samples.append((now, name, total))

    def gauge_max(self, name: str, value: float) -> None:
        """Raise a named high-water mark (still monotone, so it exports
        like a counter). Used for ``peak-rss`` samples, one per charged
        batch of supersteps — the value is a level, not an increment, so
        ``count`` would be wrong."""
        now, value = self.now(), float(value)
        if value > self._counters.get(name, 0.0):
            self._counters[name] = value
            self._samples.append((now, name, value))

    # -- introspection -----------------------------------------------------

    @property
    def spans(self) -> list:
        """Every span recorded, once the clock has charged what it holds."""
        self.now()
        return self._spans

    @property
    def counters(self) -> dict:
        """Each counter's total, once the clock has charged what it holds."""
        self.now()
        return self._counters

    @property
    def counter_samples(self) -> list:
        """``(time, name, total)`` per bump, in order, once the clock has
        charged what it holds."""
        self.now()
        return self._samples

    def open_spans(self) -> list:
        """Spans not yet closed (should be empty after a finished run)."""
        return [span for span in self.spans if span.end_s is None]

    def spans_named(self, name: str) -> list:
        return [span for span in self.spans if span.name == name]

    def total_duration(self, name: str) -> float:
        """Summed duration of all *closed* spans with ``name``."""
        return sum(span.duration_s for span in self.spans
                   if span.name == name and span.end_s is not None)
