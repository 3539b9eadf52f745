"""Deterministic fault injection for the simulated cluster.

A :class:`FaultSchedule` is a seeded list of faults the cluster
consults once per superstep. Most fire at declared supersteps;
:class:`MessageDrop` and :class:`MessageCorruption` flip a coin per
node-pair bulk transfer, each on its *own* :mod:`repro.rng` stream, so
the drop timeline is bit-identical across runs with the same seed and
unaffected by which other faults are configured.

Effects are expressed in the simulator's own currency — multipliers on
compute/communication time, retransmitted wire bytes, retry-backoff
stalls — so the algorithm answers stay exact (the recovery protocols of
:mod:`repro.chaos.recovery` replay/retransmit until the BSP step
completes) while the *cost* of surviving each fault lands on the clock
and in the trace.

The fault grammar
-----------------

One grammar serves ``--faults`` (the first six clauses: this module's
simulated faults) and ``--real-chaos`` (the last three: the process
faults of :mod:`repro.chaos.real`). A spec is ``;``-separated clauses::

    crash(node=2, superstep=3); drop(p=0.01, at=0:20); latency(factor=8, at=4:6)

==========  ================================  ===========================
clause      keys (default)                    bounds
==========  ================================  ===========================
crash       node, superstep                   node, superstep >= 0
straggler   node, factor, at (every step)     node >= 0; factor > 0
latency     factor, at (every step)           factor > 0
partition   nodes, at (every step)            each node >= 0
drop        p, at (every step)                0 < p <= 1
corrupt     p, at (every step)                0 < p <= 1
kill        cell, times (1)                   cell >= 0; times >= 1
hang        cell, seconds (3600)              cell >= 0; seconds > 0
oom         cell, mb (1024)                   cell >= 0; mb >= 1
==========  ================================  ===========================

Every float is finite. ``at`` is a half-open ``start:stop`` window of
supersteps, ``start >= 0`` (``at=3`` is step 3 only, ``at=3:`` step 3
onwards, ``at=:5`` steps 0..4); ``crash(node=1, at=4)`` means
``superstep=4``; ``partition`` names its group as ``nodes=0+1``. Each
row is a :class:`Clause` dataclass, parsed by :meth:`Clauses.from_spec`
and printed by :meth:`Clause.spec` (keys in this order, defaults left
out).
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional, Tuple, get_type_hints

import numpy as np

from ..errors import SimulationError
from ..rng import derive

#: A window of supersteps, half-open; ``stop=None`` means "forever".
Window = Tuple[int, Optional[int]]

#: A group of node ids.
Nodes = Tuple[int, ...]

#: The comparisons a declared ``bound`` may use.
_BOUNDS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}

_CLAUSE_RE = re.compile(r"^(\w+)\s*\(\s*(.*?)\s*\)$")


def _in_window(window: Window, superstep: int) -> bool:
    start, stop = window
    return superstep >= start and (stop is None or superstep < stop)


def clause(bound, default=MISSING, **wire):
    """A fault field: ``bound`` is one or more ``op, limit`` pairs
    (``(">", 0, "<=", 1)``) applied to each number the field holds;
    ``wire`` may give its ``key`` (default: its name) and an ``alias``."""
    return field(default=default, metadata={"wire": dict(wire, bound=bound)})


def _every_superstep():
    return clause((">=", 0), (0, None), key="at")


@functools.lru_cache(maxsize=None)
def _declared(kind) -> tuple:
    """``(field, type, key, wire)`` of every field of a fault kind."""
    hints = get_type_hints(kind)
    return tuple((f, hints[f.name], f.metadata["wire"].get("key", f.name),
                  f.metadata["wire"]) for f in fields(kind))


def _window(text: str) -> Window:
    start, colon, stop = text.partition(":")
    if not colon:
        return (int(start), int(start) + 1)
    window = (int(start or 0), int(stop) if stop else None)
    if window[1] is not None and window[1] <= window[0]:
        raise ValueError(f"is an empty window {text!r}")
    return window


def _window_text(window: Window) -> str:
    start, stop = window
    if stop is None:
        return f"{start}:"
    return f"{start}" if stop == start + 1 else f"{start}:{stop}"


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text}")
    return value


#: How a field of each type reads from and prints to clause text (a
#: float prints ``%g`` where that reads back as the same float).
_TEXT = {
    int: (int, str),
    float: (_float, lambda x: f"{x:g}" if float(f"{x:g}") == x else repr(x)),
    Window: (_window, _window_text),
    Nodes: (lambda text: tuple(map(int, text.split("+"))),
            lambda nodes: "+".join(map(str, nodes))),
}


class Clause:
    """A fault kind that declares its own clause: a frozen dataclass
    with a clause ``NAME`` and fields declared with :func:`clause`."""

    NAME = ""

    def __post_init__(self):
        """Read each field as clause text (a value given in Python is
        printed first) and check it against its bound."""
        for f, hint, key, wire in _declared(type(self)):
            read, show = _TEXT[hint]
            value = getattr(self, f.name)
            try:
                value = read(value if isinstance(value, str) else show(value))
                items = value if isinstance(value, tuple) else (value,)
                bound = wire["bound"]
                for op, limit in zip(bound[::2], bound[1::2]):
                    if not all(_BOUNDS[op](item, limit) for item in items
                               if item is not None):
                        raise ValueError(
                            f"must be {op} {limit}, got {show(value)}")
            except (TypeError, ValueError, OverflowError) as error:
                raise SimulationError(f"{key}: {error}") from None
            object.__setattr__(self, f.name, value)

    def spec(self) -> str:
        """The clause that parses back to this fault."""
        given = ", ".join(
            f"{key}={_TEXT[hint][1](getattr(self, f.name))}"
            for f, hint, key, _ in _declared(type(self))
            if getattr(self, f.name) != f.default)
        return f"{self.NAME}({given})"


class Clauses:
    """Faults of the kinds in ``KINDS``, read from and printed as a spec
    string."""

    KINDS: tuple = ()

    def __init__(self, faults=()):
        self.faults = tuple(faults)
        for fault in self.faults:
            if type(fault) not in self.KINDS:
                raise SimulationError(
                    f"{type(self).__name__} cannot hold a "
                    f"{type(fault).__name__!r}")

    def __len__(self) -> int:
        return len(self.faults)

    def spec(self) -> str:
        """The faults as a spec string (round-trips through
        :meth:`from_spec`)."""
        return "; ".join(fault.spec() for fault in self.faults)

    @classmethod
    def from_spec(cls, spec: str, **kwargs):
        """Parse a spec string (see the grammar table above)."""
        return cls([cls._parse(text.strip()) for text in spec.split(";")
                    if text.strip()], **kwargs)

    @classmethod
    def _parse(cls, text: str) -> Clause:
        try:
            match = _CLAUSE_RE.match(text)
            if not match:
                raise ValueError("expected name(key=value, ...)")
            kinds = {kind.NAME: kind for kind in cls.KINDS}
            kind = kinds.get(match.group(1).lower())
            if kind is None:
                raise ValueError(f"unknown fault {match.group(1)!r}; known: "
                                 f"{', '.join(kinds)}")
            declared = _declared(kind)
            keys = {name: f.name for f, _, key, wire in declared
                    for name in (key, wire.get("alias")) if name}
            given = {}
            for item in match.group(2).split(",") if match.group(2) else ():
                key, equals, value = item.partition("=")
                if not equals or key.strip().lower() not in keys:
                    raise ValueError(f"unexpected {item.strip()!r}; keys: "
                                     f"{', '.join(keys)}")
                given[keys[key.strip().lower()]] = value.strip()
            missing = [key for f, _, key, _ in declared
                       if f.name not in given and f.default is MISSING]
            if missing:
                raise ValueError(f"missing {', '.join(missing)}")
            return kind(**given)
        except (ValueError, SimulationError) as error:
            raise SimulationError(
                f"bad fault clause {text!r}: {error}") from None


# ---------------------------------------------------------------------------
# Fault declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeCrash(Clause):
    """Node ``node`` dies during superstep ``superstep`` (fail-stop)."""

    NAME = "crash"

    node: int = clause((">=", 0))
    superstep: int = clause((">=", 0), alias="at")


@dataclass(frozen=True)
class StragglerNode(Clause):
    """One node computes ``factor``x slower over a superstep window."""

    NAME = "straggler"

    node: int = clause((">=", 0))
    factor: float = clause((">", 0))
    window: Window = _every_superstep()


@dataclass(frozen=True)
class LatencySpike(Clause):
    """Fabric congestion: per-transfer latency x ``factor`` and
    sustained bandwidth / ``factor`` while the window is open."""

    NAME = "latency"

    factor: float = clause((">", 0))
    window: Window = _every_superstep()


@dataclass(frozen=True)
class NetworkPartition(Clause):
    """Transient partition isolating ``nodes`` from the rest.

    Cross-partition transfers stall for the full retry-backoff budget
    before the link heals within the superstep (BSP barriers cannot
    complete while the partition is up, so the whole step waits).
    """

    NAME = "partition"

    nodes: Nodes = clause((">=", 0))
    window: Window = _every_superstep()


@dataclass(frozen=True)
class MessageDrop(Clause):
    """Each node-pair bulk transfer is lost with ``probability`` and
    retransmitted after one retry timeout."""

    NAME = "drop"

    probability: float = clause((">", 0, "<=", 1), key="p")
    window: Window = _every_superstep()


@dataclass(frozen=True)
class MessageCorruption(Clause):
    """Checksum-detected corruption: like a drop, but counted apart."""

    NAME = "corrupt"

    probability: float = clause((">", 0, "<=", 1), key="p")
    window: Window = _every_superstep()


# ---------------------------------------------------------------------------
# Per-superstep resolution
# ---------------------------------------------------------------------------


class LinkDisruption:
    """Network faults resolved for one superstep, applied by the Fabric.

    ``apply`` perturbs the wire-byte matrix (retransmissions double the
    affected pair's volume) and returns per-node stall seconds (retry
    backoff) plus counters for the tracer; ``latency_factor`` scales the
    comm layer's latency and divides its sustained bandwidth.
    """

    def __init__(self, latency_factor: float = 1.0, drop_p: float = 0.0,
                 corrupt_p: float = 0.0, isolated: tuple = (),
                 retry=None, rngs: dict = None):
        self.latency_factor = float(latency_factor)
        self.drop_p = float(drop_p)
        self.corrupt_p = float(corrupt_p)
        self.isolated = tuple(isolated)
        self.retry = retry
        self._rngs = rngs or {}

    def apply(self, wire: np.ndarray):
        """Returns ``(wire', stall_s_per_node, info)``."""
        num_nodes = wire.shape[0]
        stall = np.zeros(num_nodes)
        info = {"messages_dropped": 0, "messages_corrupted": 0,
                "retransmitted_bytes": 0.0, "blocked_pairs": 0}
        timeout = self.retry.base_backoff_s if self.retry is not None else 0.0
        for kind, probability in (("drop", self.drop_p),
                                  ("corrupt", self.corrupt_p)):
            if probability <= 0:
                continue
            rng = self._rngs[kind]
            mask = (wire > 0) & (rng.random(wire.shape) < probability)
            if mask.any():
                key = ("messages_dropped" if kind == "drop"
                       else "messages_corrupted")
                info[key] += int(mask.sum())
                info["retransmitted_bytes"] += float(wire[mask].sum())
                # Sender waits one retransmit timeout per lost transfer.
                stall += mask.sum(axis=1) * timeout
                wire = wire + wire * mask
        if self.isolated:
            inside = np.zeros(num_nodes, dtype=bool)
            inside[list(self.isolated)] = True
            crossing = inside[:, None] != inside[None, :]
            blocked = crossing & (wire > 0)
            if blocked.any():
                info["blocked_pairs"] = int(blocked.sum())
                backoff = self.retry.total_backoff_s() \
                    if self.retry is not None else 0.0
                affected = blocked.any(axis=1) | blocked.any(axis=0)
                stall[affected] += backoff
        info["stall_s"] = float(stall.max()) if stall.size else 0.0
        return wire, stall, info


@dataclass
class StepFaults:
    """Everything the cluster must apply during one superstep."""

    crashes: list = field(default_factory=list)     # node ids that die
    compute_factors: np.ndarray = None              # per-node slowdowns
    disruption: LinkDisruption = None               # network-level faults
    events: list = field(default_factory=list)      # newly-opened faults

    def __bool__(self) -> bool:
        return bool(self.crashes or self.events
                    or self.compute_factors is not None
                    or self.disruption is not None)


# ---------------------------------------------------------------------------
# The schedule
# ---------------------------------------------------------------------------


class FaultSchedule(Clauses):
    """Seeded, deterministic fault plan for one simulated run.

    A schedule is single-use: probabilistic faults advance dedicated RNG
    streams as the run progresses. :meth:`fresh` returns an identically
    seeded copy, and :func:`~repro.harness.runner.run`
    freshens the schedule it is given, so repeated runs with the same
    schedule object see the same timeline.
    """

    KINDS = (NodeCrash, StragglerNode, LatencySpike, NetworkPartition,
             MessageDrop, MessageCorruption)

    def __init__(self, faults=(), seed: int = 0):
        super().__init__(faults)
        self.seed = int(seed)
        self._rngs = {"drop": derive(self.seed, "chaos", "drop"),
                      "corrupt": derive(self.seed, "chaos", "corrupt")}

    def fresh(self) -> "FaultSchedule":
        """An unused copy with the same faults and seed."""
        return FaultSchedule(self.faults, self.seed)

    def validate(self, num_nodes: int) -> None:
        """Reject node ids outside the cluster before the run starts."""
        for fault in self.faults:
            nodes = ()
            if isinstance(fault, (NodeCrash, StragglerNode)):
                nodes = (fault.node,)
            elif isinstance(fault, NetworkPartition):
                nodes = fault.nodes
            for node in nodes:
                if not 0 <= node < num_nodes:
                    raise SimulationError(
                        f"{fault.spec()} names node {node}, but the "
                        f"cluster has nodes 0..{num_nodes - 1}")

    def at(self, superstep: int, num_nodes: int, retry=None) -> StepFaults:
        """Resolve the faults active during ``superstep``."""
        step = StepFaults()
        latency_factor = 1.0
        drop_p = corrupt_p = 0.0
        isolated: tuple = ()
        for fault in self.faults:
            if isinstance(fault, NodeCrash):
                if fault.superstep == superstep:
                    step.crashes.append(fault.node)
                continue
            if not _in_window(fault.window, superstep):
                continue
            opened = superstep == fault.window[0]
            if isinstance(fault, StragglerNode):
                if step.compute_factors is None:
                    step.compute_factors = np.ones(num_nodes)
                step.compute_factors[fault.node] *= fault.factor
                if opened:
                    step.events.append({"kind": "straggler",
                                        "superstep": superstep,
                                        "node": fault.node,
                                        "factor": fault.factor})
            elif isinstance(fault, LatencySpike):
                latency_factor *= fault.factor
                if opened:
                    step.events.append({"kind": "latency-spike",
                                        "superstep": superstep,
                                        "factor": fault.factor})
            elif isinstance(fault, NetworkPartition):
                isolated = tuple(set(isolated) | set(fault.nodes))
                if opened:
                    step.events.append({"kind": "partition",
                                        "superstep": superstep,
                                        "nodes": list(fault.nodes)})
            elif isinstance(fault, MessageDrop):
                drop_p = 1.0 - (1.0 - drop_p) * (1.0 - fault.probability)
            elif isinstance(fault, MessageCorruption):
                corrupt_p = 1.0 - (1.0 - corrupt_p) \
                    * (1.0 - fault.probability)
        if latency_factor != 1.0 or drop_p > 0 or corrupt_p > 0 or isolated:
            step.disruption = LinkDisruption(
                latency_factor=latency_factor, drop_p=drop_p,
                corrupt_p=corrupt_p, isolated=isolated, retry=retry,
                rngs=self._rngs,
            )
        return step
