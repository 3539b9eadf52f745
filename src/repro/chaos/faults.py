"""Deterministic fault injection for the simulated cluster.

A :class:`FaultSchedule` is a seeded list of fault declarations the
cluster consults once per superstep. Faults come in two flavours:

* **scheduled** — fire at declared supersteps with declared parameters:
  :class:`NodeCrash`, :class:`StragglerNode`, :class:`LatencySpike`,
  :class:`NetworkPartition`;
* **probabilistic** — :class:`MessageDrop` and
  :class:`MessageCorruption` flip a coin per node-pair bulk transfer,
  each on its *own* :mod:`repro.rng` stream, so the drop timeline is
  bit-identical across runs with the same seed and unaffected by which
  other faults are configured.

Effects are expressed in the simulator's own currency — multipliers on
compute/communication time, retransmitted wire bytes, retry-backoff
stalls — so the algorithm answers stay exact (the recovery protocols of
:mod:`repro.chaos.recovery` replay/retransmit until the BSP step
completes) while the *cost* of surviving each fault lands on the clock
and in the trace.

Schedules parse from a compact spec string (the CLI's ``--faults``)::

    crash(node=2, superstep=3); drop(p=0.01, at=0:20); latency(factor=8, at=4:6)

Ranges are half-open ``start:stop`` supersteps (``at=3`` means step 3
only; omitting ``at`` means every superstep); ``partition`` takes the
isolated node group as ``nodes=0+1``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from ..errors import SimulationError
from ..rng import derive

#: A window of supersteps, half-open; ``stop=None`` means "forever".
Window = tuple


def _in_window(window: Window, superstep: int) -> bool:
    start, stop = window
    return superstep >= start and (stop is None or superstep < stop)


def _window_spec(window: Window) -> str:
    start, stop = window
    if stop is None:
        return "" if start == 0 else f", at={start}:"
    if stop == start + 1:
        return f", at={start}"
    return f", at={start}:{stop}"


# ---------------------------------------------------------------------------
# Fault declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeCrash:
    """Node ``node`` dies during superstep ``superstep`` (fail-stop)."""

    node: int
    superstep: int

    def spec(self) -> str:
        return f"crash(node={self.node}, superstep={self.superstep})"


@dataclass(frozen=True)
class StragglerNode:
    """One node computes ``factor``x slower over a superstep window."""

    node: int
    factor: float
    window: Window = (0, None)

    def spec(self) -> str:
        return (f"straggler(node={self.node}, factor={self.factor:g}"
                f"{_window_spec(self.window)})")


@dataclass(frozen=True)
class LatencySpike:
    """Fabric congestion: per-transfer latency x ``factor`` and
    sustained bandwidth / ``factor`` while the window is open."""

    factor: float
    window: Window = (0, None)

    def spec(self) -> str:
        return f"latency(factor={self.factor:g}{_window_spec(self.window)})"


@dataclass(frozen=True)
class NetworkPartition:
    """Transient partition isolating ``nodes`` from the rest.

    Cross-partition transfers stall for the full retry-backoff budget
    before the link heals within the superstep (BSP barriers cannot
    complete while the partition is up, so the whole step waits).
    """

    nodes: tuple
    window: Window = (0, None)

    def spec(self) -> str:
        group = "+".join(str(node) for node in self.nodes)
        return f"partition(nodes={group}{_window_spec(self.window)})"


@dataclass(frozen=True)
class MessageDrop:
    """Each node-pair bulk transfer is lost with ``probability`` and
    retransmitted after one retry timeout."""

    probability: float
    window: Window = (0, None)

    def spec(self) -> str:
        return f"drop(p={self.probability:g}{_window_spec(self.window)})"


@dataclass(frozen=True)
class MessageCorruption:
    """Checksum-detected corruption: like a drop, but counted apart."""

    probability: float
    window: Window = (0, None)

    def spec(self) -> str:
        return f"corrupt(p={self.probability:g}{_window_spec(self.window)})"


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


_FAULT_KINDS = (NodeCrash, StragglerNode, LatencySpike, NetworkPartition,
                MessageDrop, MessageCorruption)


class FaultSchedule:
    """Seeded, deterministic fault plan for one simulated run.

    A schedule is single-use: probabilistic faults advance dedicated RNG
    streams as the run progresses. :meth:`fresh` returns an identically
    seeded copy, and :func:`~repro.harness.runner.run`
    freshens the schedule it is given, so repeated runs with the same
    schedule object see the same timeline.
    """

    def __init__(self, faults=(), seed: int = 0):
        faults = tuple(faults)
        for fault in faults:
            if not isinstance(fault, _FAULT_KINDS):
                raise SimulationError(
                    f"unknown fault type {type(fault).__name__!r}")
        self.faults = faults
        self.seed = int(seed)
        self._rngs = {"drop": derive(self.seed, "chaos", "drop"),
                      "corrupt": derive(self.seed, "chaos", "corrupt")}

    def __len__(self) -> int:
        return len(self.faults)

    def fresh(self) -> "FaultSchedule":
        """An unused copy with the same faults and seed."""
        return FaultSchedule(self.faults, self.seed)

    def spec(self) -> str:
        """The schedule as a ``--faults`` spec string (round-trips)."""
        return "; ".join(fault.spec() for fault in self.faults)

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
            opened = superstep == max(fault.window[0], 0)
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

    # -- spec parsing --------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultSchedule":
        """Parse a ``--faults`` spec string into a schedule."""
        faults = []
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            faults.append(_parse_clause(clause))
        return cls(faults, seed=seed)


_CLAUSE_RE = re.compile(r"^(\w+)\s*\(\s*(.*?)\s*\)$")


def _parse_window(text: str) -> Window:
    if ":" in text:
        start_text, stop_text = text.split(":", 1)
        start = int(start_text) if start_text else 0
        stop = int(stop_text) if stop_text else None
        if stop is not None and stop <= start:
            raise SimulationError(f"empty fault window {text!r}")
        return (start, stop)
    step = int(text)
    return (step, step + 1)


def _parse_clause(clause: str):
    match = _CLAUSE_RE.match(clause)
    if not match:
        raise SimulationError(
            f"cannot parse fault clause {clause!r}; expected "
            "name(key=value, ...)")
    name, body = match.group(1).lower(), match.group(2)
    kwargs = {}
    if body:
        for item in body.split(","):
            if "=" not in item:
                raise SimulationError(
                    f"cannot parse {item.strip()!r} in {clause!r}")
            key, value = item.split("=", 1)
            kwargs[key.strip().lower()] = value.strip()
    try:
        return _build_fault(name, kwargs)
    except (KeyError, ValueError) as error:
        raise SimulationError(
            f"bad fault clause {clause!r}: {error}") from None


def _build_fault(name: str, kwargs: dict):
    has_at = "at" in kwargs
    window = _parse_window(kwargs.pop("at")) if has_at else (0, None)
    if name == "crash":
        if "superstep" in kwargs:
            superstep = int(kwargs.pop("superstep"))
        elif has_at:
            superstep = window[0]
        else:
            raise KeyError("'superstep' (or at=) is required")
        fault = NodeCrash(node=int(kwargs.pop("node")), superstep=superstep)
    elif name == "straggler":
        fault = StragglerNode(node=int(kwargs.pop("node")),
                              factor=float(kwargs.pop("factor")),
                              window=window)
    elif name == "latency":
        fault = LatencySpike(factor=float(kwargs.pop("factor")),
                             window=window)
    elif name == "partition":
        nodes = tuple(int(part) for part in kwargs.pop("nodes").split("+"))
        fault = NetworkPartition(nodes=nodes, window=window)
    elif name in ("drop", "corrupt"):
        text = kwargs.pop("p", None)
        if text is None:
            text = kwargs.pop("probability")
        probability = float(text)
        if not 0.0 < probability <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {probability}")
        cls = MessageDrop if name == "drop" else MessageCorruption
        fault = cls(probability=probability, window=window)
    else:
        raise SimulationError(
            f"unknown fault {name!r}; known: crash, straggler, latency, "
            "partition, drop, corrupt")
    if kwargs:
        raise SimulationError(
            f"unexpected keys {sorted(kwargs)} for fault {name!r}")
    return fault
