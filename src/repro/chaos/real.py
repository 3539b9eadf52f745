"""Real-fault injection for the supervised worker pool.

:mod:`repro.chaos.faults` injects faults into the *simulated* cluster —
the clock pays, the process survives. This module injects faults into
the **real** processes of a parallel sweep, the failure class Ammar &
Özsu report as dominant at scale (jobs that crash, hang or never
return): a :class:`RealFaultPlan` makes chosen cells actually SIGKILL
their worker, sleep past the wall-clock deadline, or balloon memory
until the worker's address-space cap fires. It is the differential
harness that *proves* the supervisor works — in tests and in the
``sweep-chaos-real`` CI job — and it deliberately shares the spec-string
idiom of the simulated schedules::

    kill(cell=3); kill(cell=5, times=99); hang(cell=7, seconds=300); oom(cell=2, mb=512)

``cell`` is the cell's **enumeration index** in the sweep (the order
:meth:`~repro.harness.sweep.Sweep.run` enumerates keys), so a plan is
scheduling-independent: the same cells fault no matter how many workers
run or which worker draws them.

* ``kill(cell=N[, times=K])`` — the worker SIGKILLs itself when it is
  handed cell ``N``, on the first ``K`` dispatches (default 1). With
  ``times`` below the supervisor's ``max_crashes`` the cell survives
  via re-dispatch; at or above it the cell is quarantined ``crashed``.
* ``hang(cell=N[, seconds=S])`` — the worker sleeps ``S`` real seconds
  (default 3600) before computing, so the cell blows any wall-clock
  deadline and records DNF ``timeout`` with ``wall_clock=true``.
* ``oom(cell=N[, mb=M])`` — the executor balloons ``M`` MB (default
  1024) of real memory before computing; under the supervisor's
  ``RLIMIT_AS`` cap this raises ``MemoryError``, which the sweep engine
  classifies as the existing ``out-of-memory`` DNF status.

Plans come from ``Sweep(real_chaos=...)``; ``repro sweep --real-chaos``
passes one in and defaults to ``$REPRO_CHAOS_REAL``, the only place the
variable is read — a library or served sweep never picks it up.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import SimulationError

#: Default real-seconds a hung cell sleeps: far past any sane wall
#: deadline, so the supervisor (not the sleep ending) resolves the cell.
DEFAULT_HANG_SECONDS = 3600.0

#: Default real megabytes an ``oom`` fault balloons.
DEFAULT_BALLOON_MB = 1024


@dataclass(frozen=True)
class KillWorker:
    """Cell ``cell`` SIGKILLs its worker on its first ``times`` dispatches."""

    cell: int
    times: int = 1

    def spec(self) -> str:
        extra = f", times={self.times}" if self.times != 1 else ""
        return f"kill(cell={self.cell}{extra})"


@dataclass(frozen=True)
class HangCell:
    """Cell ``cell`` sleeps ``seconds`` real seconds before computing."""

    cell: int
    seconds: float = DEFAULT_HANG_SECONDS

    def spec(self) -> str:
        extra = f", seconds={self.seconds:g}" \
            if self.seconds != DEFAULT_HANG_SECONDS else ""
        return f"hang(cell={self.cell}{extra})"


@dataclass(frozen=True)
class BalloonMemory:
    """Cell ``cell`` allocates ``mb`` real megabytes before computing."""

    cell: int
    mb: int = DEFAULT_BALLOON_MB

    def spec(self) -> str:
        extra = f", mb={self.mb}" if self.mb != DEFAULT_BALLOON_MB else ""
        return f"oom(cell={self.cell}{extra})"


_REAL_FAULT_KINDS = (KillWorker, HangCell, BalloonMemory)


class RealFaultPlan:
    """A deterministic plan of real process faults for one sweep.

    Plain picklable value object: the supervisor ships it to every
    worker, and each worker consults it per dispatch — kill decisions
    depend only on ``(cell index, prior crash count)``, both of which
    the parent tracks, so the fault timeline is identical for any
    worker count.
    """

    def __init__(self, faults=()):
        faults = tuple(faults)
        for fault in faults:
            if not isinstance(fault, _REAL_FAULT_KINDS):
                raise SimulationError(
                    f"unknown real fault type {type(fault).__name__!r}")
        self.faults = faults

    def __len__(self) -> int:
        return len(self.faults)

    def __eq__(self, other) -> bool:
        return isinstance(other, RealFaultPlan) and \
            self.faults == other.faults

    def spec(self) -> str:
        """The plan as a ``--real-chaos`` spec string (round-trips)."""
        return "; ".join(fault.spec() for fault in self.faults)

    def validate(self, num_cells: int, memory_limited: bool) -> None:
        """Reject out-of-range cells and un-cappable balloons up front."""
        for fault in self.faults:
            if not 0 <= fault.cell < num_cells:
                raise SimulationError(
                    f"{fault.spec()} names cell {fault.cell}, but the "
                    f"sweep enumerates cells 0..{num_cells - 1}")
        if self.balloons() and not memory_limited:
            raise SimulationError(
                "oom(...) real faults balloon actual memory and need a "
                "worker address-space cap; pass memory_limit_mb= "
                "(--memory-limit-mb) so the balloon surfaces as "
                "MemoryError instead of taking down the machine")

    def balloons(self) -> tuple:
        return tuple(f for f in self.faults
                     if isinstance(f, BalloonMemory))

    # -- per-dispatch queries (worker side) ---------------------------------

    def kill_now(self, cell: int, crashes: int) -> bool:
        """Should the worker die on this dispatch of ``cell``?

        ``crashes`` is how many workers already died running the cell
        (parent-tracked), so ``times=K`` kills exactly the first K
        dispatches and then lets the cell through.
        """
        return any(fault.cell == cell and crashes < fault.times
                   for fault in self.faults
                   if isinstance(fault, KillWorker))

    def hang_seconds(self, cell: int):
        for fault in self.faults:
            if isinstance(fault, HangCell) and fault.cell == cell:
                return fault.seconds
        return None

    def balloon_mb(self, cell: int):
        for fault in self.faults:
            if isinstance(fault, BalloonMemory) and fault.cell == cell:
                return fault.mb
        return None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str) -> "RealFaultPlan":
        """Parse a ``--real-chaos`` spec string into a plan."""
        faults = []
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            faults.append(_parse_clause(clause))
        return cls(faults)


def resolve_real_chaos(value):
    """Coerce ``Sweep(real_chaos=...)`` input into a plan (or None).

    Accepts an existing :class:`RealFaultPlan`, a spec string, or
    ``None`` (no plan).
    """
    if value is None or isinstance(value, RealFaultPlan):
        return value
    if isinstance(value, str):
        return RealFaultPlan.from_spec(value)
    raise SimulationError(
        f"real_chaos must be a RealFaultPlan or spec string, "
        f"not {type(value).__name__}")


_CLAUSE_RE = re.compile(r"^(\w+)\s*\(\s*(.*?)\s*\)$")


def _parse_clause(clause: str):
    match = _CLAUSE_RE.match(clause)
    if not match:
        raise SimulationError(
            f"cannot parse real-fault clause {clause!r}; expected "
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
            f"bad real-fault clause {clause!r}: {error}") from None


def _build_fault(name: str, kwargs: dict):
    cell = int(kwargs.pop("cell"))
    if cell < 0:
        raise ValueError(f"cell must be >= 0, got {cell}")
    if name == "kill":
        times = int(kwargs.pop("times", 1))
        if times < 1:
            raise ValueError(f"times must be >= 1, got {times}")
        fault = KillWorker(cell=cell, times=times)
    elif name == "hang":
        seconds = float(kwargs.pop("seconds", DEFAULT_HANG_SECONDS))
        if seconds <= 0:
            raise ValueError(f"seconds must be > 0, got {seconds}")
        fault = HangCell(cell=cell, seconds=seconds)
    elif name == "oom":
        mb = int(kwargs.pop("mb", DEFAULT_BALLOON_MB))
        if mb < 1:
            raise ValueError(f"mb must be >= 1, got {mb}")
        fault = BalloonMemory(cell=cell, mb=mb)
    else:
        raise SimulationError(
            f"unknown real fault {name!r}; known: kill, hang, oom")
    if kwargs:
        raise SimulationError(
            f"unexpected keys {sorted(kwargs)} for real fault {name!r}")
    return fault
