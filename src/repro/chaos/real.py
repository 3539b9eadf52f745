"""Real-fault injection for the supervised worker pool.

:mod:`repro.chaos.faults` injects faults into the *simulated* cluster —
the clock pays, the process survives. This module injects faults into
the **real** processes of a parallel sweep, the failure class Ammar &
Özsu report as dominant at scale (jobs that crash, hang or never
return): a :class:`RealFaultPlan` makes chosen cells actually SIGKILL
their worker, sleep past the wall-clock deadline, or balloon memory
until the worker's address-space cap fires. It is the differential
harness that *proves* the supervisor works — in tests and in the
``sweep-chaos-real`` CI job::

    kill(cell=3); kill(cell=5, times=99); hang(cell=7, seconds=300); oom(cell=2, mb=512)

Its clauses are the last three rows of the fault grammar's table in
:mod:`repro.chaos.faults`. ``cell`` is the cell's **enumeration index**
in the sweep (the order :meth:`~repro.harness.sweep.Sweep.run`
enumerates keys), so the same cells fault no matter how many workers
run or which worker draws them.

Plans come from ``Sweep(real_chaos=...)``; ``repro sweep --real-chaos``
passes one in and defaults to ``$REPRO_CHAOS_REAL``, the only place the
variable is read — a library or served sweep never picks it up.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SimulationError
from .faults import Clause, Clauses, clause

#: Default real-seconds a hung cell sleeps: far past any sane wall
#: deadline, so the supervisor (not the sleep ending) resolves the cell.
DEFAULT_HANG_SECONDS = 3600.0

#: Default real megabytes an ``oom`` fault balloons.
DEFAULT_BALLOON_MB = 1024


@dataclass(frozen=True)
class KillWorker(Clause):
    """Cell ``cell`` SIGKILLs its worker on its first ``times`` dispatches.

    With ``times`` below the supervisor's ``max_crashes`` the cell
    survives via re-dispatch; at or above it the cell is quarantined
    ``crashed``.
    """

    NAME = "kill"

    cell: int = clause((">=", 0))
    times: int = clause((">=", 1), 1)


@dataclass(frozen=True)
class HangCell(Clause):
    """Cell ``cell`` sleeps ``seconds`` real seconds before computing
    (a wall-clock ``timeout``)."""

    NAME = "hang"

    cell: int = clause((">=", 0))
    seconds: float = clause((">", 0), DEFAULT_HANG_SECONDS)


@dataclass(frozen=True)
class BalloonMemory(Clause):
    """Cell ``cell`` allocates ``mb`` real megabytes before computing
    (``out-of-memory`` under the worker's ``RLIMIT_AS`` cap)."""

    NAME = "oom"

    cell: int = clause((">=", 0))
    mb: int = clause((">=", 1), DEFAULT_BALLOON_MB)


class RealFaultPlan(Clauses):
    """A deterministic plan of real process faults for one sweep.

    Plain picklable value object: the supervisor ships it to every
    worker, and each worker consults it per dispatch — kill decisions
    depend only on ``(cell index, prior crash count)``, both of which
    the parent tracks, so the fault timeline is identical for any
    worker count.
    """

    KINDS = (KillWorker, HangCell, BalloonMemory)

    def __eq__(self, other) -> bool:
        return isinstance(other, RealFaultPlan) and \
            self.faults == other.faults

    def validate(self, num_cells: int, memory_limited: bool) -> None:
        """Reject out-of-range cells and un-cappable balloons up front."""
        for fault in self.faults:
            if not 0 <= fault.cell < num_cells:
                raise SimulationError(
                    f"{fault.spec()} names cell {fault.cell}, but the "
                    f"sweep enumerates cells 0..{num_cells - 1}")
        if not memory_limited and any(isinstance(fault, BalloonMemory)
                                      for fault in self.faults):
            raise SimulationError(
                "oom(...) real faults balloon actual memory and need a "
                "worker address-space cap; pass memory_limit_mb= "
                "(--memory-limit-mb) so the balloon surfaces as "
                "MemoryError instead of taking down the machine")

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
        fault = self._on(HangCell, cell)
        return None if fault is None else fault.seconds

    def balloon_mb(self, cell: int):
        fault = self._on(BalloonMemory, cell)
        return None if fault is None else fault.mb

    def _on(self, kind, cell: int):
        """The first fault of ``kind`` on ``cell``, or None."""
        return next((fault for fault in self.faults
                     if isinstance(fault, kind) and fault.cell == cell), None)


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
