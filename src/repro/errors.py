"""Exception hierarchy for the repro package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch the library's failures without
also swallowing programming mistakes such as ``TypeError``. The table
at the bottom (:data:`FAILURE_CLASSES`, :data:`STATUS_EXIT_CODES`) is the
one place that says which error is which cell status and exit code.
"""

from typing import NamedTuple


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GraphFormatError(ReproError):
    """An edge list or graph file violates the expected format."""


class PartitionError(ReproError):
    """A graph partitioning request cannot be satisfied."""


class CapacityError(ReproError):
    """A simulated node ran out of memory.

    This mirrors the out-of-memory failures the paper reports for
    CombBLAS triangle counting on the Twitter dataset and for Giraph on
    large message volumes (Sections 5.2, 5.3 and 6.1.3).
    """

    def __init__(self, node, needed_bytes, capacity_bytes, what=""):
        self.node = node
        self.needed_bytes = int(needed_bytes)
        self.capacity_bytes = int(capacity_bytes)
        self.what = what
        detail = f" while allocating {what}" if what else ""
        super().__init__(
            f"node {node} out of memory{detail}: "
            f"needs {self.needed_bytes:,} B of {self.capacity_bytes:,} B"
        )


class ExpressibilityError(ReproError):
    """An algorithm cannot be expressed in a framework's programming model.

    The paper highlights such gaps: most frameworks cannot express SGD
    (Section 3.2) and CombBLAS cannot fuse the ``A**2`` computation with
    the intersection for triangle counting (Section 6.2).
    """


class ConvergenceError(ReproError):
    """An iterative algorithm failed to converge within its budget."""


class DeadlineExceeded(ReproError):
    """Simulated time passed the cell's execution budget.

    Raised by the :class:`~repro.cluster.simulator.Cluster` the moment
    its simulated clock crosses ``deadline_s``. The sweep engine
    classifies it as a ``timeout`` (DNF) cell — the equivalent of the
    dashes benchmarking papers print for runs that exceeded their time
    budget — so a hung convergence loop becomes a result instead of a
    wedged sweep. Carries the budget and the elapsed time at which it
    fired so reports never parse the message.
    """

    def __init__(self, budget_s, elapsed_s, what=""):
        self.budget_s = float(budget_s)
        self.elapsed_s = float(elapsed_s)
        self.what = what
        detail = f" during {what}" if what else ""
        super().__init__(
            f"simulated deadline exceeded{detail}: "
            f"{self.elapsed_s:.4f} s elapsed of a {self.budget_s:.4f} s budget"
        )


class NodeFailure(ReproError):
    """A simulated node crashed and the framework cannot recover it.

    Raised by fail-fast engines (native, GraphLab, Galois, ...) when a
    chaos schedule kills a node: the paper's native baselines trade
    fault tolerance away entirely, so a node loss ends the run. Carries
    the failing node and the superstep at which it died so harness
    layers and tests never have to parse the message.
    """

    def __init__(self, node, superstep, what=""):
        self.node = int(node)
        self.superstep = int(superstep)
        self.what = what
        detail = f" during {what}" if what else ""
        super().__init__(
            f"node {self.node} crashed at superstep {self.superstep}"
            f"{detail}; no checkpoint/recovery policy is active (fail-fast)"
        )


class SweepInterrupted(ReproError):
    """A sweep drained after SIGINT/SIGTERM instead of finishing.

    Raised by the supervised worker pool once the journal is flushed:
    every merged cell is durable, in-flight cells are back to pending,
    and re-running with ``--resume`` continues byte-identically. The
    CLI maps it to its own documented exit code so scripts can tell a
    clean drain from a failure.
    """

    def __init__(self, signum, pending):
        import signal as _signal

        self.signum = int(signum)
        self.pending = int(pending)
        try:
            name = _signal.Signals(self.signum).name
        except ValueError:
            name = f"signal {self.signum}"
        super().__init__(
            f"sweep drained on {name}: journal flushed, "
            f"{self.pending} cell(s) still pending; re-run with --resume "
            "to finish them"
        )


class KeyRangeError(ReproError):
    """A Datalog fact's key lies outside its table's key universe.

    The same on every retry, so a sweep journals it ``failed`` at once.
    """


class SimulationError(ReproError):
    """The cluster simulator was used inconsistently."""


class SpecError(ReproError):
    """An :class:`~repro.harness.ExperimentSpec` is invalid.

    Raised at spec *construction* time — unknown algorithm parameters,
    bad field values, unserializable datasets — so typos surface where
    they are written instead of being silently threaded into a run's
    merged parameter dict. The message names the valid choices.
    """


class KernelError(ReproError):
    """A kernel backend or registry lookup request cannot be satisfied.

    Raised for unknown ``REPRO_KERNELS`` backend names and for
    ``(algorithm, direction)`` pairs the kernel registry does not carry.
    """


class PerfRegression(ReproError):
    """A frozen simulated number moved; exit code 7.

    Raised only by ``repro freeze check`` (the differing cells are
    printed before it). It carries only its message.
    """


# ---------------------------------------------------------------------------
# The failure taxonomy: which error is which DNF status and which exit code.
# `harness.run`, `harness.sweep.execute_cell` and the CLI all read this one
# table, so a status, a journal line and `$?` cannot disagree.
# ---------------------------------------------------------------------------

STATUS_OK = "ok"
STATUS_OOM = "out-of-memory"
STATUS_UNSUPPORTED = "unsupported"
STATUS_TIMEOUT = "timeout"
STATUS_FAILED = "failed"
#: A poison cell: it killed its worker process ``max_crashes`` times
#: (segfault, SIGKILL, OOM-killer) and was quarantined by the
#: supervised pool instead of being re-dispatched forever.
STATUS_CRASHED = "crashed"

#: Every status a cell record can carry, in report order.
CELL_STATUSES = (STATUS_OK, STATUS_OOM, STATUS_UNSUPPORTED, STATUS_TIMEOUT,
                 STATUS_FAILED, STATUS_CRASHED)

# Exit codes, one per failure class, so scripts and CI can tell a
# legitimate DNF (the paper's dashes) from a broken invocation. 2 is
# argparse's usage-error code.
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_OOM = 3
EXIT_UNSUPPORTED = 4
EXIT_NODE_FAILURE = 5
EXIT_DEADLINE = 6
EXIT_PERF_REGRESSION = 7
EXIT_INTERRUPTED = 8

#: Cell status -> exit code of the commands that run one cell.
STATUS_EXIT_CODES = {
    STATUS_OK: EXIT_OK,
    STATUS_OOM: EXIT_OOM,
    STATUS_UNSUPPORTED: EXIT_UNSUPPORTED,
    STATUS_TIMEOUT: EXIT_DEADLINE,
    # A sweep journals an unrecovered NodeFailure as ``failed``.
    STATUS_FAILED: EXIT_NODE_FAILURE,
    # A worker-process death has no failure class of its own.
    STATUS_CRASHED: EXIT_FAILURE,
}


class FailureClass(NamedTuple):
    """One row of the taxonomy (first ``isinstance`` match wins)."""

    error: type
    #: What a sweep cell journals for it; ``None`` is "unexpected":
    #: retried with backoff, then quarantined as ``failed``.
    status: str
    #: What the CLI exits with when it escapes a command.
    exit_code: int
    #: The CLI's stderr prefix.
    label: str
    #: A legitimate did-not-finish of the study (the paper's dashes):
    #: ``harness.run`` returns it as ``RunResult.status``, not raises.
    is_result: bool = False


FAILURE_CLASSES = (
    FailureClass(SweepInterrupted, None, EXIT_INTERRUPTED, "interrupted"),
    FailureClass(CapacityError, STATUS_OOM, EXIT_OOM, "out of memory", True),
    # Exit 1 only if it escapes ``run``, which returns it as
    # ``unsupported`` (exit 4) before any command sees it.
    FailureClass(ExpressibilityError, STATUS_UNSUPPORTED, EXIT_FAILURE,
                 "error", True),
    FailureClass(DeadlineExceeded, STATUS_TIMEOUT, EXIT_DEADLINE,
                 "deadline exceeded", True),
    FailureClass(NodeFailure, STATUS_FAILED, EXIT_NODE_FAILURE,
                 "node failure"),
    FailureClass(PerfRegression, None, EXIT_PERF_REGRESSION, "error"),
    # A factorization whose RMSE left the floats: an answer about the
    # step size, the same on every retry.
    FailureClass(ConvergenceError, STATUS_FAILED, EXIT_FAILURE, "diverged",
                 True),
    FailureClass(KeyRangeError, STATUS_FAILED, EXIT_FAILURE,
                 "key out of range"),
    # With the supervised pool capping worker address space, a *real*
    # allocation blow-up is the paper's out-of-memory dash too.
    FailureClass(MemoryError, STATUS_OOM, EXIT_OOM, "out of memory"),
    FailureClass(Exception, None, EXIT_FAILURE, "error"),
)


def failure_class(error) -> FailureClass:
    """The taxonomy row for a raised exception."""
    return next(row for row in FAILURE_CLASSES
                if isinstance(error, row.error))
