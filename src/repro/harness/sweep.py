"""Resilient sweep engine: durable, resumable experiment sweeps.

The paper's headline artifacts (Tables 5/6, Figures 3-7) are sweeps over
(algorithm x framework x dataset x nodes) cells in which some cells
legitimately fail — CombBLAS OOMs on Twitter triangle counting, Giraph
cannot fit graphs at low node counts. A monolithic in-memory loop loses
every completed cell on the first crash, hang or Ctrl-C. This module is
the layer between "loop over ``run``" and "unattended overnight
sweep":

* **Enumeration up front.** A sweep is a list of cell *keys* (plain
  dicts of strings/numbers) plus one executor. The engine knows the
  whole frontier before the first cell runs, so coverage is always
  well-defined.
* **Per-cell isolation.** Each cell runs inside its own try/except
  boundary. Typed failures (the rows of
  :data:`repro.errors.FAILURE_CLASSES` that carry a status) become
  typed cell records — ``ok`` / ``out-of-memory`` / ``unsupported`` /
  ``timeout`` / ``failed`` — exactly the DNF vocabulary benchmarking
  studies print as dashes.
* **Deadlines on the simulated clock.** ``deadline_s`` is handed to the
  executor (and from there to the :class:`~repro.cluster.Cluster`), so
  a hung convergence loop surfaces as a ``timeout`` cell, not a wedged
  process.
* **Retry + quarantine.** Unexpected exceptions (anything *not* typed)
  are treated as transient: the cell is retried with capped exponential
  backoff, and quarantined as ``failed`` after ``max_retries`` retries
  so one bad configuration cannot sink the sweep.
* **Durable journal.** Every finished cell is appended to a JSONL
  journal (header written atomically, each record one ``write`` +
  ``fsync``). An interrupted sweep resumed from its journal *replays*
  completed cells — it never recomputes them — and tolerates a
  torn (partially written) final line from a mid-write crash.
* **Completeness report.** :meth:`SweepResult.completeness` summarizes
  coverage and the failure taxonomy per sweep; retry / quarantine /
  deadline / replay events are mirrored as tracer instants so the
  flight recorder explains every DNF.
"""

from __future__ import annotations

import json
import math
import os
import signal
from contextlib import closing
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Tuple

from ..algorithms.registry import ALGORITHMS, FRAMEWORKS, check_names
from ..datagen import cache as _dataset_cache
from ..graph import sharded as _sharded_graphs
from ..errors import (
    CELL_STATUSES,
    STATUS_CRASHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    ReproError,
    SpecError,
    SweepInterrupted,
    failure_class,
)
from ..observability import NULL_TRACER
from .persistence import Journal, _jsonable
from .runner import run_cell
from .spec import Request, declare

JOURNAL_VERSION = 1


def cell_id(key: dict) -> str:
    """Canonical identity of a cell key (stable across runs/processes)."""
    return json.dumps({str(k): key[k] for k in key}, sort_keys=True,
                      separators=(",", ":"))


@dataclass
class CellOutcome:
    """What an executor reports for one cell: a status plus its payload.

    Executors that call :func:`~repro.harness.run` should return
    :func:`outcome_of` so the runner's own failure classification
    (OOM-as-result etc.) carries through; executors that just compute a
    value may return it bare — the engine treats a non-outcome return as
    ``ok``.
    """

    status: str
    value: object = None
    failure: str = ""


def outcome_of(run) -> CellOutcome:
    """Lift a :class:`~repro.harness.RunResult` into a cell outcome.

    The journaled payload is the minimal JSON the table/figure
    assemblers need (the comparison runtime), never the full result
    object — journals stay small and replay stays exact.
    """
    value = {"runtime_s": run.runtime_or_none()} if run.ok else None
    return CellOutcome(run.status, value=value, failure=run.failure)


def sweep_cell(key: dict, budget_s: float = None) -> CellOutcome:
    """The one sweep executor: the cell ``key`` names, as an outcome.

    Tables 5/6, Figures 3/4/5 and the served gate cell all hand this to
    :meth:`Sweep.run` / the supervised pool (it ships pickled by name).
    """
    return outcome_of(run_cell(key, budget_s))


@dataclass
class CellRecord:
    """The durable outcome of one sweep cell."""

    key: dict
    status: str
    value: object = None
    failure: str = ""
    attempts: int = 1
    backoff_s: list = field(default_factory=list)
    quarantined: bool = False
    #: True when a *wall-clock* deadline (the supervised pool killing a
    #: hung worker) produced this record, as opposed to the simulated
    #: clock's ``DeadlineExceeded``. Real-world, not reproducible, so
    #: resume re-runs such cells instead of replaying them.
    wall_clock: bool = False
    #: True when this record came from a journal instead of execution.
    #: Not serialized — it describes this process, not the cell.
    replayed: bool = field(default=False, compare=False)

    @property
    def real_fault(self) -> bool:
        """Did a real process fault (crash / wall timeout) end this cell?

        Such outcomes describe the machine the sweep ran on, not the
        simulated experiment, so resume treats them as *not completed*:
        the cell is re-executed rather than replayed, and a fault-free
        rerun converges to the journal a clean run would have written.
        """
        return self.status == STATUS_CRASHED or \
            (self.status == STATUS_TIMEOUT and self.wall_clock)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def runtime(self):
        """``value["runtime_s"]`` for experiment cells, None on DNF."""
        if not self.ok or not isinstance(self.value, dict):
            return None
        return self.value.get("runtime_s")

    def to_dict(self) -> dict:
        out = {
            "key": {str(k): self.key[k] for k in self.key},
            "status": self.status,
            "value": self.value,
            "attempts": self.attempts,
        }
        if self.failure:
            out["failure"] = self.failure
        if self.backoff_s:
            out["backoff_s"] = list(self.backoff_s)
        if self.quarantined:
            out["quarantined"] = True
        if self.wall_clock:
            out["wall_clock"] = True
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "CellRecord":
        if "key" not in payload or "status" not in payload:
            raise ReproError("journal record is missing key/status")
        if payload["status"] not in CELL_STATUSES:
            raise ReproError(
                f"journal record has unknown status {payload['status']!r}"
            )
        attempts = payload.get("attempts", 1)
        if not isinstance(payload["key"], dict) or type(attempts) is not int \
                or not isinstance(payload.get("backoff_s", []), list):
            raise ReproError("corrupt journal record (key must be an object, "
                             f"attempts an int, backoff_s a list): {payload!r}")
        return cls(
            key=dict(payload["key"]),
            status=payload["status"],
            value=payload.get("value"),
            failure=payload.get("failure", ""),
            attempts=attempts,
            backoff_s=list(payload.get("backoff_s", [])),
            quarantined=bool(payload.get("quarantined", False)),
            wall_clock=bool(payload.get("wall_clock", False)),
            replayed=True,
        )


class SweepJournal:
    """Append-only JSONL run store for one sweep.

    Line 1 is a header (sweep name, journal version, engine config);
    every line after it is one completed :class:`CellRecord`. The bytes
    go through :class:`~repro.harness.persistence.Journal` with
    ``fsync=True``: one ``write`` + ``fsync`` per record, and a torn
    final line repaired before the next append.
    """

    def __init__(self, path):
        self._file = Journal(path, fsync=True)

    def load(self, name: str) -> dict:
        """Read back ``{cell_id: CellRecord}``; validates the header."""
        entries = self._file.read()
        if not entries:
            raise ReproError(f"{self._file.path} has no valid journal header")
        header = entries[0]
        if header.get("journal") != name \
                or header.get("version") != JOURNAL_VERSION:
            raise ReproError(
                f"{self._file.path} is a journal for "
                f"{header.get('journal')!r} v{header.get('version')}, "
                f"not {name!r} v{JOURNAL_VERSION}"
            )
        records = {}
        for entry in entries[1:]:
            record = CellRecord.from_dict(entry)
            records[cell_id(record.key)] = record
        return records

    def retain_prefix(self, count: int) -> None:
        """Keep only the header and the first ``count`` record lines;
        :meth:`open` rewrites the file as it repairs a torn tail."""
        self._file.retain(1 + count)

    def open(self, name: str, config: dict) -> None:
        """Start (or continue) appending; writes the header if new."""
        self._file.open({"journal": name, "version": JOURNAL_VERSION,
                         "config": _jsonable(config)})

    def append(self, record: CellRecord) -> None:
        self._file.append(_jsonable(record.to_dict()))

    def close(self) -> None:
        self._file.close()


@dataclass(frozen=True)
class CellPolicy:
    """Per-cell execution policy, shared by serial and parallel paths.

    A plain picklable value object: the parallel executor ships one to
    every worker so a cell behaves identically no matter which process
    (or how many) runs it.
    """

    deadline_s: float = None
    max_retries: int = 2
    backoff_base_s: float = 0.5
    backoff_cap_s: float = 8.0


def execute_cell(key: dict, execute, policy: CellPolicy,
                 tracer=None) -> CellRecord:
    """One cell behind its isolation boundary, with the retry policy.

    The single implementation of the engine's failure semantics —
    typed-failure classification, capped-exponential-backoff retries,
    quarantine — used verbatim by :class:`Sweep` in-process and by
    every :mod:`repro.harness.supervisor` worker, so scheduling can never
    change what a cell records. A retry's backoff is recorded in
    ``CellRecord.backoff_s``, never waited out: the executor computes on
    a simulated clock. Dataset-cache instants emitted while the cell
    runs land on ``tracer``.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    attempts = 0
    backoffs = []
    while True:
        attempts += 1
        with tracer.span("cell", attempt=attempts, **key), \
                _dataset_cache.use_tracer(tracer), \
                _sharded_graphs.use_tracer(tracer):
            try:
                outcome = execute(key, budget_s=policy.deadline_s)
            except Exception as error:
                status = failure_class(error).status
                if status is not None:
                    if status == STATUS_TIMEOUT:
                        tracer.instant("cell-deadline",
                                       budget_s=policy.deadline_s, **key)
                    return CellRecord(key, status, failure=str(error),
                                      attempts=attempts, backoff_s=backoffs)
                # unexpected: maybe transient
                failure = f"{type(error).__name__}: {error}"
                if attempts > policy.max_retries:
                    tracer.instant("cell-quarantined",
                                   attempts=attempts, error=failure,
                                   **key)
                    return CellRecord(key, STATUS_FAILED,
                                      failure=failure, attempts=attempts,
                                      backoff_s=backoffs,
                                      quarantined=True)
                delay = min(policy.backoff_base_s * 2 ** (attempts - 1),
                            policy.backoff_cap_s)
                backoffs.append(delay)
                tracer.instant("cell-retry", attempt=attempts,
                               backoff_s=delay, error=failure, **key)
                continue
        if isinstance(outcome, CellOutcome):
            status, value, failure = \
                outcome.status, outcome.value, outcome.failure
        else:
            status, value, failure = STATUS_OK, outcome, ""
        if status == STATUS_TIMEOUT:
            tracer.instant("cell-deadline", budget_s=policy.deadline_s,
                           **key)
        # Journaled and fresh values must be indistinguishable, so
        # normalize to JSON types *before* anyone consumes them.
        return CellRecord(key, status, value=_jsonable(value),
                          failure=failure, attempts=attempts,
                          backoff_s=backoffs)


@dataclass
class SweepResult:
    """All cell records of one sweep, in enumeration order."""

    name: str
    keys: list
    records: dict
    executed: int = 0
    replayed: int = 0
    #: Supervisor accounting (0 for serial / unsupervised runs): worker
    #: processes restarted after a death, and cells killed for blowing
    #: their wall-clock deadline.
    worker_restarts: int = 0
    wall_timeouts: int = 0

    def get(self, **key) -> CellRecord:
        """The record for one cell, by its key fields."""
        cid = cell_id(key)
        if cid not in self.records:
            raise ReproError(f"sweep {self.name!r} has no cell {cid}")
        return self.records[cid]

    def __iter__(self):
        for key in self.keys:
            yield self.records[cell_id(key)]

    def to_dict(self) -> dict:
        """JSON-safe snapshot: every record in enumeration order.

        Scheduling-independent by design — a ``jobs=4`` sweep must
        produce exactly the dict a serial sweep does, which the
        determinism tests assert byte-for-byte.
        """
        return {
            "sweep": self.name,
            "records": [self.records[cell_id(key)].to_dict()
                        for key in self.keys],
            "executed": self.executed,
            "replayed": self.replayed,
            "completeness": self.completeness(),
        }

    def completeness(self) -> dict:
        """Coverage + failure taxonomy: the sweep's summary report."""
        counts = {status: 0 for status in CELL_STATUSES}
        dnf, quarantined, retried = [], [], 0
        for record in self:
            counts[record.status] += 1
            retried += record.attempts - 1
            if record.quarantined:
                quarantined.append(record.key)
            if not record.ok:
                dnf.append({"key": record.key, "status": record.status,
                            "failure": record.failure})
        total = len(self.keys)
        return {
            "sweep": self.name,
            "cells": total,
            "statuses": counts,
            "coverage": counts[STATUS_OK] / total if total else 1.0,
            "executed": self.executed,
            "replayed": self.replayed,
            "retries": retried,
            "worker_restarts": self.worker_restarts,
            "wall_timeouts": self.wall_timeouts,
            "quarantined": quarantined,
            "dnf": dnf,
        }


class Sweep:
    """The resilient sweep engine.

    ``Sweep("table5").run(cells, execute)`` runs every cell through an
    isolated failure boundary; add ``journal=`` for durability,
    ``resume=True`` to replay a previous journal, ``deadline_s=`` for a
    per-cell simulated-time budget, and ``max_retries=`` /
    ``backoff_base_s`` / ``backoff_cap_s`` for the transient-failure
    policy. The backoff schedule is recorded on each record
    (``backoff_s``), never waited out: every executor here runs on a
    simulated clock.

    ``jobs`` fans cells out over the **supervised worker pool**
    (:mod:`repro.harness.supervisor`): ``None``/``1`` run in-process,
    ``0`` means ``os.cpu_count()``, and any other N runs N workers.
    The parent stays the sole journal writer and merges records in
    enumeration order, so journals, resume, retries and DNF taxonomy
    are **byte-identical across any worker count**.

    The supervisor adds real-process fault tolerance on top:
    ``wall_deadline_s`` is a per-cell *wall-clock* budget (distinct
    from the simulated ``deadline_s``) after which a hung worker is
    killed and the cell records ``timeout`` with ``wall_clock=true``;
    ``max_crashes`` quarantines a poison cell as ``crashed`` after it
    kills that many workers; ``memory_limit_mb`` caps each worker's
    address space (``RLIMIT_AS``, as headroom above the interpreter's
    footprint at fork) so a real allocation blow-up surfaces as the
    ``out-of-memory`` status; and ``real_chaos`` injects *actual*
    process faults (:class:`~repro.chaos.RealFaultPlan`; ``None``
    means none) to prove all of the above. Any of these knobs routes
    execution through the supervisor even at ``jobs=1``.

    The engine is deliberately stateless between ``run`` calls except
    for ``last``, the most recent :class:`SweepResult` (handy for
    callers like the CLI that get back only assembled table data).
    """

    def __init__(self, name: str, journal=None, resume: bool = False,
                 deadline_s: float = None, max_retries: int = 2,
                 backoff_base_s: float = 0.5, backoff_cap_s: float = 8.0,
                 tracer=None, jobs=None,
                 wall_deadline_s: float = None, max_crashes: int = 2,
                 memory_limit_mb: float = None,
                 mapped_allowance_mb: float = 0.0, real_chaos=None,
                 pool=None, stop=None, on_cell=None):
        from ..chaos.real import resolve_real_chaos

        if jobs is not None and jobs < 0:
            raise ReproError("jobs must be >= 0 (0 = all cores)")
        # Written so that NaN fails each comparison: a NaN wall deadline
        # would make the supervisor's wait timeout 0 and kill nothing.
        if wall_deadline_s is not None and not 0 < wall_deadline_s < math.inf:
            raise ReproError("wall_deadline_s must be a finite number > 0")
        if max_crashes < 1:
            raise ReproError("max_crashes must be >= 1")
        if memory_limit_mb is not None and not 0 < memory_limit_mb < math.inf:
            raise ReproError("memory_limit_mb must be a finite number > 0")
        if not 0 <= mapped_allowance_mb < math.inf:
            raise ReproError("mapped_allowance_mb must be a finite number "
                             ">= 0")
        self.name = name
        self.journal_path = Path(journal) if journal is not None else None
        self.resume = resume
        #: The per-cell policy every worker gets, and the journal
        #: header's config — which deliberately excludes ``jobs``: a
        #: parallel sweep's journal is byte-identical to (and resumable
        #: as) a serial one's.
        self.policy = CellPolicy(deadline_s, max_retries, backoff_base_s,
                                 backoff_cap_s)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.jobs = jobs
        self.wall_deadline_s = wall_deadline_s
        self.max_crashes = max_crashes
        self.memory_limit_mb = memory_limit_mb
        self.mapped_allowance_mb = mapped_allowance_mb
        #: The real-fault plan, or None (an empty plan is None too).
        self.real_chaos = resolve_real_chaos(real_chaos) or None
        #: Externally owned, already-started SupervisorPool to reuse
        #: (warm workers persist across runs); None = own a fresh pool.
        self.pool = pool
        #: Cooperative drain probe for non-main threads (returns a
        #: signal number to drain, else None) — the serving layer's
        #: SIGTERM path, where real signal handlers cannot be installed.
        self.stop = stop
        #: Optional per-record hook, called after each cell is merged
        #: (and journaled): ``on_cell(record)``.
        self.on_cell = on_cell
        self.last = None

    def supervisor_policy(self):
        """The parent-side supervision policy for the worker pool."""
        from .supervisor import SupervisorPolicy

        limit_bytes = int(self.memory_limit_mb * 2**20) \
            if self.memory_limit_mb else None
        allowance = int(self.mapped_allowance_mb * 2**20)
        return SupervisorPolicy(max_crashes=self.max_crashes,
                                memory_limit_bytes=limit_bytes,
                                mapped_allowance_bytes=allowance)

    def supervised(self) -> bool:
        """Must cells run in worker processes (even at ``jobs=1``)?

        Wall-clock deadlines, crash containment, memory caps and real
        chaos all need a process boundary between the supervisor and
        the cell — in-process execution cannot kill a hung cell.
        """
        return bool(self.wall_deadline_s is not None
                    or self.memory_limit_mb is not None
                    or self.real_chaos is not None)

    def effective_jobs(self) -> int:
        """The worker count ``run`` will use (resolves ``jobs=0``)."""
        if self.pool is not None:
            return self.pool.jobs
        if self.jobs == 0:
            return os.cpu_count() or 1
        return self.jobs or 1

    def run(self, cells, execute) -> SweepResult:
        """Run (or resume) the sweep; returns every cell's record.

        ``cells`` — an iterable of cell-key dicts, enumerated up front;
        ``execute(key, budget_s=...)`` — computes one cell and returns a
        JSON-safe payload or a :class:`CellOutcome`. The executor is
        never called for a cell already in the journal.
        """
        keys = [dict(key) for key in cells]
        ids = [cell_id(key) for key in keys]
        if len(set(ids)) != len(ids):
            raise ReproError(f"sweep {self.name!r} enumerates duplicate cells")

        journal, records = None, {}
        if self.journal_path is not None:
            journal = SweepJournal(self.journal_path)
            if self.journal_path.exists():
                if not self.resume:
                    raise ReproError(
                        f"journal {self.journal_path} already exists; pass "
                        "resume=True (--resume) to continue it or remove it "
                        "to start over"
                    )
                loaded = journal.load(self.name)
                # Only cells of *this* sweep replay; stale extras are
                # ignored (e.g. the frontier was narrowed between runs).
                records = {cid: loaded[cid] for cid in ids if cid in loaded}
                records = self._drop_real_faults(ids, records, journal)
            journal.open(self.name, asdict(self.policy))

        result = SweepResult(self.name, keys, records)
        jobs = self.effective_jobs()
        tracer = self.tracer
        try:
            with tracer.span("sweep", sweep=self.name, cells=len(keys),
                             resumed=len(records), jobs=jobs):
                pending = []
                for index, (key, cid) in enumerate(zip(keys, ids)):
                    if cid in records:
                        result.replayed += 1
                        tracer.instant("cell-replayed", **key)
                    else:
                        pending.append((index, key, cid))
                if pending and (self.supervised()
                                or self.pool is not None
                                or (jobs > 1 and len(pending) > 1)):
                    merged = self._pooled(pending, execute, jobs, result)
                else:
                    merged = ((cid, execute_cell(key, execute, self.policy,
                                                 tracer=tracer), [], None)
                              for _index, key, cid in pending)
                # One merge for both paths, in enumeration order;
                # closing() shuts the pool down at once if a merge step
                # (a journal append, ``on_cell``) raises.
                with closing(merged):
                    for cid, record, spans, worker in merged:
                        records[cid] = record
                        result.executed += 1
                        tracer.merge_spans(spans, worker=worker)
                        if journal is not None:
                            journal.append(record)
                        if self.on_cell is not None:
                            self.on_cell(record)
        finally:
            if journal is not None:
                journal.close()
        self.last = result
        return result

    def _drop_real_faults(self, ids, records, journal) -> dict:
        """Forget journaled cells a *real* process fault ended.

        A ``crashed`` or wall-clock ``timeout`` record describes the
        machine (a poison binary, an overloaded box), not the simulated
        experiment — replaying it would freeze a transient outcome
        forever. Resume instead re-executes those cells: the journal is
        truncated to its clean enumeration-order prefix (merge order ==
        enumeration order, so everything after the first real-fault
        line re-runs deterministically) and a fault-free resume
        converges byte-for-byte to the journal of a clean run.
        """
        if not any(record.real_fault for record in records.values()):
            return records
        kept = {}
        for cid in ids:
            record = records.get(cid)
            if record is None or record.real_fault:
                break
            kept[cid] = record
        for cid, record in records.items():
            if record.real_fault:
                self.tracer.instant("cell-refaulted", status=record.status,
                                    **record.key)
        journal.retain_prefix(len(kept))
        return kept

    def _pooled(self, pending, execute, jobs, result):
        """Run ``pending`` on the supervised pool; yield in enumeration order.

        Yields ``(cid, record, worker spans, worker name)`` per cell.
        Around the pool it owns three things for this run: the SIGINT /
        SIGTERM drain handlers (a drain stops the in-order wait and
        raises :class:`~repro.errors.SweepInterrupted`; in-flight cells
        stay pending for ``--resume``), the wait itself, and shutdown —
        close an owned pool, or cancel this run's tickets on a shared
        one if it did not finish.
        """
        from .supervisor import HEARTBEAT_S, SupervisorPool, SupervisorStats

        if self.real_chaos is not None:
            self.real_chaos.validate(len(result.keys),
                                     self.memory_limit_mb is not None)
        stats = SupervisorStats()
        pool = self.pool if self.pool is not None else SupervisorPool(
            jobs, supervise=self.supervisor_policy(), tracer=self.tracer)
        signals = []                  # drain signals the handlers caught

        def _drain(signum, _frame):
            signals.append(signum)

        previous = {signum: _install(signum, _drain)
                    for signum in (signal.SIGINT, signal.SIGTERM)}
        tickets, clean = [], False
        try:
            for index, key, cid in pending:
                tickets.append(pool.submit(
                    key, cid, execute, self.policy, index=index,
                    traced=self.tracer.enabled, plan=self.real_chaos,
                    wall_deadline_s=self.wall_deadline_s,
                    tracer=self.tracer, stats=stats))
            # An owned pool starts with every cell queued, so it keeps
            # each group on one worker; a shared pool runs them in order.
            pool.start()
            for position, ticket in enumerate(tickets):
                while True:
                    signum = signals[0] if signals \
                        else self.stop() if self.stop is not None else None
                    if signum is not None:
                        still_pending = len(tickets) - position
                        self.tracer.instant("drain", signum=signum,
                                            pending=still_pending)
                        raise SweepInterrupted(signum, still_pending)
                    cell = ticket.wait(HEARTBEAT_S)
                    if cell is not None:
                        break
                yield ticket.cid, cell.record, cell.spans, cell.worker
            clean = True
        finally:
            if self.pool is None:
                pool.close(force=not clean)
            elif not clean:
                pool.cancel(tickets)
            for signum, handler in previous.items():
                if handler is not None:
                    signal.signal(signum, handler)
            result.worker_restarts += stats.restarts
            result.wall_timeouts += stats.wall_timeouts


def _install(signum, handler):
    """``signal.signal`` that returns None off the main thread."""
    try:
        return signal.signal(signum, handler)
    except (ValueError, OSError):
        return None


def _sweep_targets() -> list:
    from .artifacts import sweep_targets

    return sweep_targets()


@dataclass(frozen=True)
class SweepRequest(Request):
    """One sweep as ``repro sweep`` and ``POST /sweeps`` both ask for it.

    The simulated deadline is spelled ``--deadline`` on the CLI and
    ``sim_deadline_s`` over HTTP, where ``deadline_s`` is the request's
    wall-clock admission budget.
    """

    NOUN = "sweep"

    target: str = declare(choices=_sweep_targets)
    journal: Optional[str] = declare(
        None, help="append-only JSONL journal; completed cells are "
                   "replayed from it on --resume")
    resume: bool = declare(
        False, help="continue an interrupted sweep from --journal "
                    "instead of refusing to overwrite it")
    sim_deadline_s: Optional[float] = declare(
        None, bound=(">", 0), flag="--deadline",
        help="per-cell budget in simulated seconds; cells over it become "
             "'timeout' records")
    max_retries: int = declare(
        2, bound=(">=", 0),
        help="retries (with capped exponential backoff) before a cell with "
             "unexpected errors is quarantined (default: 2)")
    frameworks: Optional[Tuple[str, ...]] = declare(
        None, help="comma-separated framework subset")
    algorithms: Optional[Tuple[str, ...]] = declare(
        None, help="comma-separated algorithm subset")

    def __post_init__(self):
        from .artifacts import ARTIFACTS

        self._check_fields()
        targets = _sweep_targets()
        if self.target not in targets:
            raise SpecError(f"unknown sweep target {self.target!r}; "
                            f"valid: {', '.join(targets)}")
        check_names("framework", self.frameworks or (), FRAMEWORKS)
        check_names("algorithm", self.algorithms or (), ALGORITHMS)
        if self.algorithms and not ARTIFACTS[self.target].takes_algorithms:
            raise SpecError(f"{self.target} does not take 'algorithms'")

    def run(self, **engine):
        """Run it through its artifact's producer: ``(data, completeness)``.

        The one place a :class:`Sweep` meets an artifact producer;
        ``engine`` carries the caller's process knobs (``jobs``,
        ``pool``, ``tracer``, ``wall_deadline_s``, ``on_cell``, ...).
        """
        from .artifacts import ARTIFACTS

        sweep = Sweep(self.target, journal=self.journal, resume=self.resume,
                      deadline_s=self.sim_deadline_s,
                      max_retries=self.max_retries, **engine)
        subset = {name: getattr(self, name)
                  for name in ("frameworks", "algorithms")
                  if getattr(self, name)}
        data = ARTIFACTS[self.target].producer(sweep=sweep, **subset)
        return data, sweep.last.completeness()
