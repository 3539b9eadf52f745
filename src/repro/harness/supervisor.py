"""Supervised worker pool: parallel sweeps that survive real faults.

The PR-5 executor fanned cells over a bare ``multiprocessing.Pool``,
which defends against nothing the real world does to long sweeps: a
worker that segfaults or is OOM-killed stalls ``imap`` forever, a cell
that spins past any reasonable wall time wedges the whole run, and a
poison cell would be re-dispatched until the machine gives up. Ammar &
Özsu's eight-system study reports exactly this failure class — jobs
that *fail or never return* — as the dominant result at scale, and the
PR-3 DNF taxonomy exists to record it honestly. This module closes the
gap with a parent-side **supervisor** driving long-lived workers over
explicit per-worker pipes:

* **Death detection + restart.** The supervisor waits on each worker's
  result pipe *and* its process sentinel
  (``multiprocessing.connection.wait``), so a dead worker — any exit
  code, any signal — is noticed immediately, its in-flight cell is
  re-dispatched, and a replacement worker is started.
* **Poison-cell quarantine.** A cell that kills its worker
  ``max_crashes`` times is quarantined with the typed DNF status
  ``crashed`` (exit signal/code recorded) instead of crash-looping the
  pool.
* **Wall-clock deadlines.** ``wall_deadline_s`` bounds each cell in
  *real* seconds — distinct from the PR-3 simulated-clock
  ``deadline_s`` — after which the hung worker is SIGKILLed and the
  cell records DNF ``timeout`` with ``wall_clock=true``.
* **Memory caps.** ``memory_limit_bytes`` caps each worker's address
  space (``RLIMIT_AS``, as headroom above the interpreter's footprint
  at fork), so a real allocation blow-up raises ``MemoryError`` — the
  ``out-of-memory`` DNF status — instead of invoking the OOM killer.
* **Graceful drain.** SIGINT/SIGTERM (caught by the sweep driving the
  pool) stop dispatch, flush the merged prefix to the journal, leave
  in-flight cells pending and raise
  :class:`~repro.errors.SweepInterrupted` (CLI exit code 8), so
  ``--resume`` continues byte-identically.

The pool is a **long-lived object**: :class:`SupervisorPool` owns the
workers and a supervision thread, and each *task* ships its own
executor, cell policy, wall deadline, tracer and chaos plan over the
pipe. That makes the pool generic — the ``repro serve`` daemon keeps
one warm pool across requests, and repeated
:class:`~repro.harness.sweep.Sweep` runs in one process reuse workers
instead of paying fork + import per sweep. The lifecycle is explicit:
``start()`` → ``submit()`` (returns a :class:`Ticket`) →
``Ticket.wait()`` → ``close()``. The pool has two drivers and no
layer between them and it: ``Sweep`` submits its pending cells, waits
on the tickets in enumeration order and owns the drain signals; the
daemon submits one cell per request and hops each ticket onto its
event loop.

Every PR-5 durability guarantee is preserved: workers run the exact
:func:`~repro.harness.sweep.execute_cell` semantics, the parent remains
the sole journal writer, results merge in **enumeration order** (so a
``jobs=N`` journal is byte-identical to a serial one), and worker
tracer spans graft under the parent's sweep span. Supervisor events —
``worker-restart``, ``wall-timeout``, ``poison-quarantine``, ``drain``
— are parent-side tracer instants, and none of the fault bookkeeping
(worker names, crash counts for cells that eventually complete) leaks
into the journal: a cell that survives a worker kill journals the same
bytes a clean run writes — and so does a cell that ran on a reused
warm worker instead of a fresh one.

Shutdown semantics (the old pool got this wrong): on the clean path
workers are asked to exit (sentinel task), then joined — the
``close()``/``join()`` idiom; ``terminate()`` is reserved for the
error/drain path.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import stat
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection

from ..errors import STATUS_CRASHED, STATUS_TIMEOUT, ReproError, SpecError
from ..observability import NULL_TRACER, Tracer
from .sweep import CellRecord, execute_cell


#: Supervision poll period (real seconds): the upper bound on how stale
#: liveness/deadline checks, and a sweep's drain check, can be when no
#: pipe event fires.
HEARTBEAT_S = 0.1


@dataclass(frozen=True)
class SupervisorPolicy:
    """Parent-side supervision knobs, one value object per pool.

    Distinct from :class:`~repro.harness.sweep.CellPolicy` on purpose:
    the cell policy travels *into* workers and defines what a cell
    records; this policy stays in the parent and defines what happens
    to the worker processes around it. The wall deadline is not here:
    every caller passes its own per task to :meth:`SupervisorPool.submit`.
    """

    #: Worker deaths a single cell may cause before quarantine.
    max_crashes: int = 2
    #: RLIMIT_AS headroom (bytes) above the worker's footprint at fork;
    #: None = no cap.
    memory_limit_bytes: int = None
    #: Extra address-space allowance (bytes) on top of
    #: ``memory_limit_bytes`` for *file-backed* maps. RLIMIT_AS counts
    #: mapped shard files the same as anonymous pages, so without this
    #: an out-of-core cell's read-only mmaps would eat the budget meant
    #: for its working set. Ignored when ``memory_limit_bytes`` is None.
    mapped_allowance_bytes: int = 0


@dataclass
class SupervisorStats:
    """Mutable fault accounting the caller reads after the run."""

    restarts: int = 0
    wall_timeouts: int = 0
    poisoned: int = 0


@dataclass
class CompletedCell:
    """What a :class:`Ticket` completes with: one cell's record."""

    record: object          # CellRecord
    spans: list             # worker-side Span objects (may be empty)
    worker: str             # supervised worker name, e.g. "sweep-worker-2"


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def describe_exit(exitcode) -> str:
    """Human-readable worker exit: ``signal 9 (SIGKILL)`` or ``exit 3``."""
    if exitcode is None:
        return "still running"
    if exitcode < 0:
        try:
            name = signal.Signals(-exitcode).name
        except ValueError:
            name = "unknown signal"
        return f"signal {-exitcode} ({name})"
    return f"exit code {exitcode}"


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _apply_memory_limit(headroom_bytes: int) -> None:
    """Cap this process's address space at footprint + headroom.

    The cap is *headroom above the current footprint* (read from
    ``/proc/self/statm`` where available) rather than an absolute
    number, so ``memory_limit_mb=256`` means "a cell may allocate
    ~256 MB" regardless of how much address space the interpreter and
    numpy already map. Platforms without ``resource``/``RLIMIT_AS``
    silently skip the cap — the supervisor still contains the fallout
    (the OOM-killed worker is just a crash).
    """
    try:
        import resource
    except ImportError:
        return
    base = 0
    try:
        with open("/proc/self/statm") as handle:
            base = int(handle.read().split()[0]) \
                * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        pass
    limit = base + int(headroom_bytes)
    try:
        _soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        if hard != resource.RLIM_INFINITY:
            limit = min(limit, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    except (AttributeError, ValueError, OSError):
        pass


class _BallooningExecute:
    """Executor wrapper for injected ``oom(...)`` faults.

    Balloons real memory *inside* the cell's isolation boundary, so the
    resulting ``MemoryError`` flows through
    :func:`~repro.harness.sweep.execute_cell`'s typed-failure
    classification and records the paper's ``out-of-memory`` status —
    the same path a genuine worker-side allocation blow-up takes.
    """

    def __init__(self, execute, mb: int):
        self.execute = execute
        self.mb = int(mb)

    def __call__(self, key, budget_s=None):
        chunks = []
        chunk_bytes = 16 * 2**20
        try:
            for _ in range(max(1, (self.mb * 2**20) // chunk_bytes)):
                # Touch the pages so the balloon is real memory, not
                # just reserved address space.
                chunks.append(bytearray(chunk_bytes))
        except MemoryError:
            raise MemoryError(
                f"real-chaos balloon hit the worker address-space cap "
                f"after ~{len(chunks) * chunk_bytes // 2**20} MB of "
                f"{self.mb} MB") from None
        finally:
            del chunks
        return self.execute(key, budget_s=budget_s)


def _keep_heap() -> None:
    """Pin glibc's malloc thresholds in this worker: blocks up to 64 MiB
    come from the heap and up to 128 MiB of freed heap stays mapped, so
    one cell's arrays are reused by the next instead of faulting fresh
    pages. A no-op where libc has no ``mallopt``."""
    try:
        import ctypes
        mallopt = ctypes.CDLL(None).mallopt
    except (ImportError, OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), \
        ctypes.c_int
    mallopt(-3, 64 * 2**20)     # M_MMAP_THRESHOLD
    mallopt(-1, 128 * 2**20)    # M_TRIM_THRESHOLD


def _drop_inherited(parent_ends) -> None:
    """Point what a forked worker must not hold at ``/dev/null``.

    That is every inherited socket — a worker ``repro serve`` forks
    lazily holds the listening socket and every open client connection,
    so a connection the server closes would never reach EOF at the
    client — and ``parent_ends``, the pool's parent-side pipe ends: this
    worker's own task-pipe write end, other workers' ends and the wake
    pipe. A task pipe whose write end a worker holds never reads EOF, so
    the worker would outlive a dead parent. multiprocessing's sentinel
    pipe is not among them: closing it would make the parent's
    ``process.sentinel`` ready while the worker lives. Overwriting (not
    closing) each fd keeps its number taken, so an inherited object that
    later closes "its" fd cannot close a file the worker opened since.
    """
    try:
        fds = {int(name) for name in os.listdir("/proc/self/fd")}
    except OSError:
        fds = set()
    null = os.open(os.devnull, os.O_RDWR)
    for fd in fds | set(parent_ends):
        try:
            if fd != null and (fd in parent_ends
                               or stat.S_ISSOCK(os.fstat(fd).st_mode)):
                os.dup2(null, fd)
        except OSError:
            pass
    os.close(null)


def _worker_main(task_conn, result_conn, memory_limit_bytes,
                 mapped_allowance_bytes, parent_ends) -> None:
    """Long-lived *generic* worker loop: recv task, run cell, send record.

    Each task frame carries its own executor, cell policy and chaos
    plan (pickled by the parent), so one worker serves back-to-back
    sweeps — and the serving layer's mixed request stream — without
    restarting. The parent owns shutdown: SIGINT is ignored (a terminal
    Ctrl-C hits the whole process group; the parent's drain logic
    decides what it means), SIGTERM is reset to its default (the
    parent's drain handler, inherited through fork, would make it a
    no-op here), and the loop exits on the empty sentinel frame or on
    EOF. The parent is the only holder of the task pipe's write end
    (:func:`_drop_inherited`), so EOF also covers a dead parent:
    SIGKILLing the sweep leaves no orphan workers.
    """
    _drop_inherited(parent_ends)
    _keep_heap()
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):
        pass
    if memory_limit_bytes:
        _apply_memory_limit(memory_limit_bytes + mapped_allowance_bytes)
    while True:
        try:
            frame = task_conn.recv_bytes()
        except (EOFError, OSError):
            break
        if not frame:
            break
        (ticket_id, index, key, crashes, execute, policy, traced,
         plan) = pickle.loads(frame)
        run_execute = execute
        if plan is not None:
            if plan.kill_now(index, crashes):
                os.kill(os.getpid(), signal.SIGKILL)
            hang_s = plan.hang_seconds(index)
            if hang_s is not None and crashes == 0:
                time.sleep(hang_s)
            balloon = plan.balloon_mb(index)
            if balloon is not None and crashes == 0:
                run_execute = _BallooningExecute(execute, balloon)
        tracer = Tracer() if traced else NULL_TRACER
        record = execute_cell(key, run_execute, policy, tracer=tracer)
        spans = list(tracer.spans) if traced else []
        try:
            result_conn.send((ticket_id, record, spans))
        except (BrokenPipeError, OSError):
            break


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class Ticket:
    """A submitted cell's completion handle.

    Returned by :meth:`SupervisorPool.submit`; completed exactly once
    with a :class:`CompletedCell` (or an error if the pool dies under
    it). ``wait`` blocks the caller; ``add_done_callback`` runs on the
    supervision thread — keep callbacks tiny (the serving layer uses
    them to hop results onto its event loop).
    """

    _COUNTER = [0]
    _COUNTER_LOCK = threading.Lock()

    def __init__(self, index, key, cid):
        with Ticket._COUNTER_LOCK:
            Ticket._COUNTER[0] += 1
            self.id = Ticket._COUNTER[0]
        self.index = index
        self.key = key
        self.cid = cid
        self.cell = None          # CompletedCell once done
        self.error = None         # exception if the pool failed this task
        self.cancelled = False
        self._event = threading.Event()
        self._callbacks = []
        self._lock = threading.Lock()

    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout=None):
        """Block for the result; ``None`` on timeout, raises pool errors."""
        if not self._event.wait(timeout):
            return None
        if self.error is not None:
            raise self.error
        return self.cell

    def add_done_callback(self, fn) -> None:
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(fn)
                return
        fn(self)

    def _finish(self, cell=None, error=None) -> None:
        with self._lock:
            if self._event.is_set():
                return
            self.cell = cell
            self.error = error
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


class _Task:
    """Parent-side dispatch state for one submitted cell."""

    __slots__ = ("ticket", "index", "key", "crashes", "execute", "policy",
                 "traced", "plan", "wall_deadline_s", "tracer", "stats")

    def __init__(self, ticket, execute, policy, traced, plan,
                 wall_deadline_s, tracer, stats):
        self.ticket = ticket
        self.index = ticket.index
        self.key = ticket.key
        self.crashes = 0
        self.execute = execute
        self.policy = policy
        self.traced = traced
        self.plan = plan
        self.wall_deadline_s = wall_deadline_s
        self.tracer = tracer
        self.stats = stats

    def frame(self) -> bytes:
        return pickle.dumps((self.ticket.id, self.index, self.key,
                             self.crashes, self.execute, self.policy,
                             self.traced, self.plan))


class _WorkerHandle:
    """One supervised worker: process + its two pipe endpoints.

    ``parent_ends`` are the pool's other parent-side pipe fds a forked
    child inherits; the worker drops them, and its own, at start.
    """

    def __init__(self, context, name, memory_limit_bytes,
                 mapped_allowance_bytes, parent_ends):
        task_recv, self.task_conn = context.Pipe(duplex=False)
        self.result_conn, result_send = context.Pipe(duplex=False)
        if context.get_start_method() == "fork":
            parent_ends = (*parent_ends, self.task_conn.fileno(),
                           self.result_conn.fileno())
        else:                         # a spawned child inherits none
            parent_ends = ()
        self.process = context.Process(
            target=_worker_main, name=name,
            args=(task_recv, result_send, memory_limit_bytes,
                  mapped_allowance_bytes, parent_ends), daemon=True)
        self.process.start()
        # Close the child's ends in the parent so a dead worker reads
        # as EOF on result_conn instead of blocking forever.
        task_recv.close()
        result_send.close()
        self.name = name
        self.inflight = None          # _Task or None
        self.deadline_at = None       # monotonic seconds, or None
        self.killed_for_timeout = False

    def dispatch(self, task: _Task) -> None:
        self.task_conn.send_bytes(task.frame())
        self.inflight = task
        self.killed_for_timeout = False
        self.deadline_at = time.monotonic() + task.wall_deadline_s \
            if task.wall_deadline_s is not None else None

    def settle(self) -> None:
        self.inflight = None
        self.deadline_at = None
        self.killed_for_timeout = False

    def close(self) -> None:
        for conn in (self.task_conn, self.result_conn):
            try:
                conn.close()
            except OSError:
                pass


class SupervisorPool:
    """A long-lived supervised worker pool reused across submissions.

    ``start()`` spins up the supervision thread (workers spawn lazily,
    up to ``jobs``, as tasks arrive); ``submit()`` enqueues one cell and
    returns a :class:`Ticket` whose ``wait()`` blocks until that cell
    settled; ``close()`` shuts the pool down — cleanly (sentinel +
    join) by default, ``force=True`` terminates.

    All supervision — dispatch, death detection, restart, poison
    quarantine, wall-deadline kills — happens on one internal thread,
    so ``submit`` is safe from any thread (the serving layer calls it
    from an asyncio loop, sweeps from worker threads). Fault accounting
    lands both in the pool-wide :attr:`stats` (the server's ``/stats``)
    and in the per-submission ``stats`` object passed to ``submit``.
    """

    def __init__(self, jobs, supervise=None, tracer=None):
        if jobs < 1:
            raise SpecError(f"a worker pool needs jobs >= 1, got {jobs}")
        self.jobs = int(jobs)
        self.supervise = supervise if supervise is not None \
            else SupervisorPolicy()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = SupervisorStats()
        self._context = _mp_context()
        self._lock = threading.RLock()
        self._queue = deque()         # _Task awaiting (re-)dispatch
        self._workers = []
        self._spawned = 0
        self._started = False
        self._closing = False
        self._force = False
        self._thread = None
        self._wake_recv = None
        self._wake_send = None

    # -- lifecycle ----------------------------------------------------

    def start(self) -> "SupervisorPool":
        with self._lock:
            if self._started:
                return self
            self._wake_recv, self._wake_send = self._context.Pipe(
                duplex=False)
            self._started = True
            self._thread = threading.Thread(
                target=self._run, name="sweep-supervisor", daemon=True)
            self._thread.start()
        return self

    def submit(self, key, cid, execute, policy, *, index=0, traced=False,
               plan=None, wall_deadline_s=None, tracer=None,
               stats=None) -> Ticket:
        """Enqueue one cell; returns its completion :class:`Ticket`.

        ``index`` is the cell's position in its sweep (what a chaos
        ``plan`` names); ``wall_deadline_s`` bounds this task in real
        seconds (``None``: no deadline). ``tracer`` and ``stats`` scope
        fault events to this submission; the pool-wide accounting is
        updated regardless.
        """
        if not self._started or self._closing:
            raise ReproError("SupervisorPool.submit on a pool that is "
                             "not running (call start(), not after close())")
        ticket = Ticket(index, key, cid)
        task = _Task(ticket, execute, policy, traced, plan, wall_deadline_s,
                     tracer if tracer is not None else NULL_TRACER,
                     stats if stats is not None else SupervisorStats())
        try:
            task.frame()              # surface pickling errors here,
        except Exception as error:    # in the submitting thread
            if _looks_like_pickling_error(error):
                raise ReproError(
                    "supervised sweeps need picklable cell keys and a "
                    "picklable executor (module-level function, not a "
                    f"closure); run with jobs=1: {error}") from error
            raise
        with self._lock:
            self._queue.append(task)
        self._wake()
        return ticket

    def cancel(self, tickets) -> None:
        """Abandon submissions: queued tasks drop, in-flight results drop.

        Cancelled tickets never complete — callers must not ``wait`` on
        them afterwards. Workers stay alive for the next submission
        (an in-flight cell finishes and its result is discarded),
        mirroring the drain contract: nothing cancelled reaches a
        journal.
        """
        wanted = {ticket.id for ticket in tickets}
        with self._lock:
            for task in list(self._queue):
                if task.ticket.id in wanted:
                    self._queue.remove(task)
                    task.ticket.cancelled = True
            for worker in self._workers:
                if worker.inflight is not None \
                        and worker.inflight.ticket.id in wanted:
                    worker.inflight.ticket.cancelled = True
        self._wake()

    def close(self, force: bool = False) -> None:
        """Shut down: clean close finishes queued work first,
        ``force=True`` drops the queue and terminates workers."""
        with self._lock:
            if not self._started:
                return
            self._closing = True
            self._force = self._force or force
        self._wake()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
        with self._lock:
            for conn in (self._wake_recv, self._wake_send):
                if conn is not None:
                    try:
                        conn.close()
                    except OSError:
                        pass
            self._wake_recv = self._wake_send = None

    def outstanding(self) -> int:
        with self._lock:
            return self._outstanding_locked()

    @property
    def alive_workers(self) -> int:
        with self._lock:
            return sum(1 for worker in self._workers
                       if worker.process.is_alive())

    # -- internals (supervision thread) -------------------------------

    def _wake(self) -> None:
        with self._lock:
            send = self._wake_send
        if send is None:
            return
        try:
            send.send_bytes(b"w")
        except (BrokenPipeError, OSError):
            pass

    def _outstanding_locked(self) -> int:
        return len(self._queue) + sum(
            1 for worker in self._workers if worker.inflight is not None)

    def _bump(self, task, field) -> None:
        setattr(self.stats, field, getattr(self.stats, field) + 1)
        if task is not None and task.stats is not self.stats:
            setattr(task.stats, field, getattr(task.stats, field) + 1)

    def _start_worker(self) -> _WorkerHandle:
        self._spawned += 1
        conns = [self._wake_recv, self._wake_send]
        for other in self._workers:
            conns += [other.task_conn, other.result_conn]
        worker = _WorkerHandle(self._context,
                               f"sweep-worker-{self._spawned}",
                               self.supervise.memory_limit_bytes,
                               self.supervise.mapped_allowance_bytes,
                               [conn.fileno() for conn in conns])
        self._workers.append(worker)
        return worker

    def _ensure_workers_locked(self) -> None:
        want = min(self.jobs, self._outstanding_locked())
        while len(self._workers) < want:
            self._start_worker()

    def _dispatch_locked(self) -> None:
        for worker in self._workers:
            if worker.inflight is None and self._queue:
                worker.dispatch(self._queue.popleft())

    def _complete(self, worker, payload) -> None:
        ticket_id, record, spans = payload
        task = worker.inflight
        worker.settle()
        if task is None or task.ticket.id != ticket_id:
            return                    # stale frame from a raced dispatch
        if task.ticket.cancelled:
            return
        task.ticket._finish(cell=CompletedCell(record, spans, worker.name))

    def _reap(self, worker) -> None:
        """A worker died: classify, re-dispatch or quarantine, restart."""
        worker.process.join()
        exitcode = worker.process.exitcode
        task = worker.inflight
        self._workers.remove(worker)
        worker.close()
        if task is not None:
            if task.ticket.cancelled:
                pass                  # abandoned mid-flight: drop it
            elif worker.killed_for_timeout:
                self._bump(task, "wall_timeouts")
                task.tracer.instant(
                    "wall-timeout", worker=worker.name,
                    wall_deadline_s=task.wall_deadline_s, **task.key)
                record = CellRecord(
                    task.key, STATUS_TIMEOUT, wall_clock=True,
                    failure=f"wall-clock deadline of "
                            f"{task.wall_deadline_s:g} s exceeded; "
                            "worker killed")
                task.ticket._finish(cell=CompletedCell(record, [],
                                                       worker.name))
            else:
                task.crashes += 1
                if task.crashes >= self.supervise.max_crashes:
                    self._bump(task, "poisoned")
                    task.tracer.instant(
                        "poison-quarantine", worker=worker.name,
                        crashes=task.crashes,
                        exit=describe_exit(exitcode), **task.key)
                    record = CellRecord(
                        task.key, STATUS_CRASHED, attempts=task.crashes,
                        quarantined=True,
                        failure=f"cell killed its worker {task.crashes} "
                                f"time(s); quarantined as poison "
                                f"(last death: {describe_exit(exitcode)})")
                    task.ticket._finish(cell=CompletedCell(record, [],
                                                           worker.name))
                else:
                    self._queue.appendleft(task)
        if self._queue and len(self._workers) < self.jobs \
                and not self._force:
            replacement = self._start_worker()
            self._bump(task, "restarts")
            (task.tracer if task is not None else self.tracer).instant(
                "worker-restart", worker=replacement.name,
                after=describe_exit(exitcode), replaces=worker.name)

    def _run(self) -> None:
        try:
            self._supervise_loop()
        except Exception as error:  # pragma: no cover - defensive
            self._fail_all(error)
            with self._lock:
                workers, self._workers = list(self._workers), []
            _shutdown(workers, clean=False)
            return
        with self._lock:
            clean = not self._force
            workers, self._workers = list(self._workers), []
            if self._force:
                abandoned = list(self._queue)
                self._queue.clear()
                for worker in workers:
                    if worker.inflight is not None:
                        abandoned.append(worker.inflight)
                        worker.inflight = None
                error = ReproError("supervisor pool closed before the "
                                   "cell completed")
                for task in abandoned:
                    if not task.ticket.cancelled:
                        task.ticket._finish(error=error)
        _shutdown(workers, clean)

    def _fail_all(self, error) -> None:
        with self._lock:
            tasks = list(self._queue)
            self._queue.clear()
            for worker in self._workers:
                if worker.inflight is not None:
                    tasks.append(worker.inflight)
                    worker.inflight = None
            for task in tasks:
                task.ticket._finish(error=error)

    def _supervise_loop(self) -> None:
        while True:
            with self._lock:
                if self._closing and (self._force
                                      or not self._outstanding_locked()):
                    return
                self._ensure_workers_locked()
                self._dispatch_locked()
                workers = list(self._workers)
                wake = self._wake_recv
                timeout = HEARTBEAT_S
                now = time.monotonic()
                for worker in workers:
                    if worker.deadline_at is not None:
                        timeout = min(timeout,
                                      max(0.0, worker.deadline_at - now))
            ready = set(connection.wait(
                [worker.result_conn for worker in workers]
                + [worker.process.sentinel for worker in workers]
                + ([wake] if wake is not None else []),
                timeout=timeout))
            if wake is not None and wake in ready:
                try:
                    while wake.poll():
                        wake.recv_bytes()
                except (EOFError, OSError):
                    pass
            with self._lock:
                for worker in workers:
                    if worker in self._workers \
                            and worker.result_conn in ready:
                        try:
                            self._complete(worker,
                                           worker.result_conn.recv())
                        except (EOFError, OSError):
                            pass      # death raced the recv; reap below
                for worker in workers:
                    if worker in self._workers \
                            and worker.process.sentinel in ready \
                            and not worker.process.is_alive():
                        # Accept a result that raced the death before
                        # declaring the cell crashed.
                        try:
                            if worker.result_conn.poll():
                                self._complete(worker,
                                               worker.result_conn.recv())
                        except (EOFError, OSError):
                            pass
                        self._reap(worker)
                # Enforce wall-clock deadlines on the survivors.
                now = time.monotonic()
                for worker in self._workers:
                    if worker.deadline_at is not None \
                            and now >= worker.deadline_at \
                            and not worker.killed_for_timeout:
                        if worker.result_conn.poll():
                            continue  # finished just in time
                        worker.killed_for_timeout = True
                        worker.process.kill()


def _shutdown(workers, clean: bool) -> None:
    """Stop the pool: sentinel + join when clean, terminate otherwise."""
    for worker in workers:
        if clean:
            try:
                worker.task_conn.send_bytes(b"")
            except (BrokenPipeError, OSError):
                pass
        else:
            worker.process.terminate()
    deadline = time.monotonic() + 5.0
    for worker in workers:
        worker.process.join(timeout=max(0.1, deadline - time.monotonic()))
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join()
        worker.close()


def _looks_like_pickling_error(error) -> bool:
    """Is ``error`` a serialization failure (vs a genuine executor bug)?

    Deliberately narrow: only ``pickle.PicklingError`` and the
    ``TypeError``s the serialization layer raises ("cannot pickle X")
    qualify. An ``AttributeError`` — or any other exception whose
    message happens to mention pickling — propagates untranslated, so a
    real bug is never mislabelled with a misleading "run with jobs=1"
    hint.
    """
    if isinstance(error, pickle.PicklingError):
        return True
    return isinstance(error, TypeError) and "pickle" in str(error).lower()
