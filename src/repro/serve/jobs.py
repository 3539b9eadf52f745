"""Journal-backed job registry: request state that survives restarts.

Every request the service admits becomes a :class:`Job`. Its state
transitions are appended to ``jobs.jsonl`` in the server's state
directory as they happen, through the sweeps'
:class:`~repro.harness.persistence.Journal` but with ``fsync=False``: a
SIGTERM or SIGKILL loses nothing already written, an OS crash may lose
the last entries. On startup the registry replays the journal; jobs the
previous process left ``queued``/``running`` are folded to
``interrupted`` (their sweep journals hold the completed prefix, and the
server resubmits them with ``resume=true`` so a restart converges
byte-identically with a clean run).

The registry is also where the duplicate-writer bug is closed: two
in-flight sweeps pointing at one journal path would interleave appends
and corrupt the file. :meth:`JobRegistry.create` holds a set of active
journal paths and refuses the second submission with a typed
:class:`JobConflict` (HTTP 409) until the first reaches a terminal
state.
"""

from __future__ import annotations

import itertools
import threading
import time
from pathlib import Path

from ..errors import ReproError
from ..harness.persistence import Journal

STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"
STATE_INTERRUPTED = "interrupted"

#: States a job can still leave.
ACTIVE_STATES = (STATE_QUEUED, STATE_RUNNING)
TERMINAL_STATES = (STATE_DONE, STATE_FAILED, STATE_INTERRUPTED)

#: Ring-buffer cap on per-job in-memory events (cell completions).
MAX_EVENTS = 1000


class JobConflict(ReproError):
    """A second in-flight submission of the same sweep journal path."""

    def __init__(self, path: str, holder: str):
        super().__init__(
            f"journal {path!r} is already being written by in-flight "
            f"job {holder}; wait for it or submit a different path")
        self.path = path
        self.holder = holder


class Job:
    """One admitted request: typed state + an event stream."""

    def __init__(self, job_id: str, kind: str, request: dict,
                 journal=None, created_s=None):
        self.id = job_id
        self.kind = kind
        self.request = request
        self.journal = journal
        self.state = STATE_QUEUED
        self.result = None
        self.error = None            # {"code", "message"} on failure
        self.created_s = created_s if created_s is not None else time.time()
        self.finished_s = None
        self.events = []             # bounded history of event dicts
        self.subscribers = []        # asyncio.Queue per /events stream
        self.stop_requested = False  # cooperative drain flag for sweeps

    @property
    def active(self) -> bool:
        return self.state in ACTIVE_STATES

    def to_dict(self) -> dict:
        out = {
            "job": self.id,
            "kind": self.kind,
            "state": self.state,
            "request": self.request,
            "created_s": self.created_s,
        }
        if self.journal is not None:
            out["journal"] = str(self.journal)
        if self.result is not None:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error
        if self.finished_s is not None:
            out["finished_s"] = self.finished_s
        return out


class JobRegistry:
    """All jobs, with an append-only journal under ``state_dir``.

    Thread-safe: the asyncio loop creates jobs while sweep threads
    transition them; every mutation happens under one lock and is
    appended to the journal before anyone can observe it.
    """

    def __init__(self, state_dir=None):
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self._lock = threading.Lock()
        self._jobs = {}
        self._active_journals = {}    # normalized path -> job id
        self._counter = itertools.count(1)
        self._journal = None
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            self._journal = Journal(self.state_dir / "jobs.jsonl",
                                    fsync=False)

    # -- persistence --------------------------------------------------

    def load(self) -> int:
        """Replay the journal; stale active jobs fold to interrupted.

        Returns how many jobs were recovered. A job event whose ``job``
        is not a string, or whose ``state`` is not a known state, is the
        journal's "corrupt" :class:`ReproError`, like a line that is not
        an object.
        """
        if self._journal is None or not self._journal.path.exists():
            return 0
        highest = 0
        with self._lock:
            for index, entry in enumerate(self._journal.read(), start=1):
                self._check(index, entry)
                job_id = entry.get("job")
                if entry.get("event") == "created":
                    job = Job(job_id, entry.get("kind", "?"),
                              entry.get("request", {}),
                              journal=entry.get("journal"),
                              created_s=entry.get("t"))
                    self._jobs[job_id] = job
                    try:
                        highest = max(highest,
                                      int(str(job_id).split("-")[-1]))
                    except ValueError:
                        pass
                elif entry.get("event") == "journal" \
                        and job_id in self._jobs:
                    self._jobs[job_id].journal = entry.get("journal")
                elif entry.get("event") == "state" \
                        and job_id in self._jobs:
                    job = self._jobs[job_id]
                    job.state = entry.get("state", job.state)
                    job.result = entry.get("result", job.result)
                    job.error = entry.get("error", job.error)
                    job.finished_s = entry.get("t", job.finished_s)
            # The previous process died with these in flight: they are
            # interrupted by definition (their sweep journals keep the
            # completed prefix).
            for job in self._jobs.values():
                if job.active:
                    job.state = STATE_INTERRUPTED
                    job.error = {"code": "interrupted",
                                 "message": "server stopped while the "
                                            "job was in flight"}
                    self._append_locked({
                        "event": "state", "job": job.id,
                        "state": STATE_INTERRUPTED, "error": job.error,
                        "t": time.time(),
                    })
            self._counter = itertools.count(highest + 1)
            return len(self._jobs)

    def _check(self, index: int, entry: dict) -> None:
        problem = None
        if entry.get("event") in ("created", "journal", "state") \
                and not isinstance(entry.get("job"), str):
            problem = f"job must be a string, got {entry.get('job')!r}"
        elif entry.get("event") == "state" and "state" in entry \
                and entry["state"] not in ACTIVE_STATES + TERMINAL_STATES:
            problem = f"unknown state {entry['state']!r}"
        if problem is not None:
            raise ReproError(f"{self._journal.path}:{index} is corrupt "
                             f"({problem}); refusing to load it")

    def _append_locked(self, entry: dict) -> None:
        if self._journal is not None:
            self._journal.append(entry)

    def close(self) -> None:
        with self._lock:
            if self._journal is not None:
                self._journal.close()

    # -- lifecycle ----------------------------------------------------

    @staticmethod
    def _normalize(journal) -> str:
        return str(Path(journal).expanduser().resolve())

    def create(self, kind: str, request: dict, journal=None) -> Job:
        """Admit one job; refuses duplicate in-flight journal paths."""
        with self._lock:
            if journal is not None:
                normalized = self._normalize(journal)
                holder = self._active_journals.get(normalized)
                if holder is not None:
                    raise JobConflict(str(journal), holder)
            job = Job(f"job-{next(self._counter):06d}", kind, request,
                      journal=str(journal) if journal is not None else None)
            self._jobs[job.id] = job
            if journal is not None:
                self._active_journals[self._normalize(journal)] = job.id
            self._append_locked({
                "event": "created", "job": job.id, "kind": kind,
                "request": request, "journal": job.journal,
                "t": job.created_s,
            })
            return job

    def assign_journal(self, job: Job, journal) -> None:
        """Late-bind a journal path (auto-named from the job id)."""
        with self._lock:
            job.journal = str(journal)
            self._active_journals[self._normalize(journal)] = job.id
            self._append_locked({"event": "journal", "job": job.id,
                                 "journal": job.journal,
                                 "t": time.time()})

    def transition(self, job: Job, state: str, result=None,
                   error=None) -> dict:
        """Move a job to ``state``; returns the event dict published."""
        with self._lock:
            job.state = state
            if result is not None:
                job.result = result
            if error is not None:
                job.error = error
            event = {"event": "state", "job": job.id, "state": state,
                     "t": time.time()}
            if state in TERMINAL_STATES:
                job.finished_s = event["t"]
                if job.journal is not None:
                    self._active_journals.pop(
                        self._normalize(job.journal), None)
                entry = dict(event)
                if result is not None:
                    entry["result"] = result
                if error is not None:
                    entry["error"] = error
                self._append_locked(entry)
            else:
                self._append_locked(event)
            if error is not None:
                event["error"] = error
            return event

    # -- queries ------------------------------------------------------

    def get(self, job_id: str):
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.id)

    def counts(self) -> dict:
        out = {state: 0
               for state in ACTIVE_STATES + TERMINAL_STATES}
        for job in self.jobs():
            out[job.state] = out.get(job.state, 0) + 1
        return out

    def active(self) -> list:
        return [job for job in self.jobs() if job.active]

    def resumable_sweeps(self) -> list:
        """Interrupted sweep jobs with a journal: restart candidates."""
        return [job for job in self.jobs()
                if job.kind == "sweep" and job.state == STATE_INTERRUPTED
                and job.journal]

    # -- events -------------------------------------------------------

    def record_event(self, job: Job, payload: dict) -> None:
        """Append a non-state event (cell completion) to the history."""
        with self._lock:
            job.events.append(payload)
            if len(job.events) > MAX_EVENTS:
                del job.events[:len(job.events) - MAX_EVENTS]
