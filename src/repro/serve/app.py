"""The experiment service: a long-lived asyncio HTTP daemon.

``repro serve`` turns the one-shot CLI into a persistent process that
amortizes the two costs every cold run pays — dataset generation and
worker-pool fork — across an arbitrary request stream:

* **Hot datasets.** At startup the service places the perf-gate
  subset, which puts the weak-scaling graphs in the process's resident
  set (:mod:`repro.datagen.cache`: resident set, then disk). Workers
  fork *after* the warm-up and inherit it, so a served gate cell never
  touches the disk cache (its ``dataset-cache-hit`` instant carries
  ``pinned=true`` as proof).
* **One warm pool.** A single
  :class:`~repro.harness.supervisor.SupervisorPool` serves every
  request; per-task executors ride the PR-9 submit path, and sweeps
  run through the same pool via ``Sweep(pool=...)``.
* **Typed admission.** The :class:`~repro.serve.admission` controller
  bounds concurrency and memory before a request becomes a job.
* **Durable jobs.** Every admitted request is a
  :class:`~repro.serve.jobs.Job` journaled under ``--state-dir``;
  SIGTERM drains gracefully (admission closes, running sweeps stop at
  the next cell boundary, exit code 8 when anything was interrupted)
  and a restarted server reports interrupted sweeps as resumable —
  resubmitting them with ``resume=true`` replays the journaled prefix
  and converges byte-identically.

The HTTP layer is deliberately raw ``asyncio`` streams — no
third-party web framework — because the wire surface is six small
JSON routes and one NDJSON event stream.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from dataclasses import fields, replace

from ..datagen import cache as dataset_cache
from ..errors import ReproError, SpecError, SweepInterrupted
from ..observability import current_rss_bytes, peak_rss_bytes
from ..harness.supervisor import SupervisorPool
from ..harness.sweep import CellPolicy, SweepRequest, cell_id, sweep_cell
from .admission import AdmissionController
from .api import (
    ApiError,
    bad_request,
    parse_body,
    parse_experiment_request,
    parse_perf_request,
    parse_sweep_request,
    reason,
)
from .jobs import (
    STATE_DONE,
    STATE_FAILED,
    STATE_INTERRUPTED,
    STATE_RUNNING,
    JobConflict,
    JobRegistry,
)

#: Default warm set: the perf-gate node counts (datasets are shared
#: across frameworks, so warming (algorithm, nodes) covers the gate).
WARM_NODE_COUNTS = (1, 4)

_SERVER_HEADER = "repro-serve"

#: Largest request body read; every route's JSON is a few hundred bytes.
MAX_BODY_BYTES = 1 << 20


# ---------------------------------------------------------------------------
# Cell executors (module-level: they ship pickled to pool workers)
# ---------------------------------------------------------------------------


def _spec_cell(key, budget_s=None):
    """One full :class:`~repro.harness.spec.ExperimentSpec` run."""
    from ..harness.runner import run
    from ..harness.spec import ExperimentSpec
    from ..harness.sweep import outcome_of

    return outcome_of(run(ExperimentSpec.from_dict(key["spec"])))


def _perf_cell(key, budget_s=None):
    """``repro perf analyze --json``'s payload, as a job result."""
    from .. import perf

    return perf.analyze(key["framework"], key["algorithms"],
                        key["node_counts"]).to_dict()


#: A gate cell is the sweep's own executor — byte-identical to the
#: ``gate/<algorithm>/<framework>/<nodes>`` cells ``repro freeze`` holds.
_EXECUTORS = {"gate": sweep_cell, "experiment": _spec_cell,
              "perf-analyze": _perf_cell}

#: What of a sweep job's request the sweep itself reads.
_SWEEP_FIELDS = tuple(field.name for field in fields(SweepRequest))

#: Served cells fail fast: every executor is deterministic, so retry
#: backoff would only burn the request's wall deadline.
_SERVE_POLICY = CellPolicy(deadline_s=None, max_retries=0,
                           backoff_base_s=0.0, backoff_cap_s=0.0)


class ExperimentService:
    """The daemon behind ``repro serve``; owns pool, cache pins, jobs."""

    def __init__(self, host="127.0.0.1", port=8750, *, jobs=2,
                 state_dir=None, policy=None, warm=True,
                 warm_node_counts=WARM_NODE_COUNTS, tracer=None):
        if not 0 <= port <= 65535:
            raise SpecError(f"port must be in 0..65535 (0 picks a free "
                            f"one), got {port}")
        self.host = host
        self.port = port
        self.jobs = jobs
        self.warm = warm
        self.warm_node_counts = tuple(warm_node_counts)
        self.tracer = tracer
        # Before the registry: a refused pool size writes no state dir.
        self.pool = SupervisorPool(jobs, tracer=tracer)
        self.registry = JobRegistry(state_dir)
        self.admission = AdmissionController(policy)
        self.started_s = None
        self.on_ready = None         # callback(host, port) once bound
        self.requests = 0
        self.responses = {}          # status -> count
        self.cache_hits = {"total": 0, "pinned": 0}
        self.warmed = []             # pinned entry keys from warm-up
        self.pinned_memory = {"virtual_bytes": 0, "resident_bytes": 0}
        self._loop = None
        self._tasks = set()          # background job tasks
        self._drain_event = None     # asyncio.Event once the loop exists
        self._drain_signum = None
        self._interrupted = 0
        self._lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------

    def start(self) -> None:
        """Synchronous warm-up: recover jobs, pin datasets, start pool.

        Runs *before* the event loop serves traffic and before any
        worker forks, so forked workers inherit the pinned datasets.
        """
        recovered = self.registry.load()
        if recovered:
            resumable = len(self.registry.resumable_sweeps())
            if self.tracer is not None:
                self.tracer.instant("serve-recovered", jobs=recovered,
                                    resumable_sweeps=resumable)
        if self.warm:
            from ..algorithms.registry import ALGORITHMS
            from ..harness.datasets import weak_scaling_dataset

            # Every (algorithm, nodes) weak-scaling dataset in the gate
            # subset; identical datasets dedupe on their content-
            # addressed cache key, so the resident set holds each
            # distinct graph/ratings matrix exactly once.
            for algorithm in ALGORITHMS:
                for nodes in self.warm_node_counts:
                    weak_scaling_dataset(algorithm, nodes)
            self.warmed = [entry["key"] for entry in dataset_cache.pinned()]
            # Reserve admission headroom for what the warm set actually
            # keeps resident: mmap-backed pinned shards reserve ~nothing
            # (their clean pages are reclaimable), so the budget is not
            # double-charged for the pipeline's on-disk graphs.
            self.pinned_memory = dataset_cache.pinned_memory()
            self.admission.reserve_baseline(
                self.pinned_memory["resident_bytes"] / 2**20)
        self.pool.start()
        self.started_s = time.time()

    def stop(self) -> int:
        """Tear down after drain; returns the process exit code."""
        self.pool.close(force=self._interrupted > 0)
        self.registry.close()
        dataset_cache.clear_pins()
        return 8 if self._interrupted else 0

    def _initiate_drain(self, signum: int) -> None:
        self._drain_signum = signum
        self.admission.start_drain()
        for job in self.registry.active():
            job.stop_requested = True
        if self._drain_event is not None:
            self._drain_event.set()

    async def run(self) -> int:
        """Serve until SIGTERM/SIGINT; returns the exit code (0 or 8)."""
        self.start()
        self._loop = asyncio.get_running_loop()
        self._drain_event = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(
                    signum, self._initiate_drain, signum)
            except (NotImplementedError, RuntimeError):
                pass
        server = await asyncio.start_server(self._handle, self.host,
                                            self.port)
        if self.port == 0:
            self.port = server.sockets[0].getsockname()[1]
        if self.on_ready is not None:
            self.on_ready(self.host, self.port)
        try:
            await self._resume_interrupted()
            await self._drain_event.wait()
            server.close()
            await server.wait_closed()
            if self._tasks:
                await asyncio.gather(*list(self._tasks),
                                     return_exceptions=True)
        finally:
            code = self.stop()
        return code

    async def _resume_interrupted(self) -> None:
        """Resubmit sweeps a previous process left interrupted.

        Their journals hold the completed prefix, so resuming replays
        it and finishes only the pending cells — the restarted sweep's
        journal is byte-identical to an uninterrupted run's.
        """
        for stale in self.registry.resumable_sweeps():
            request = dict(stale.request)
            request.update({"kind": "sweep", "resume": True,
                            "journal": stale.journal, "wait": False,
                            "resumed_from": stale.id})
            request.setdefault("target", "table5")
            try:
                await self._submit_sweep(request)
            except ApiError:
                continue      # no capacity: stays resumable for later

    # -- HTTP plumbing ------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    return
                try:
                    method, path, _version = \
                        request_line.decode("latin-1").split(None, 2)
                except ValueError:
                    return
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length") or 0)
                except ValueError:
                    length = -1
                # Without a usable length the next request's start is
                # unknown: answer 400 and close.
                framed = 0 <= length <= MAX_BODY_BYTES
                keep_alive = framed and \
                    headers.get("connection", "").lower() != "close"
                self.requests += 1
                try:
                    if not framed:
                        raise bad_request("Content-Length must be an integer "
                                          f"in 0..{MAX_BODY_BYTES}")
                    body = await reader.readexactly(length) if length else b""
                    handled = await self._route(method, path.split("?")[0],
                                                body, writer)
                except ApiError as error:
                    handled = (error.status, error.payload())
                except ReproError as error:
                    handled = (500, {"error": "internal",
                                     "message": str(error)})
                if handled is None:      # route streamed its own bytes
                    return
                status, payload = handled
                self.responses[status] = self.responses.get(status, 0) + 1
                self._write_json(writer, status, payload,
                                 keep_alive=keep_alive)
                await writer.drain()
                if not keep_alive:
                    return
        except (asyncio.IncompleteReadError, ConnectionResetError,
                BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Server shutdown cancels idle keep-alive handlers; a
            # swallowed cancellation here just means "connection done".
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.CancelledError):
                pass

    @staticmethod
    def _write_json(writer, status: int, payload: dict, *,
                    keep_alive: bool = True) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        head = (f"HTTP/1.1 {status} {reason(status)}\r\n"
                f"Server: {_SERVER_HEADER}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: "
                f"{'keep-alive' if keep_alive else 'close'}\r\n\r\n")
        writer.write(head.encode("latin-1") + body)

    async def _route(self, method: str, path: str, raw: bytes, writer):
        if path == "/healthz" and method == "GET":
            return 200, {"status": "draining" if self.admission.draining
                         else "ok", "uptime_s": time.time() - self.started_s}
        if path == "/stats" and method == "GET":
            return 200, self.stats()
        if path == "/experiments" and method == "POST":
            return await self._submit_pool_job(
                parse_experiment_request(parse_body(raw)))
        if path == "/perf/analyze" and method == "POST":
            return await self._submit_pool_job(
                parse_perf_request(parse_body(raw)))
        if path == "/sweeps" and method == "POST":
            return await self._submit_sweep(
                parse_sweep_request(parse_body(raw)))
        if path == "/jobs" and method == "GET":
            return 200, {"jobs": [job.to_dict()
                                  for job in self.registry.jobs()]}
        if path.startswith("/jobs/") and method == "GET":
            rest = path[len("/jobs/"):]
            if rest.endswith("/events"):
                await self._stream_events(rest[:-len("/events")], writer)
                return None
            job = self.registry.get(rest)
            if job is None:
                raise ApiError(404, "not-found", f"no job {rest!r}")
            return 200, job.to_dict()
        if path in ("/healthz", "/stats", "/jobs", "/experiments",
                    "/sweeps", "/perf/analyze") \
                or path.startswith("/jobs/"):
            raise ApiError(405, "bad-request",
                           f"{method} not allowed on {path}")
        raise ApiError(404, "not-found", f"no route {method} {path}")

    # -- stats --------------------------------------------------------

    def stats(self) -> dict:
        pool_stats = self.pool.stats
        return {
            "uptime_s": time.time() - self.started_s,
            "requests": self.requests,
            "responses": {str(code): count for code, count
                          in sorted(self.responses.items())},
            "jobs": self.registry.counts(),
            "admission": self.admission.stats(),
            "pool": {
                "jobs": self.pool.jobs,
                "alive_workers": self.pool.alive_workers,
                "outstanding": self.pool.outstanding(),
                "restarts": pool_stats.restarts,
                "wall_timeouts": pool_stats.wall_timeouts,
                "poisoned": pool_stats.poisoned,
            },
            "cache": {
                "hits": dict(self.cache_hits),
                "pinned": dataset_cache.pinned_stats(),
                "warmed": list(self.warmed),
            },
            "memory": {
                "peak_rss_mb": round(peak_rss_bytes() / 2**20, 2),
                "current_rss_mb": round(current_rss_bytes() / 2**20, 2),
                "pinned_virtual_mb": round(
                    self.pinned_memory["virtual_bytes"] / 2**20, 2),
                "pinned_resident_mb": round(
                    self.pinned_memory["resident_bytes"] / 2**20, 2),
            },
        }

    def _count_cache_hits(self, spans) -> None:
        with self._lock:
            for span in spans:
                if span.name == "dataset-cache-hit":
                    self.cache_hits["total"] += 1
                    if span.attrs.get("pinned"):
                        self.cache_hits["pinned"] += 1

    # -- events -------------------------------------------------------

    def _publish(self, job, payload: dict) -> None:
        """Record + fan out one job event (any thread)."""
        self.registry.record_event(job, payload)
        loop = self._loop
        if loop is None:
            return
        for queue in list(job.subscribers):
            loop.call_soon_threadsafe(queue.put_nowait, payload)

    def _transition(self, job, state, result=None, error=None) -> None:
        event = self.registry.transition(job, state, result=result,
                                         error=error)
        self._publish(job, event)

    async def _stream_events(self, job_id: str, writer) -> None:
        job = self.registry.get(job_id)
        if job is None:
            error = ApiError(404, "not-found", f"no job {job_id!r}")
            self.responses[404] = self.responses.get(404, 0) + 1
            self._write_json(writer, 404, error.payload(),
                             keep_alive=False)
            await writer.drain()
            return
        self.responses[200] = self.responses.get(200, 0) + 1
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Server: " + _SERVER_HEADER.encode() + b"\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n")
        queue = asyncio.Queue()
        job.subscribers.append(queue)
        try:
            for event in list(job.events):
                writer.write((json.dumps(event, sort_keys=True) + "\n")
                             .encode("utf-8"))
            writer.write((json.dumps(
                {"event": "state", "job": job.id, "state": job.state},
                sort_keys=True) + "\n").encode("utf-8"))
            await writer.drain()
            while job.active:
                event = await queue.get()
                writer.write((json.dumps(event, sort_keys=True) + "\n")
                             .encode("utf-8"))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                job.subscribers.remove(queue)
            except ValueError:
                pass

    # -- pool-backed jobs (experiment / gate / perf-analyze) ----------

    async def _submit_pool_job(self, request: dict):
        slot = self.admission.admit(request.get("deadline_s"),
                                    request.get("memory_mb"))
        try:
            job = self.registry.create(request["kind"], _public(request))
        except Exception:
            slot.release()
            raise
        task = self._spawn(self._run_pool_job(job, request, slot))
        if not request.get("wait", True):
            return 202, job.to_dict()
        await asyncio.shield(task)
        return 200, job.to_dict()

    def _spawn(self, coro) -> asyncio.Task:
        task = self._loop.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    def _pool_key(self, request: dict) -> dict:
        kind = request["kind"]
        if kind == "gate":
            return dict(request["gate"])
        if kind == "experiment":
            return {"spec": request["spec"]}
        return {"framework": request["framework"],
                "algorithms": list(request["algorithms"] or ()),
                "node_counts": list(request["node_counts"])}

    async def _run_pool_job(self, job, request: dict, slot) -> None:
        loop = asyncio.get_running_loop()
        future = loop.create_future()

        def _complete(ticket) -> None:
            loop.call_soon_threadsafe(_resolve, ticket)

        def _resolve(ticket) -> None:
            if not future.done():
                if ticket.error is not None:
                    future.set_exception(ticket.error)
                else:
                    future.set_result(ticket.cell)

        try:
            key = self._pool_key(request)
            self._transition(job, STATE_RUNNING)
            ticket = self.pool.submit(
                key, cell_id(key), _EXECUTORS[request["kind"]],
                _SERVE_POLICY, traced=True,
                wall_deadline_s=slot.deadline_s)
            ticket.add_done_callback(_complete)
            cell = await future
            self._count_cache_hits(cell.spans)
            record = cell.record
            result = {"status": record.status, "value": record.value}
            if record.failure:
                result["failure"] = record.failure
            # DNF statuses (out-of-memory, timeout, ...) are *results*
            # in this paper, not errors: the job still completes.
            self._transition(job, STATE_DONE, result=result)
        except Exception as error:
            self._transition(job, STATE_FAILED,
                             error={"code": "internal",
                                    "message": f"{type(error).__name__}: "
                                               f"{error}"})
        finally:
            slot.release()

    # -- sweep jobs ---------------------------------------------------

    async def _submit_sweep(self, request: dict):
        slot = self.admission.admit(request.get("deadline_s"),
                                    request.get("memory_mb"))
        try:
            journal = request.get("journal")
            if journal is None and self.registry.state_dir is None:
                raise ApiError(
                    400, "bad-request",
                    "sweeps need a 'journal' path when the server "
                    "runs without --state-dir")
            try:
                job = self.registry.create("sweep", _public(request),
                                           journal=journal)
            except JobConflict as conflict:
                raise ApiError(409, "conflict", str(conflict),
                               journal=conflict.path,
                               holder=conflict.holder) from None
            if journal is None:
                self.registry.assign_journal(
                    job, self.registry.state_dir / "journals"
                    / f"{job.id}.jsonl")
        except Exception:
            slot.release()
            raise
        task = self._spawn(self._run_sweep_job(job, request, slot))
        if not request.get("wait", False):
            return 202, job.to_dict()
        await asyncio.shield(task)
        return 200, job.to_dict()

    def _execute_sweep(self, job, request: dict) -> dict:
        """Blocking sweep body; runs on a worker thread."""
        from pathlib import Path

        sweep = SweepRequest.from_dict(
            {name: request[name] for name in _SWEEP_FIELDS
             if name in request})
        Path(job.journal).parent.mkdir(parents=True, exist_ok=True)

        def _stop():
            return signal.SIGTERM if job.stop_requested else None

        def _on_cell(record) -> None:
            self._publish(job, {"event": "cell", "job": job.id,
                                "cell": record.key,
                                "status": record.status})

        data, completeness = replace(sweep, journal=job.journal).run(
            pool=self.pool, stop=_stop, on_cell=_on_cell)
        return {"target": sweep.target, "data": data,
                "completeness": completeness}

    async def _run_sweep_job(self, job, request: dict, slot) -> None:
        try:
            self._transition(job, STATE_RUNNING)
            result = await asyncio.to_thread(self._execute_sweep, job,
                                             request)
            self._transition(job, STATE_DONE, result=result)
        except SweepInterrupted as drained:
            self._interrupted += 1
            self._transition(job, STATE_INTERRUPTED,
                             error={"code": "interrupted",
                                    "message": str(drained),
                                    "pending": drained.pending})
        except Exception as error:
            code = error.code if isinstance(error, ApiError) else "internal"
            self._transition(job, STATE_FAILED,
                             error={"code": code,
                                    "message": f"{type(error).__name__}: "
                                               f"{error}"})
        finally:
            slot.release()


def _public(request: dict) -> dict:
    """The request as echoed back on the job (no Nones)."""
    return {key: value for key, value in sorted(request.items())
            if value is not None}
