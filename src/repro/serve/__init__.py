"""The serving layer: a long-lived async experiment service.

Every result used to cost a fresh CLI process — interpreter start,
dataset generation, worker-pool fork — to answer one query. GraphMat's
headline lesson (amortize graph construction across queries) and the
ROADMAP's north star (sustained mixed traffic, not one-shot runs) both
point at a persistent daemon. This package is that daemon:

* :mod:`~repro.serve.app` — the asyncio HTTP server
  (:class:`~repro.serve.app.ExperimentService`): hot pinned datasets,
  one warm :class:`~repro.harness.supervisor.SupervisorPool` shared
  across requests, graceful SIGTERM drain with PR-3 exit-8 semantics.
* :mod:`~repro.serve.api` — the typed JSON request/response shapes and
  HTTP error taxonomy (rejections map onto the sweep DNF vocabulary).
* :mod:`~repro.serve.admission` — bounded queue + per-request wall
  deadlines + memory budgets; typed 503/504/400 rejections.
* :mod:`~repro.serve.jobs` — journal-backed job registry: every
  request is a job, state survives restarts, duplicate in-flight
  journal submissions are refused with a 409.
* :mod:`~repro.serve.client` — a tiny asyncio HTTP/JSON client (no
  third-party deps) used by the load generator, tests and CI.
* :mod:`~repro.serve.loadgen` — deterministic seeded load generator
  reporting client-observed p50/p99 latency + throughput.
"""

from .admission import AdmissionController, AdmissionPolicy
from .api import ApiError
from .app import ExperimentService
from .client import ServeClient
from .jobs import (
    STATE_DONE,
    STATE_FAILED,
    STATE_INTERRUPTED,
    STATE_QUEUED,
    STATE_RUNNING,
    Job,
    JobConflict,
    JobRegistry,
)
from .loadgen import build_plan, render_loadgen, run_loadgen

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "ApiError",
    "ExperimentService",
    "Job",
    "JobConflict",
    "JobRegistry",
    "STATE_DONE",
    "STATE_FAILED",
    "STATE_INTERRUPTED",
    "STATE_QUEUED",
    "STATE_RUNNING",
    "ServeClient",
    "build_plan",
    "render_loadgen",
    "run_loadgen",
]
