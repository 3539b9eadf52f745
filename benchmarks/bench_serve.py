"""Serving layer: sustained mixed load, and warm-vs-cold amortization.

Two claims ride on this file:

* the daemon *sustains* load — a seeded mixed request stream (gate
  experiments, perf analyses, durable sweeps) completes with zero
  failed requests;
* hot caches *pay* — a warm gate request against the server beats the
  same cell as a cold single-shot CLI invocation by >=2x, and the win
  is attributable: the server's ``dataset-cache-hit`` tracer instants
  (``pinned=True``) prove every warm cell was served from the pinned
  dataset cache rather than regenerated.

Both are assertions, not measurements: the daemon's latency and
throughput are measured by ``python3 -m bench --workload serve_mixed``.
"""

import asyncio
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.errors import ReproError
from repro.serve import ExperimentService, ServeClient
from repro.serve.loadgen import run_loadgen

#: The full load run. 1000 requests is the acceptance bar: the daemon
#: must sustain the whole seeded mixed stream with zero failures.
LOADGEN = {"requests": 1000, "concurrency": 8, "seed": 0}

#: Gate cells timed warm (served) vs cold (fresh CLI process). One
#: cell per warmed node count plus a second framework for spread.
WARM_COLD_CELLS = (
    ("pagerank", "native", 1),
    ("bfs", "combblas", 4),
    ("wcc", "graphlab", 1),
)

#: Required warm-over-cold latency factor on every compared cell.
MIN_WARM_SPEEDUP = 2.0

_REPO_ROOT = Path(__file__).resolve().parent.parent


class ServerUnderTest:
    """An :class:`ExperimentService` on an ephemeral port, in a thread.

    The service's own ``run()`` loop executes unmodified (warm-up,
    admission, drain); only the SIGTERM delivery differs — the test
    posts ``_initiate_drain`` onto the service loop, which is exactly
    what the signal handler does in a real deployment.
    """

    def __init__(self, state_dir, jobs=2):
        self.service = ExperimentService(port=0, jobs=jobs,
                                         state_dir=state_dir)
        self.ready = threading.Event()
        self.exit_code = None
        self.service.on_ready = lambda _host, _port: self.ready.set()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        self.exit_code = asyncio.run(self.service.run())

    def __enter__(self):
        self.thread.start()
        if not self.ready.wait(timeout=120):
            raise ReproError("serve benchmark: server did not come up")
        return self

    def __exit__(self, *exc):
        self.drain()

    def drain(self):
        if self.thread.is_alive():
            self.service._loop.call_soon_threadsafe(
                self.service._initiate_drain, int(signal.SIGTERM))
            self.thread.join(timeout=120)
        if self.thread.is_alive():
            raise ReproError("serve benchmark: server did not drain")


async def _warm_latencies(host, port) -> dict:
    """Best-of-3 served latency per warm/cold cell (seconds)."""
    client = ServeClient(host, port, timeout_s=120)
    out = {}
    try:
        for algorithm, framework, nodes in WARM_COLD_CELLS:
            body = {"gate": {"algorithm": algorithm,
                             "framework": framework, "nodes": nodes},
                    "wait": True}
            best = None
            for _ in range(3):
                started = time.perf_counter()
                status, payload = await client.request(
                    "POST", "/experiments", body)
                elapsed = time.perf_counter() - started
                if status != 200 or payload.get("state") != "done":
                    raise ReproError(
                        f"warm gate request failed: {status} {payload}")
                best = elapsed if best is None else min(best, elapsed)
            out[f"{algorithm}/{framework}/{nodes}"] = best
    finally:
        await client.close()
    return out


#: One gate cell in a fresh interpreter, exactly as the daemon runs it.
_COLD_CELL = ("import sys; from repro.harness import run_cell; "
              "run_cell({'algorithm': sys.argv[1], 'framework': sys.argv[2], "
              "'nodes': int(sys.argv[3])})")


def _cold_latencies() -> dict:
    """The same cells as fresh single-shot processes (seconds).

    A new interpreter that runs one gate cell is the cold path being
    amortized: interpreter start, imports, dataset generation, one
    measured run.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO_ROOT / "src") + os.pathsep \
        + env.get("PYTHONPATH", "")
    out = {}
    for algorithm, framework, nodes in WARM_COLD_CELLS:
        command = [sys.executable, "-c", _COLD_CELL, algorithm, framework,
                   str(nodes)]
        started = time.perf_counter()
        subprocess.run(command, check=True, env=env, cwd=_REPO_ROOT,
                       stdout=subprocess.DEVNULL)
        out[f"{algorithm}/{framework}/{nodes}"] = \
            time.perf_counter() - started
    return out


async def _server_stats(host, port) -> dict:
    client = ServeClient(host, port, timeout_s=30)
    try:
        _status, stats = await client.request("GET", "/stats")
        return stats
    finally:
        await client.close()


def measure_serve(requests=None, concurrency=None, seed=None) -> dict:
    """Drive the load + warm/cold run; raises unless both claims hold."""
    requests = LOADGEN["requests"] if requests is None else requests
    concurrency = LOADGEN["concurrency"] if concurrency is None \
        else concurrency
    seed = LOADGEN["seed"] if seed is None else seed

    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        with ServerUnderTest(Path(tmp) / "state") as server:
            host, port = server.service.host, server.service.port
            warm = asyncio.run(_warm_latencies(host, port))
            report = run_loadgen(host, port, requests=requests,
                                 concurrency=concurrency, seed=seed)
            stats = asyncio.run(_server_stats(host, port))
        if server.exit_code != 0:
            raise ReproError(f"serve benchmark: drain exited "
                             f"{server.exit_code}, expected 0")
        cold = _cold_latencies()

    if report["failed"]:
        raise ReproError(f"serve loadgen: {report['failed']} of "
                         f"{report['requests']} requests failed: "
                         f"{report.get('failure_codes')}")
    hits = stats.get("cache", {}).get("hits", {})
    if not hits.get("pinned"):
        raise ReproError("serve benchmark: no pinned dataset-cache-hit "
                         "instants — the warm path is unproven")

    cells = {}
    for cell, warm_s in warm.items():
        cold_s = cold[cell]
        cells[cell] = {"warm_s": warm_s, "cold_s": cold_s,
                       "speedup": cold_s / warm_s}
    min_speedup = min(entry["speedup"] for entry in cells.values())
    if min_speedup < MIN_WARM_SPEEDUP:
        worst = min(cells, key=lambda cell: cells[cell]["speedup"])
        raise ReproError(
            f"serve benchmark: warm/cold speedup {min_speedup:.2f}x on "
            f"{worst} is below the required {MIN_WARM_SPEEDUP:.1f}x")

    return {
        "loadgen": {key: report[key]
                    for key in ("requests", "completed", "failed",
                                "concurrency", "seed", "duration_s",
                                "throughput_rps", "latency_s", "by_kind")
                    if key in report},
        "warm_cold": {
            "cells": cells,
            "min_speedup": min_speedup,
            "min_required": MIN_WARM_SPEEDUP,
            "cache_hits": dict(hits),
        },
    }


def test_serve_sustains_load_and_amortizes():
    """A reduced run of :func:`measure_serve`, end to end.

    Seeded mixed load with zero failures, warm/cold >=2x with
    pinned-cache-hit proof, at a size a test suite can afford; the
    default arguments are the 1000-request acceptance run.
    """
    serve = measure_serve(requests=60)
    assert serve["loadgen"]["failed"] == 0
    assert serve["loadgen"]["completed"] == serve["loadgen"]["requests"]
    assert serve["warm_cold"]["min_speedup"] >= MIN_WARM_SPEEDUP
    assert serve["warm_cold"]["cache_hits"]["pinned"] > 0
