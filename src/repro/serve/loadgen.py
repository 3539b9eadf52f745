"""Deterministic seeded load generator for the experiment service.

``repro loadgen`` drives a running ``repro serve`` with a mixed,
concurrent request stream — mostly warm perf-gate experiments, plus
perf-analyze calls and durable sweeps — and reports client-observed
latency percentiles and throughput. The stream is *deterministic*: the
request plan is derived from one seed via :func:`repro.rng.derive`
(per-component RNG discipline, same as the chaos layer), so two runs
with the same seed issue byte-identical request sequences, and CI
replays the same seed against the same server configuration.

Only the wall-clock *measurement* is nondeterministic, so the report is
printed, never recorded or gated: the daemon's host-time figures come
from ``python3 -m bench --workload serve_mixed``.
"""

from __future__ import annotations

import asyncio
import math
import time

import numpy as np

from ..errors import ReproError, SpecError
from ..rng import derive
from .client import ServeClient

#: Request mix weights (gate experiment / perf-analyze / sweep). Gates
#: dominate on purpose: they are the warm-path latency being proven.
DEFAULT_MIX = {"gate": 0.92, "perf-analyze": 0.05, "sweep": 0.03}

#: Sweeps stay tiny (one algorithm, one framework) so a load run's
#: tail is bounded; the point is exercising the durable path, not
#: regenerating the paper under load.
_SWEEP_TARGET = "table5"


def build_plan(seed: int, requests: int, mix=None) -> list:
    """The deterministic request plan: ``requests`` (kind, body) pairs."""
    from ..algorithms.registry import ALGORITHMS
    from ..perf.baselines import GATE_FRAMEWORKS, GATE_NODE_COUNTS

    mix = dict(DEFAULT_MIX if mix is None else mix)
    kinds = sorted(mix)
    weights = np.array([mix[kind] for kind in kinds], dtype=float)
    weights /= weights.sum()
    rng = derive(seed, "serve", "loadgen")
    algorithms = tuple(ALGORITHMS)
    plan = []
    for _ in range(requests):
        kind = kinds[int(rng.choice(len(kinds), p=weights))]
        algorithm = algorithms[int(rng.integers(len(algorithms)))]
        if kind == "gate":
            framework = GATE_FRAMEWORKS[
                int(rng.integers(len(GATE_FRAMEWORKS)))]
            nodes = int(GATE_NODE_COUNTS[
                int(rng.integers(len(GATE_NODE_COUNTS)))])
            plan.append(("gate", "/experiments", {
                "gate": {"algorithm": algorithm, "framework": framework,
                         "nodes": nodes},
                "wait": True,
            }))
        elif kind == "perf-analyze":
            plan.append(("perf-analyze", "/perf/analyze", {
                "framework": "native",
                "algorithms": [algorithm],
                "node_counts": [1],
                "wait": True,
            }))
        else:
            plan.append(("sweep", "/sweeps", {
                "target": _SWEEP_TARGET,
                "algorithms": [algorithm],
                "frameworks": ["native"],
                "wait": False,
            }))
    return plan


async def _drive(host, port, plan, concurrency, timeout_s, samples,
                 failures):
    """Fan the plan over ``concurrency`` keep-alive connections."""

    async def worker(items):
        client = ServeClient(host, port, timeout_s=timeout_s)
        try:
            for kind, path, body in items:
                started = time.perf_counter()
                try:
                    status, payload = await client.request("POST", path,
                                                           body)
                except Exception as error:
                    failures.append({"kind": kind, "status": 0,
                                     "error": f"{type(error).__name__}: "
                                              f"{error}"})
                    continue
                elapsed = time.perf_counter() - started
                if status >= 400:
                    failures.append({"kind": kind, "status": status,
                                     "error": payload.get("error",
                                                          "unknown")})
                else:
                    samples.append((kind, elapsed))
        finally:
            await client.close()

    # Round-robin partitioning keeps each connection's subsequence —
    # and therefore the whole run — deterministic for a given seed.
    await asyncio.gather(*(worker(plan[lane::concurrency])
                           for lane in range(concurrency)))


def _percentiles(latencies) -> dict:
    values = np.asarray(latencies, dtype=float)
    return {
        "p50_s": float(np.quantile(values, 0.50)),
        "p90_s": float(np.quantile(values, 0.90)),
        "p99_s": float(np.quantile(values, 0.99)),
        "mean_s": float(values.mean()),
        "max_s": float(values.max()),
    }


def _check(port, requests, concurrency, timeout_s) -> None:
    """Refuse a load run that could not measure anything."""
    if not 0 < port < 65536:
        raise SpecError(f"port must be in 1..65535, got {port}")
    if requests < 1:
        raise SpecError(f"requests must be >= 1, got {requests}")
    if concurrency < 1:
        raise SpecError(f"concurrency must be >= 1, got {concurrency}")
    if not (math.isfinite(timeout_s) and timeout_s > 0):
        raise SpecError(f"timeout must be a finite number > 0, "
                        f"got {timeout_s}")


async def _healthz(host, port, timeout_s) -> None:
    """One ``GET /healthz``: a server that does not answer is an error
    before the first timed request, not a report of failed ones."""
    client = ServeClient(host, port, timeout_s=timeout_s)
    try:
        await client.request("GET", "/healthz")
    except (OSError, asyncio.TimeoutError) as error:
        raise ReproError(f"no server answers at {host}:{port}: "
                         f"{str(error) or type(error).__name__}") from None
    finally:
        await client.close()


async def _settle(host, port, timeout_s) -> None:
    """Wait until the server has no queued/running jobs left.

    Async (202) sweeps outlive their responses; settling before
    reporting keeps a benchmark run's teardown deterministic (SIGTERM
    after settle is a clean drain, exit 0).
    """
    client = ServeClient(host, port, timeout_s=timeout_s)
    deadline = time.perf_counter() + timeout_s
    try:
        while time.perf_counter() < deadline:
            _status, stats = await client.request("GET", "/stats")
            jobs = stats.get("jobs", {})
            if not jobs.get("running", 0) and not jobs.get("queued", 0):
                return
            await asyncio.sleep(0.1)
    finally:
        await client.close()


def run_loadgen(host: str, port: int, *, requests: int = 200,
                concurrency: int = 8, seed: int = 0, mix=None,
                timeout_s: float = 120.0, settle: bool = True) -> dict:
    """Run the seeded load test; returns the benchmark report dict."""
    _check(port, requests, concurrency, timeout_s)
    asyncio.run(_healthz(host, port, timeout_s))
    plan = build_plan(seed, requests, mix=mix)
    samples, failures = [], []
    started = time.perf_counter()
    asyncio.run(_drive(host, port, plan, concurrency, timeout_s,
                       samples, failures))
    duration_s = time.perf_counter() - started
    if settle:
        asyncio.run(_settle(host, port, timeout_s))
    by_kind = {}
    for kind in sorted({kind for kind, _, _ in plan}):
        latencies = [elapsed for sample_kind, elapsed in samples
                     if sample_kind == kind]
        entry = {"requests": sum(1 for k, _, _ in plan if k == kind),
                 "completed": len(latencies)}
        if latencies:
            entry.update(_percentiles(latencies))
        by_kind[kind] = entry
    report = {
        "requests": len(plan),
        "completed": len(samples),
        "failed": len(failures),
        "concurrency": concurrency,
        "seed": seed,
        "duration_s": duration_s,
        "throughput_rps": len(samples) / duration_s if duration_s else 0.0,
        "by_kind": by_kind,
    }
    if samples:
        report["latency_s"] = _percentiles(
            [elapsed for _, elapsed in samples])
    if failures:
        codes = {}
        for failure in failures:
            label = f"{failure['status']}:{failure['error']}"
            codes[label] = codes.get(label, 0) + 1
        report["failure_codes"] = dict(sorted(codes.items()))
    return report


def render_loadgen(report: dict) -> str:
    """Terminal summary of one load run."""
    lines = [
        f"loadgen: {report['completed']}/{report['requests']} requests "
        f"ok ({report['failed']} failed) in {report['duration_s']:.2f} s "
        f"at concurrency {report['concurrency']} "
        f"(seed {report['seed']})",
        f"  throughput : {report['throughput_rps']:.1f} req/s",
    ]
    latency = report.get("latency_s")
    if latency:
        lines.append(
            f"  latency    : p50 {1e3 * latency['p50_s']:.1f} ms   "
            f"p90 {1e3 * latency['p90_s']:.1f} ms   "
            f"p99 {1e3 * latency['p99_s']:.1f} ms   "
            f"max {1e3 * latency['max_s']:.1f} ms")
    for kind, entry in sorted(report["by_kind"].items()):
        detail = f"{entry['completed']}/{entry['requests']} ok"
        if "p50_s" in entry:
            detail += (f"   p50 {1e3 * entry['p50_s']:.1f} ms   "
                       f"p99 {1e3 * entry['p99_s']:.1f} ms")
        lines.append(f"  {kind:<12}: {detail}")
    for label, count in sorted(report.get("failure_codes", {}).items()):
        lines.append(f"  FAILURE {label}: {count}")
    return "\n".join(lines)
