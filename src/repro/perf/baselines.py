"""Host-time gates, and the gate cells' simulated runtimes.

Two gates on the host clock: the kernel backends must agree on every
cell and the vectorized one must be faster (``repro perf kernels``), and
the streamed out-of-core ingest must reproduce the dense graph at a
useful fraction of its throughput (``repro perf outofcore``). Both
thresholds are generous, because wall-clock time is machine-dependent.

The simulated numbers are not gated here: ``repro freeze`` holds every
one of them, the gate cells below included, byte for byte.
"""

from __future__ import annotations

import json
import time

from ..errors import PerfRegression
from ..harness.persistence import atomic_write_text

#: The gate's framework suite: the native yardstick plus one framework
#: per engine family that completes every workload.
GATE_FRAMEWORKS = ("native", "combblas", "graphlab", "giraph")
GATE_NODE_COUNTS = (1, 4)


def measure_cells(algorithms=None, frameworks=GATE_FRAMEWORKS,
                  node_counts=GATE_NODE_COUNTS) -> dict:
    """Simulated runtime (or DNF status) of every gate cell."""
    from ..algorithms.registry import ALGORITHMS
    from ..harness.runner import run_cell

    algorithms = tuple(algorithms) if algorithms else ALGORITHMS
    cells = {}
    for algorithm in algorithms:
        for framework in frameworks:
            for nodes in node_counts:
                run = run_cell({"algorithm": algorithm,
                                "framework": framework, "nodes": nodes})
                cells[f"{algorithm}/{framework}/{nodes}"] = {
                    "status": run.status,
                    "runtime_s": run.runtime_or_none(),
                }
    return cells


#: Subset the kernel-backend report runs: every algorithm on the two
#: pure-kernel engine families, at both gate node counts. CF dominates
#: the wall clock, which is exactly where the interpreted oracle is
#: slowest, so the measured speedup is a conservative lower bound for
#: kernel-heavy sweeps.
KERNEL_REPORT_SUBSET = {
    "algorithms": None,                  # all of ALGORITHMS
    "frameworks": ("native", "galois"),
    "node_counts": GATE_NODE_COUNTS,
}


def measure_kernel_backends(subset=None) -> dict:
    """Differential + speedup report for the ``REPRO_KERNELS`` backends.

    Runs the subset cells under both backends and reports (a) whether
    the recorded cell payloads (status + simulated runtime) are
    identical — they must be, counted work is analytic — and (b) the
    wall-clock speedup of the vectorized kernels over the interpreted
    oracle. The identity half is exact; the speedup half is wall-clock
    and machine-dependent, so gates on it use a generous threshold.
    """
    from ..kernels import INTERPRETED, VECTORIZED, use_backend

    subset = dict(KERNEL_REPORT_SUBSET if subset is None else subset)
    # Warm the dataset caches so both timed passes measure execution.
    measure_cells(**subset)
    payloads, elapsed = {}, {}
    for backend in (VECTORIZED, INTERPRETED):
        with use_backend(backend):
            start = time.perf_counter()
            payloads[backend] = measure_cells(**subset)
            elapsed[backend] = time.perf_counter() - start
    mismatched = sorted(
        key for key in payloads[VECTORIZED]
        if payloads[VECTORIZED][key] != payloads[INTERPRETED].get(key)
    )
    return {
        "cells": len(payloads[VECTORIZED]),
        "vectorized_s": elapsed[VECTORIZED],
        "interpreted_s": elapsed[INTERPRETED],
        "speedup": elapsed[INTERPRETED] / max(elapsed[VECTORIZED], 1e-9),
        "identical": not mismatched,
        "mismatched": mismatched,
    }


#: Minimum vectorized-over-interpreted wall-clock speedup the kernel
#: gate accepts.
MIN_KERNEL_SPEEDUP = 2.0


def check_kernel_backends(subset=None) -> dict:
    """Run :func:`measure_kernel_backends` and gate on the result.

    Raises :class:`~repro.errors.PerfRegression` when the backends
    disagree on any cell payload (a correctness bug in a kernel's
    vectorized/interpreted pair) or when the vectorized speedup falls
    below :data:`MIN_KERNEL_SPEEDUP`.
    """
    report = measure_kernel_backends(subset)
    if not report["identical"]:
        cells = ", ".join(report["mismatched"])
        raise PerfRegression(
            f"kernel backends disagree on {len(report['mismatched'])} "
            f"cell(s): {cells} — vectorized and interpreted must produce "
            f"identical simulated results"
        )
    if report["speedup"] < MIN_KERNEL_SPEEDUP:
        raise PerfRegression(
            f"vectorized kernels are only {report['speedup']:.2f}x faster "
            f"than the interpreted oracle (required: "
            f"{MIN_KERNEL_SPEEDUP:.2f}x)"
        )
    return report


def render_kernel_report(report: dict) -> str:
    """One-paragraph human rendering of a kernel-backend report."""
    status = "identical" if report["identical"] else (
        f"MISMATCHED ({', '.join(report['mismatched'])})")
    return (f"kernel backends over {report['cells']} cells: payloads "
            f"{status}; vectorized {report['vectorized_s']:.2f}s vs "
            f"interpreted {report['interpreted_s']:.2f}s "
            f"({report['speedup']:.1f}x speedup)")


#: Default baseline file for the out-of-core ingest gate.
OUTOFCORE_BASELINE = "BENCH_outofcore.json"

#: Minimum streamed/in-memory ingest throughput ratio the gate accepts.
OUTOFCORE_MIN_RATIO = 0.5

#: Ingest-gate workload: big enough that build work dominates process
#: overheads, small enough for CI (a few seconds per path).
OUTOFCORE_SUBSET = {"scale": 15, "edge_factor": 16, "seed": 1,
                    "chunk_edges": 1 << 17}

_OUTOFCORE_KIND = "outofcore-baseline"


def measure_outofcore(subset=None) -> dict:
    """Cold-build throughput of both ingest paths, plus digest identity.

    Builds the same symmetrized R-MAT graph twice from scratch — the
    monolithic in-memory path (generate, dedup, CSR in RAM) and the
    streamed path (chunked generation into a sharded on-disk CSR,
    bypassing the dataset cache so the build itself is timed) — and
    reports edges/second for each. The ``identical`` half is exact: the
    partition digests of the sharded build must equal the dense CSR
    sliced at the same bounds. The throughput half is wall-clock and
    machine-dependent; gates on it use a generous threshold.
    """
    import shutil
    import tempfile

    from ..datagen import RMATStream, rmat_graph
    from ..graph import ShardedCSRGraph, build_sharded_csr, graph_digests

    subset = dict(OUTOFCORE_SUBSET if subset is None else subset)
    scale = subset["scale"]
    edge_factor = subset.get("edge_factor", 16)
    seed = subset.get("seed", 1)
    chunk_edges = subset.get("chunk_edges", 1 << 17)

    start = time.perf_counter()
    dense = rmat_graph.__wrapped__(scale, edge_factor=edge_factor,
                                   seed=seed, directed=False)
    in_memory_s = time.perf_counter() - start

    stream = RMATStream(scale, edge_factor=edge_factor, seed=seed)
    tmp = tempfile.mkdtemp(prefix="repro-perf-ooc-")
    try:
        start = time.perf_counter()
        build_sharded_csr(
            (block for _, block in stream.chunks(chunk_edges)),
            stream.num_vertices, tmp, symmetrize=True)
        streamed_s = time.perf_counter() - start
        sharded = ShardedCSRGraph(tmp)
        identical = sharded.digests() == graph_digests(
            dense, num_partitions=len(sharded.bounds) - 1)
        partitions = len(sharded.bounds) - 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    edges = dense.num_edges
    in_memory_eps = edges / max(in_memory_s, 1e-9)
    streamed_eps = edges / max(streamed_s, 1e-9)
    return {
        "scale": scale,
        "edge_factor": edge_factor,
        "chunk_edges": chunk_edges,
        "partitions": partitions,
        "edges": edges,
        "in_memory_s": in_memory_s,
        "streamed_s": streamed_s,
        "in_memory_eps": in_memory_eps,
        "streamed_eps": streamed_eps,
        "ratio": streamed_eps / max(in_memory_eps, 1e-9),
        "identical": identical,
    }


def check_outofcore() -> dict:
    """Run :func:`measure_outofcore` and gate on the result.

    Raises :class:`~repro.errors.PerfRegression` when the sharded build
    is not byte-identical to the dense CSR (a correctness bug, never
    tolerable) or when streamed ingest throughput falls below
    :data:`OUTOFCORE_MIN_RATIO` of the in-memory path.
    """
    report = measure_outofcore()
    if not report["identical"]:
        raise PerfRegression(
            f"sharded build at scale {report['scale']} is not "
            f"byte-identical to the in-memory CSR — the out-of-core "
            f"pipeline must reproduce the dense graph exactly"
        )
    if report["ratio"] < OUTOFCORE_MIN_RATIO:
        raise PerfRegression(
            f"streamed ingest runs at {report['ratio']:.2f}x the "
            f"in-memory path ({report['streamed_eps']:.2e} vs "
            f"{report['in_memory_eps']:.2e} edges/s; required: "
            f"{OUTOFCORE_MIN_RATIO:.2f}x)"
        )
    return report


def render_outofcore_report(report: dict) -> str:
    """One-paragraph human rendering of an out-of-core ingest report."""
    status = "identical" if report["identical"] else "MISMATCHED"
    return (f"out-of-core ingest at scale {report['scale']} "
            f"({report['edges']} edges, {report['partitions']} "
            f"partitions): digests {status}; streamed "
            f"{report['streamed_eps']:.2e} edges/s vs in-memory "
            f"{report['in_memory_eps']:.2e} edges/s "
            f"({report['ratio']:.2f}x)")


def record_outofcore(report: dict) -> dict:
    """Write a gate report to :data:`OUTOFCORE_BASELINE`.

    The digest-identity half is deterministic; the throughput half is
    wall-clock, recorded for trend-watching (the gate re-measures).
    """
    payload = {"kind": _OUTOFCORE_KIND, "version": 1, "report": report}
    atomic_write_text(OUTOFCORE_BASELINE,
                      json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload
