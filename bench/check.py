"""The correctness gate: simulated outputs must not move.

A host-time benchmark of a simulator is only meaningful while every
*simulated* statistic stays identical, so each observed cell is reduced
to a tuple of its simulated outcome (status, comparison runtime, bytes
sent, supersteps, iterations) and compared

* against ``bench/expected.json`` for the committed seeds (0 and 1), and
* against its own first observation in the run (determinism), any seed.

``hot_cells`` additionally checks every framework's *values* against the
``repro.algorithms`` golden references, so cross-framework agreement is
asserted on every seed, not only the committed ones.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from . import env

EXPECTED_PATH = env.BENCH / "expected.json"

#: ``table5_sweep`` runs the fixed catalog proxies: one entry, any seed.
ANY_SEED = "*"


def run_tuple(result) -> str:
    """Simulated outcome of one ``RunResult``."""
    if not result.ok:
        return result.status
    metrics = result.result.metrics
    return "|".join((result.status,
                     format(result.runtime(), ".9g"),
                     format(metrics.bytes_sent_total, ".9g"),
                     str(len(metrics.steps)),
                     str(result.result.iterations)))


def record_tuple(status, value) -> str:
    """Simulated outcome of a sweep record or a served job result (only
    the status and the comparison runtime cross those boundaries)."""
    runtime = (value or {}).get("runtime_s") if isinstance(value, dict) \
        else None
    if runtime is None:
        return status
    return f"{status}|{format(runtime, '.9g')}"


def sim_digest(cells: dict) -> str:
    """sha256 over the sorted ``(cell id, tuple)`` pairs."""
    digest = hashlib.sha256()
    for cell_id in sorted(cells):
        digest.update(f"{cell_id}={cells[cell_id]}\n".encode())
    return digest.hexdigest()


def load_expected() -> dict:
    if not EXPECTED_PATH.exists():
        return {}
    return json.loads(EXPECTED_PATH.read_text())


def expected_cells(workload: str, seed: int):
    """The committed cell map for ``(workload, seed)``, or ``None``."""
    by_seed = load_expected().get(workload, {})
    entry = by_seed.get(ANY_SEED) or by_seed.get(str(seed))
    return entry["cells"] if entry else None


def update_expected(workload: str, seed_key: str, cells: dict) -> None:
    expected = load_expected()
    expected.setdefault(workload, {})[seed_key] = {
        "sim_digest": sim_digest(cells),
        "cells": {cell_id: cells[cell_id] for cell_id in sorted(cells)},
    }
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True)
                             + "\n")


# ---------------------------------------------------------------------------
# Values against the golden references (hot_cells)
# ---------------------------------------------------------------------------


def reference_values(algorithm: str, dataset, params: dict):
    """Golden answer for one graph algorithm on one dataset."""
    from repro import algorithms

    if algorithm == "pagerank":
        return algorithms.pagerank_reference(dataset, params["iterations"])
    if algorithm == "bfs":
        return algorithms.bfs_reference(dataset, params["source"])
    if algorithm == "sssp":
        return algorithms.sssp_reference(dataset, params["source"])
    if algorithm == "wcc":
        return algorithms.wcc_reference(dataset)
    if algorithm == "k_core":
        return algorithms.kcore_reference(dataset)
    if algorithm == "label_propagation":
        return algorithms.label_propagation_reference(dataset,
                                                      params["iterations"])
    if algorithm == "triangle_counting":
        return algorithms.triangle_count_reference(dataset)
    raise KeyError(algorithm)


def values_agree(algorithm: str, values, reference) -> bool:
    """Exact for the integer/lattice workloads, 1e-9 L-inf for PageRank."""
    if algorithm == "triangle_counting":
        return int(values) == int(reference)
    values, reference = np.asarray(values), np.asarray(reference)
    if values.shape != reference.shape:
        return False
    if algorithm == "pagerank":
        return bool(np.abs(values - reference).max() <= 1e-9)
    return bool(np.array_equal(values, reference))


def cf_disagreements(curves: dict) -> list:
    """Frameworks whose CF run is wrong, from their RMSE curves.

    Every curve must descend; the gradient-descent ports (the curves
    that are not the native/galois SGD variants) must agree to 1e-9 —
    they run the same update through four different engines.
    """
    bad = [name for name, curve in curves.items()
           if not curve or curve[-1] >= curve[0]]
    gd = {name: curve for name, curve in curves.items()
          if name not in ("native", "galois")}
    if gd:
        pivot = next(iter(gd.values()))
        bad += [name for name, curve in gd.items()
                if len(curve) != len(pivot)
                or np.abs(np.subtract(curve, pivot)).max() > 1e-9]
    return sorted(set(bad))
