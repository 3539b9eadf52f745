"""One freeze of every simulated number: ``repro freeze record | check``.

The paper's simulated numbers are this package's product, so "nothing
simulated moved" is the check almost every change must pass. It is made
here, once, against one committed file (:data:`DEFAULT_FILE`), sorted,
one line per cell:

* the registry x {1, 2, 4} nodes x five scale/memory settings, native's
  option ladder and non-default parameters, on small fixed datasets;
* the gate cells, keyed ``gate/<algorithm>/<framework>/<nodes>``: every
  algorithm on ``GATE_FRAMEWORKS`` x ``GATE_NODE_COUNTS``, run through
  :func:`~repro.harness.runner.run_cell` on the weak-scaling datasets,
  exactly as a sweep or the daemon runs them.

A cell that completes is frozen as five sha256 digests: the *unsorted*
``to_dict()`` JSON (so ``extras`` key order counts), the span list with
attributes and simulated start/end times, the tracer's counters, the
raw answer bytes, and the ``to_dict()`` JSON of the same cell run again
untraced (traced or not, the cluster charges its step log in batches;
the tracer reads the charged rows). Every record carries its
status and simulated ``runtime_s``; a cell that does not complete is
frozen as its status and failure, a refused spec as its error.

``check`` re-records in memory only the keys the file holds, prints each
differing cell with the fields that differ and its runtime ratio, and
raises :class:`~repro.errors.PerfRegression` (exit 7) on any difference.
``--inject PATTERN=FACTOR`` multiplies the measured runtime of every
cell whose key contains ``PATTERN`` first: the self-test that proves the
check fires. ``record --only GLOB`` re-freezes just the matching keys,
so an intended model change rewrites only the cells it means to move.
"""

from __future__ import annotations

import fnmatch
import functools
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from ..algorithms.registry import ALGORITHMS, FRAMEWORKS
from ..datagen import netflix_like_ratings, rmat_graph, rmat_triangle_graph
from ..errors import PerfRegression, ReproError
from ..frameworks.native import FIGURE7_LADDER
from ..observability import Tracer
from ..perf.baselines import GATE_FRAMEWORKS, GATE_NODE_COUNTS
from .persistence import atomic_write_text
from .runner import run, run_cell
from .spec import ExperimentSpec

#: The committed freeze, found from the source tree so the command works
#: from any working directory.
DEFAULT_FILE = Path(__file__).resolve().parents[3] / "tests" \
    / "frozen_cells.json"

NODES = (1, 2, 4)
#: (scale_factor, enforce_memory): proxy scale; a factor at which the
#: proxy-scale buffer windows clamp; the same with memory enforced; and
#: two paper-scale factors, where a growing share of cells runs out of
#: memory.
SETTINGS = ((1.0, True), (2e4, False), (2e4, True), (1e6, True), (3e6, True))
#: Non-default parameters, run on every framework that takes them.
VARIANTS = (
    ("pagerank", {"iterations": 7, "damping": 0.15}),
    ("pagerank", {"iterations": 30, "tolerance": 1e-3}),
    ("bfs", {"source": 3}),
    ("sssp", {"source": 3}),
    ("label_propagation", {"iterations": 5, "seed": 9}),
    ("collaborative_filtering", {"iterations": 3, "hidden_dim": 4, "seed": 5}),
    ("triangle_counting", {"superstep_splits": 7}),
)


@functools.lru_cache(maxsize=None)
def _dataset(algorithm):
    if algorithm == "collaborative_filtering":
        return netflix_like_ratings(8, num_items=48, seed=97)
    if algorithm == "triangle_counting":
        return rmat_triangle_graph(scale=8, edge_factor=6, seed=97)
    return rmat_graph(scale=8, edge_factor=6, seed=97,
                      directed=algorithm == "pagerank")


def _kernels(algorithm):
    """CF's float accumulation order is backend-specific, so CF cells pin
    the vectorized backend; every other cell must freeze identically
    under either one."""
    return "vectorized" if algorithm == "collaborative_filtering" else None


def _run_small(algorithm, framework, nodes, scale_factor, enforce_memory,
               params, trace=None):
    spec = ExperimentSpec(algorithm=algorithm, framework=framework,
                          dataset=_dataset(algorithm), nodes=nodes,
                          scale_factor=scale_factor,
                          enforce_memory=enforce_memory,
                          kernels=_kernels(algorithm), params=params)
    return run(spec, trace=trace)


def cells():
    """Yield ``(key, execute)`` for every frozen cell, in a fixed order;
    ``execute(trace=None)`` runs it."""
    for algorithm in ALGORITHMS:
        for framework in FRAMEWORKS:
            for nodes in NODES:
                for scale, enforce in SETTINGS:
                    yield (f"{algorithm}/{framework}/{nodes}"
                           f"/x{scale:g}/{'mem' if enforce else 'nomem'}",
                           functools.partial(_run_small, algorithm, framework,
                                             nodes, scale, enforce, {}))
    for algorithm in ALGORITHMS:
        for rung, (_label, options) in enumerate(FIGURE7_LADDER):
            for nodes in NODES:
                yield (f"{algorithm}/native/{nodes}/ladder{rung}",
                       functools.partial(_run_small, algorithm, "native",
                                         nodes, 2e4, False,
                                         {"options": options}))
    for index, (algorithm, params) in enumerate(VARIANTS):
        for framework in FRAMEWORKS:
            for nodes in (1, 4):
                yield (f"{algorithm}/{framework}/{nodes}/variant{index}",
                       functools.partial(_run_small, algorithm, framework,
                                         nodes, 2e4, False, params))
    for algorithm in ALGORITHMS:
        for framework in GATE_FRAMEWORKS:
            for nodes in GATE_NODE_COUNTS:
                yield (f"gate/{algorithm}/{framework}/{nodes}",
                       functools.partial(run_cell, {
                           "algorithm": algorithm, "framework": framework,
                           "nodes": nodes}, kernels=_kernels(algorithm)))


def _sha(payload) -> str:
    if not isinstance(payload, bytes):
        payload = json.dumps(payload, default=repr).encode()
    return hashlib.sha256(payload).hexdigest()


def freeze(execute) -> dict:
    """One cell's record."""
    try:
        cell = execute(trace=Tracer())
    except ReproError as error:  # a refused spec: the refusal is the record
        return {"status": f"{type(error).__name__}: {error}",
                "runtime_s": None}
    if not cell.ok:
        return {"status": f"{cell.status}: {cell.failure}", "runtime_s": None}
    untraced = execute()
    values = cell.result.values
    parts = values if isinstance(values, tuple) else (values,)
    return {
        "status": cell.status,
        "runtime_s": untraced.runtime_or_none(),
        "result": _sha(cell.to_dict()),
        "spans": _sha([[span.name, span.depth, span.node, span.start_s,
                        span.end_s, span.attrs]
                       for span in cell.trace.spans]),
        # peak-rss is the host's memory, not the simulated machine's.
        "counters": _sha({name: total
                          for name, total in cell.trace.counters.items()
                          if name != "peak-rss"}),
        "values": _sha(b"".join(np.ascontiguousarray(part).tobytes()
                                for part in parts)),
        "untraced": _sha(untraced.to_dict()),
    }


def load(path=DEFAULT_FILE) -> dict:
    """The frozen records a file holds, by key."""
    path = Path(path)
    if not path.exists():
        raise ReproError(f"no frozen cells at {path}; record them with "
                         f"'repro freeze record --file {path}'")
    try:
        frozen = json.loads(path.read_text())
    except ValueError as error:
        raise ReproError(f"{path} is not a freeze file: {error}") from None
    if not frozen or not isinstance(frozen, dict) or not all(
            isinstance(entry, dict) and {"status", "runtime_s"} <= set(entry)
            for entry in frozen.values()):
        raise ReproError(f"{path} is not a freeze file: expected a "
                         f"non-empty object of cell records")
    return frozen


def record(path=DEFAULT_FILE, only: str = None) -> dict:
    """Freeze every cell, or with ``only`` just the keys that glob
    matches (keeping the file's other records), and write the file."""
    selected = [(key, execute) for key, execute in cells()
                if only is None or fnmatch.fnmatchcase(key, only)]
    if not selected:
        raise ReproError(
            f"--only {only!r} matches no frozen cell; keys look like "
            f"'bfs/native/1/x1/mem' or 'gate/bfs/native/1'")
    frozen = load(path) if only is not None and Path(path).exists() else {}
    fresh = {key: freeze(execute) for key, execute in selected}
    frozen.update(fresh)
    atomic_write_text(path, "{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(frozen[key], sort_keys=True)}"
        for key in sorted(frozen)) + "\n}\n")
    return fresh


def parse_injection(text: str, frozen: dict):
    """``"PATTERN=FACTOR"`` -> ``(pattern, factor)``, or a typed refusal
    of anything that would let the self-test pass without firing."""
    pattern, equals, factor_text = text.rpartition("=")
    pattern = pattern.strip()
    if not equals or not pattern:
        raise ReproError(f"bad --inject {text!r}; expected PATTERN=FACTOR "
                         f"with a non-empty pattern, e.g. 'bfs/giraph=2.0'")
    try:
        factor = float(factor_text)
    except ValueError:
        raise ReproError(f"bad --inject factor {factor_text.strip()!r}; "
                         f"expected a number") from None
    if not math.isfinite(factor) or factor <= 0:
        raise ReproError(f"bad --inject factor {factor_text.strip()!r}; "
                         f"expected a finite number > 0")
    if not any(pattern in key and entry["runtime_s"] is not None
               for key, entry in frozen.items()):
        raise ReproError(f"--inject pattern {pattern!r} matches no frozen "
                         f"cell with a runtime")
    return pattern, factor


def _difference(key, old, new):
    """How one cell's fresh record differs from its frozen one, or None."""
    if new is None:
        return f"{key}: no longer enumerated"
    if new == old:
        return None
    if old["status"] != new["status"]:
        return f"{key}: status {old['status']!r} -> {new['status']!r}"
    fields = sorted(name for name in set(old) | set(new)
                    if old.get(name) != new.get(name))
    line = f"{key}: {', '.join(fields)}"
    if old["runtime_s"] and new["runtime_s"] is not None:
        line += f" ({new['runtime_s'] / old['runtime_s']:.2f}x runtime)"
    return line


def differences(frozen: dict, inject=None) -> list:
    """Re-record the ``frozen`` keys; one line per cell that differs."""
    executes = dict(cells())
    lines = []
    for key in sorted(frozen):
        new = freeze(executes[key]) if key in executes else None
        if inject and new and inject[0] in key \
                and new["runtime_s"] is not None:
            new["runtime_s"] *= inject[1]
        line = _difference(key, frozen[key], new)
        if line:
            print(line, flush=True)
            lines.append(line)
    return lines


def check(path=DEFAULT_FILE, inject: str = None) -> int:
    """Re-record every cell the file holds; raise
    :class:`~repro.errors.PerfRegression` if any differs."""
    frozen = load(path)
    injection = parse_injection(inject, frozen) if inject else None
    differing = differences(frozen, injection)
    summary = f"{len(differing)} of {len(frozen)} frozen cells differ"
    if differing:
        raise PerfRegression(summary)
    print(summary)
    return len(frozen)
