"""Strict freeze: every simulated byte of every registry cell, hashed.

``tests/frozen_cells.json`` pins 160 cells by three digests that forgive
key order, span attributes and timestamps. A refactor that promises
"nothing simulated moved" needs the unforgiving version, run on the
parent and on the change and compared:

    PYTHONPATH=<parent>/src python scripts/strict_freeze.py record --out a.json
    PYTHONPATH=src python scripts/strict_freeze.py record --out b.json
    PYTHONPATH=src python scripts/strict_freeze.py compare a.json b.json

Each cell is frozen as its DNF status, or five sha256 digests: the
*unsorted* ``to_dict()`` JSON (so ``extras`` key order counts), the span
list with attributes and simulated start/end times, the tracer's
counters, the raw answer bytes, and the ``to_dict()`` JSON of the same
cell run again untraced (a tracer charges every superstep as it comes;
without one the cluster charges its step log in batches). ``compare``
prints each differing cell with the fields that differ and exits 1 if
there are any.
"""

import argparse
import functools
import hashlib
import json
import sys

import numpy as np

from repro.algorithms.registry import ALGORITHMS, FRAMEWORKS
from repro.datagen import netflix_like_ratings, rmat_graph, rmat_triangle_graph
from repro.frameworks.native import FIGURE7_LADDER
from repro.harness import ExperimentSpec, run
from repro.observability import Tracer

NODES = (1, 2, 4)
#: (scale_factor, enforce_memory): proxy scale; the frozen-cells setting;
#: the same with memory enforced; and two paper-scale factors, where the
#: buffer windows clamp and a growing share of cells runs out of memory.
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
#: ``--quick``: the registry at this one setting, nothing else.
QUICK_SETTINGS = ((2e4, False),)


@functools.lru_cache(maxsize=None)
def _dataset(algorithm):
    if algorithm == "collaborative_filtering":
        return netflix_like_ratings(8, num_items=48, seed=97)
    if algorithm == "triangle_counting":
        return rmat_triangle_graph(scale=8, edge_factor=6, seed=97)
    return rmat_graph(scale=8, edge_factor=6, seed=97,
                      directed=algorithm == "pagerank")


def _sha(payload) -> str:
    if not isinstance(payload, bytes):
        payload = json.dumps(payload, default=repr).encode()
    return hashlib.sha256(payload).hexdigest()


def freeze(algorithm, framework, dataset, nodes, scale_factor,
           enforce_memory, params):
    """One cell's status or digests; a refused spec freezes its error."""
    # CF's float accumulation order is backend-specific, as in
    # tests/test_golden_references.py.
    kernels = "vectorized" if algorithm == "collaborative_filtering" else None
    spec = dict(algorithm=algorithm, framework=framework, dataset=dataset,
                nodes=nodes, scale_factor=scale_factor,
                enforce_memory=enforce_memory, kernels=kernels, params=params)
    try:
        cell = run(ExperimentSpec(**spec), trace=Tracer())
    except Exception as error:  # noqa: BLE001 - the refusal *is* the record
        return f"{type(error).__name__}: {error}"
    if not cell.ok:
        return f"{cell.status}: {cell.failure}"
    untraced = run(ExperimentSpec(**spec))
    values = cell.result.values
    parts = values if isinstance(values, tuple) else (values,)
    return {
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


def cells(quick: bool):
    """Yield ``(key, freeze arguments)`` for every cell of the freeze."""
    for algorithm in ALGORITHMS:
        for framework in FRAMEWORKS:
            for nodes in NODES:
                for scale, enforce in (QUICK_SETTINGS if quick else SETTINGS):
                    yield (f"{algorithm}/{framework}/{nodes}"
                           f"/x{scale:g}/{'mem' if enforce else 'nomem'}",
                           (algorithm, framework, _dataset(algorithm), nodes,
                            scale, enforce, {}))
    if quick:
        return
    for algorithm in ALGORITHMS:
        for rung, (_label, options) in enumerate(FIGURE7_LADDER):
            for nodes in NODES:
                yield (f"{algorithm}/native/{nodes}/ladder{rung}",
                       (algorithm, "native", _dataset(algorithm), nodes, 2e4,
                        False, {"options": options}))
    for index, (algorithm, params) in enumerate(VARIANTS):
        for framework in FRAMEWORKS:
            for nodes in (1, 4):
                yield (f"{algorithm}/{framework}/{nodes}/variant{index}",
                       (algorithm, framework, _dataset(algorithm), nodes, 2e4,
                        False, params))


def record(out: str, quick: bool) -> int:
    frozen = {key: freeze(*arguments) for key, arguments in cells(quick)}
    statuses = sum(isinstance(entry, str) for entry in frozen.values())
    with open(out, "w") as handle:
        json.dump(frozen, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"froze {len(frozen)} cells ({statuses} as a status) -> {out}")
    return 0


def _outcome(entry):
    """A status as it is; a digest entry as ``ok``; a missing cell as such."""
    if entry is None:
        return "absent"
    return entry if isinstance(entry, str) else "ok"


def compare(before_path: str, after_path: str) -> int:
    with open(before_path) as handle:
        before = json.load(handle)
    with open(after_path) as handle:
        after = json.load(handle)
    keys = sorted(set(before) | set(after))
    differing = 0
    for key in keys:
        old, new = before.get(key), after.get(key)
        if old == new:
            continue
        differing += 1
        if isinstance(old, dict) and isinstance(new, dict):
            fields = [name for name in old if old[name] != new.get(name)]
            print(f"{key}: {', '.join(fields)}")
        else:
            print(f"{key}: {_outcome(old)!r} -> {_outcome(new)!r}")
    print(f"{differing} of {len(keys)} cells differ")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    recorder = commands.add_parser("record")
    recorder.add_argument("--out", default="strict_freeze.json")
    recorder.add_argument("--quick", action="store_true",
                          help="a small fixed subset (< 30 s), for CI")
    comparer = commands.add_parser("compare")
    comparer.add_argument("before")
    comparer.add_argument("after")
    arguments = parser.parse_args(argv)
    if arguments.command == "record":
        return record(arguments.out, arguments.quick)
    return compare(arguments.before, arguments.after)


if __name__ == "__main__":
    sys.exit(main())
