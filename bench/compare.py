"""``python3 -m bench.compare A.json B.json`` — did B get worse than A?

Both files come from ``python3 -m bench --runs N --out FILE`` (same
seed, same settings). For every (end-to-end metric, workload) pair this
prints both sides' median and quartiles, the ratio B/A *with its base*,
the metric's bound, and a verdict:

``ok``          B's median is no worse than A's by more than the bound
``worse``       it is
``unresolved``  a side's own runs spread (quartile distance over median)
                wider than the bound, so the comparison cannot tell —
                unless every run of B reads better than every run of A

The simulated outputs must not move at all: differing ``sim_digest`` s
are an error. Exit status: 0 all ok/unresolved, 1 any ``worse``, 2
digests differ.
"""

from __future__ import annotations

import json
import statistics
import sys

from . import env


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _side(values) -> dict:
    q1, q3 = _quartiles(values)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def verdict(a_values, b_values, better: str, bound: float) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    a, b = _side(a_values), _side(b_values)
    if max(a["spread"], b["spread"]) > bound:
        every_b_better = max(sign * value for value in b_values) \
            < min(sign * value for value in a_values)
        return "ok" if every_b_better else "unresolved"
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    return "worse" if worse_by > bound else "ok"


def _untraced(path) -> dict:
    """workload -> its untraced run records."""
    with open(path, "r", encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    out = {}
    for record in runs:
        if not record["trace"]:
            out.setdefault(record["workload"], []).append(record)
    return out


def compare(path_a, path_b, out=sys.stdout) -> int:
    declared = env.declared()["end_to_end"]
    side_a, side_b = _untraced(path_a), _untraced(path_b)
    status = 0
    for workload in sorted(set(side_a) & set(side_b)):
        runs_a, runs_b = side_a[workload], side_b[workload]
        digests = {record["sim_digest"] for record in runs_a + runs_b}
        print(f"\n== {workload}  (A: {len(runs_a)} run(s), "
              f"B: {len(runs_b)} run(s))", file=out)
        if len(digests) != 1:
            print(f"  sim_digest DIFFERS: {sorted(digests)}", file=out)
            status = 2
        else:
            print(f"  sim_digest equal ({digests.pop()[:12]})", file=out)
        for metric in declared:
            name = metric["name"]
            a_values = [r["metrics"][name]["value"] for r in runs_a]
            b_values = [r["metrics"][name]["value"] for r in runs_b]
            a, b = _side(a_values), _side(b_values)
            result = verdict(a_values, b_values, metric["better"],
                             metric["bound"])
            if result == "worse" and status == 0:
                status = 1
            print(f"  {name:<18} A {a['median']:>11.4f} "
                  f"[{a['q1']:.4f}, {a['q3']:.4f}]  "
                  f"B {b['median']:>11.4f} [{b['q1']:.4f}, {b['q3']:.4f}] "
                  f"{metric['unit']:<4} B/A = {b['median'] / a['median']:.3f}"
                  f" of A = {a['median']:.4f}  bound {metric['bound']:.2f} "
                  f"({metric['better']} is better)  {result}", file=out)
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 64
    return compare(argv[0], argv[1])


if __name__ == "__main__":
    sys.exit(main())
