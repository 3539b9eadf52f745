"""One workload, measured in this (fresh) process.

``python3 -m bench`` starts one of these per workload run, so
``peak_rss_mb`` is per workload and no state leaks between workloads.
The last line of standard output is the driver-contract JSON object;
``--record`` additionally writes the full run record (samples, digest,
failures, the isolation report, the layer table) for the caller.

Untraced (``--trace 0``) it reports the end-to-end metrics. Traced
(``--trace 1``) it measures twice in this process — first untraced, as
the reference, then with the wrappers of :mod:`bench.trace` installed —
and reports the per-layer metrics, including the ratio of the two.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import env


def _untraced(workload, seconds, quick):
    from .measure import end_to_end, measure

    m = measure(workload, seconds, min_units=1 if quick else 3,
                setup_reps=1 if quick else 3)
    values = end_to_end(m)
    return m, {name: value for name, (value, _count) in values.items()}, \
        {name: count for name, (_value, count) in values.items()}, ""


def _traced(workload, seconds):
    from .layers import per_layer
    from .measure import measure
    from .trace import Recorder, render_layer_table, summarize, tracing

    untraced = measure(workload, seconds / 2, min_units=2, setup_reps=1)
    recorder = Recorder()
    with tracing(recorder) as hook:
        workload.recorder, workload.hook = recorder, hook
        try:
            traced = measure(workload, seconds / 2, min_units=2,
                             setup_reps=1)
        finally:
            workload.recorder = workload.hook = None
    probes = workload.probes(traced)
    summary = summarize(recorder.spans)
    env.OUT.mkdir(exist_ok=True)
    recorder.dump(env.OUT / f"trace-{workload.name}.json",
                  workload=workload.name, seed=workload.seed)
    traced.failures.extend(untraced.failures)
    traced.attempted += untraced.attempted
    values = per_layer(summary, traced, untraced, probes)
    values["trace.self_sum_s"] = summary.self_sum
    values["trace.root_sum_s"] = summary.root_sum
    return traced, values, {}, render_layer_table(summary)


def run(name: str, seed: int, seconds: float, trace: bool,
        quick: bool = False, update_expected: bool = False) -> dict:
    """Measure one workload; returns the full run record."""
    started = time.perf_counter()
    env.use_source_tree()
    private = env.isolate(name)
    try:
        from . import check
        from .workloads import WORKLOADS

        workload = WORKLOADS[name](seed, private, in_process=trace)
        if trace:
            m, values, samples, table = _traced(workload, seconds)
        else:
            m, values, samples, table = _untraced(workload, seconds, quick)
        if update_expected:
            check.update_expected(name, workload.expected_key(), m.cells)
        m.check_expected(check.expected_cells(name, seed),
                         complete=not (trace or quick))
        isolation = env.isolation_report()
    finally:
        env.cleanup(private)
    section = "per_layer" if trace else "end_to_end"
    units = {metric["name"]: metric["unit"]
             for metric in env.declared()[section]}
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"{name}: no value for declared {missing}")
    return {
        "workload": name, "seed": seed, "trace": int(trace),
        "seconds": seconds, "quick": quick,
        "wall_s": time.perf_counter() - started,
        "units": len(m.unit_s),
        "unit_s": m.unit_s, "raw_unit_s": m.raw_unit_s, "speed": m.speed,
        "setup_s": m.setup_s,
        "correct": m.failed == 0,
        "attempted": max(m.attempted, 1),
        "failed": m.failed,
        "failures": m.failures[:20],
        "sim_digest": check.sim_digest(m.cells),
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit in units.items()},
        "samples": samples,
        "layer_table": table,
        "isolation": isolation,
    }


def contract_line(record: dict) -> str:
    return json.dumps({key: record[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--update-expected", action="store_true")
    parser.add_argument("--record")
    args = parser.parse_args(argv)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 quick=args.quick, update_expected=args.update_expected)
    if args.record:
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    print(contract_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
