"""``python3 -m bench`` — run the benchmark and print every metric.

    python3 -m bench --seed 0                 every workload, tracing off
    python3 -m bench --seed 0 --trace         ... plus a traced run each
    python3 -m bench --seed 0 --runs 3 --out A.json     for bench.compare
    python3 -m bench --quick                  one unit per workload
    python3 -m bench --workload hot_cells --seed 3 --seconds 12 --trace 0
                                              one run, driver contract

Each workload run is a fresh ``bench.worker`` subprocess. With a single
``--workload`` and an explicit ``--trace 0|1`` the last line printed is
that run's contract JSON (``correct`` / ``attempted`` / ``failed`` /
``metrics``), which is how the PR driver calls this.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from . import env

#: The issue's sizing rule for one untraced workload run on this box.
WALL_RANGE_S = (10.0, 30.0)
MAX_TRACE_OVERHEAD = 1.25
TELESCOPE_TOLERANCE = 0.01
WORKER_TIMEOUT_S = 175


def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=env.ROOT, check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _meta(args) -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": _git_commit(), "seed": args.seed,
            "seconds": args.seconds, "quick": args.quick,
            "started": time.strftime("%Y-%m-%dT%H:%M:%S")}


def _run_worker(workload, args, trace: int) -> dict:
    scratch = env.OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    record_path = scratch / f"record-{os.getpid()}.json"
    command = [sys.executable, "-m", "bench.worker",
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--record", str(record_path)]
    if args.quick:
        command.append("--quick")
    if args.update_expected and not trace:
        command.append("--update-expected")
    try:
        subprocess.run(command, cwd=env.ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S)
        return json.loads(record_path.read_text())
    finally:
        record_path.unlink(missing_ok=True)


def _direction(metric) -> str:
    return "higher is better" if metric["better"] == "higher" \
        else "lower is better"


def _print_end_to_end(workload, records, declared) -> None:
    print(f"\n== {workload}  (tracing off, {len(records)} run(s), "
          f"{records[-1]['units']} units, wall "
          f"{statistics.median(r['wall_s'] for r in records):.1f} s, "
          f"ops {sum(r['attempted'] for r in records)} attempted / "
          f"{sum(r['failed'] for r in records)} failed, sim_digest "
          f"{records[-1]['sim_digest'][:12]})")
    for metric in declared["end_to_end"]:
        name = metric["name"]
        value = statistics.median(r["metrics"][name]["value"]
                                  for r in records)
        print(f"  {name:<18}{value:>14.4f} {metric['unit']:<5} "
              f"{_direction(metric):<17} bound {metric['bound']:.2f}  "
              f"n={records[-1]['samples'].get(name, 1)}")
    for record in records:
        for failure in record["failures"]:
            print(f"  FAILED OP {failure}")


def _print_per_layer(workload, record) -> None:
    print(f"\n== {workload}  (traced run, wall {record['wall_s']:.1f} s)")
    print(record["layer_table"])
    shown = {name: entry for name, entry in record["metrics"].items()
             if entry["value"]}
    width = max(len(name) for name in shown)
    for name, entry in shown.items():
        print(f"  {name:<{width}}  {entry['value']:>16.4f} {entry['unit']}")
    for failure in record["failures"]:
        print(f"  FAILED OP {failure}")


def _self_check(runs, full: bool) -> list:
    problems = []
    for record in runs:
        label = f"{record['workload']} (trace {record['trace']})"
        if not record["correct"]:
            problems.append(f"{label}: {record['failed']} failed op(s)")
        if record["trace"]:
            values = {name: entry["value"]
                      for name, entry in record["metrics"].items()}
            if values["trace_overhead_ratio"] > MAX_TRACE_OVERHEAD:
                problems.append(
                    f"{label}: trace_overhead_ratio "
                    f"{values['trace_overhead_ratio']:.3f} > "
                    f"{MAX_TRACE_OVERHEAD}")
            gap = abs(values["trace.self_sum_s"] - values["trace.root_sum_s"])
            if gap > TELESCOPE_TOLERANCE * values["trace.root_sum_s"]:
                problems.append(f"{label}: self times do not telescope "
                                f"(off by {gap:.3f} s)")
        elif full and not WALL_RANGE_S[0] <= record["wall_s"] \
                <= WALL_RANGE_S[1]:
            problems.append(f"{label}: run took {record['wall_s']:.1f} s, "
                            f"outside {WALL_RANGE_S[0]:.0f}-"
                            f"{WALL_RANGE_S[1]:.0f} s")
    return problems


def main(argv=None) -> int:
    declared = env.declared()
    names = [workload["name"] for workload in declared["workloads"]]
    parser = argparse.ArgumentParser(prog="python3 -m bench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run only this workload")
    parser.add_argument("--seed", type=int, default=0,
                        help="drives every generated input")
    parser.add_argument("--seconds", type=float,
                        default=float(declared["run_seconds"]),
                        help="how long one run measures")
    parser.add_argument("--trace", nargs="?", const="both",
                        choices=("0", "1", "both"), default="0",
                        help="bare: add a traced run; 1: traced run only")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat each workload N times into one file")
    parser.add_argument("--quick", action="store_true",
                        help="one unit and one set-up per workload")
    parser.add_argument("--out", help="results file (default bench/out/)")
    parser.add_argument("--update-expected", action="store_true",
                        help="rewrite bench/expected.json for this seed")
    args = parser.parse_args(argv)
    env.use_source_tree()

    workloads = [args.workload] if args.workload else names
    modes = {"0": (0,), "1": (1,), "both": (0, 1)}[args.trace]
    runs = []
    for workload in workloads:
        for trace in modes:
            records = [_run_worker(workload, args, trace)
                       for _ in range(args.runs)]
            runs.extend(records)
            if trace:
                _print_per_layer(workload, records[-1])
            else:
                _print_end_to_end(workload, records, declared)

    env.OUT.mkdir(exist_ok=True)
    out = args.out or env.OUT / f"results-seed{args.seed}.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"meta": _meta(args), "runs": runs}, handle, indent=1)
    full = args.workload is None and not args.quick
    problems = _self_check(runs, full)
    print(f"\nresults written to {out}")
    for problem in problems:
        print(f"SELF-CHECK FAILED  {problem}")
    if len(runs) == 1:
        # Driver contract: one run, its JSON object on the last line, and
        # exit 0 whenever a result was produced (``correct`` says if it
        # is right; wall-time rules are this box's, not the driver's).
        from .worker import contract_line

        print(contract_line(runs[0]))
        return 0
    print("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
