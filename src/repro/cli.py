"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — one experiment cell: algorithm x framework x dataset x nodes;
* ``trace`` — run one cell with the flight recorder and export the trace;
* ``chaos`` — run one cell fault-free and under a ``--faults`` schedule,
  and report what surviving the faults cost;
* ``sweep`` — a durable, resumable multi-cell sweep (any sweepable row
  of ``harness.artifacts.ARTIFACTS``) with per-cell deadlines, retry +
  quarantine and a JSONL journal; ``--jobs N`` fans the cells over a
  *supervised* worker pool (crash/hang/OOM containment,
  ``--wall-deadline``, ``--real-chaos`` fault injection) with a
  byte-identical journal;
* ``cache`` — inspect or clear the content-addressed dataset cache;
* ``table N`` / ``figure N`` — regenerate one paper artifact;
* ``perf`` — roofline bounds + gap attribution (``analyze``) and ranked
  optimization what-ifs (``advise``);
* ``freeze`` — record or check every frozen simulated number;
* ``datasets`` — list the catalog and proxy sizes;
* ``frameworks`` — list frameworks and their profiles;
* ``graph500`` — the Graph500 BFS protocol on the simulator;
* ``regenerate`` — every row of ``ARTIFACTS``, in order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .errors import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    STATUS_EXIT_CODES,
    NodeFailure,
    ReproError,
    failure_class,
)

EXIT_CODES_HELP = """\
exit codes:
  0  success (for `sweep`: the sweep completed; DNF cells are results)
  1  unclassified error (also a cell that crashed its worker)
  2  usage error
  3  out of memory (CapacityError)
  4  unsupported by the framework's programming model
  5  node failure the framework could not recover (status `failed`)
  6  simulated deadline exceeded (timeout)
  7  `freeze check`: a frozen simulated number moved
  8  sweep drained on SIGINT/SIGTERM: journal flushed, finish via --resume
"""


def _failure_exit(error) -> int:
    """Report a typed failure on stderr; returns its exit code.

    The single place every command funnels typed failures through; the
    label and the code both come from ``errors.FAILURE_CLASSES``.
    """
    failure = failure_class(error)
    print(f"{failure.label}: {error}", file=sys.stderr)
    return failure.exit_code


def _request_flags(command, cls, positional=(), required=()) -> None:
    """One argparse argument per CLI-facing field of a request value.

    All of it comes from the field's declaration (:func:`~repro.harness.
    spec.declare`): spelling, help, choices, default, and ``int`` /
    ``float`` / ``store_true`` from its type. A list field is one
    comma-separated string whose items the value's constructor checks.
    """
    from dataclasses import MISSING

    from .algorithms.registry import PARAM_TYPES
    from .harness.spec import declared

    for field, kind in declared(cls):
        wire = field.metadata["wire"]
        for name, text in wire.get("params", {}).items():
            command.add_argument("--" + name.replace("_", "-"),
                                 type=PARAM_TYPES[name], help=text)
        if "params" in wire:
            continue
        default = wire.get("cli_default", field.default)
        options = {"help": wire.get("help"),
                   "default": None if default is MISSING else default}
        if "choices" in wire:
            options["choices"] = wire["choices"]()
        if kind is bool:
            options["action"] = "store_true"
        elif kind in (int, float):
            options["type"] = kind
        if field.name in positional:
            command.add_argument(field.name, nargs="?", **options)
        elif default is MISSING:
            command.add_argument(field.name, **options)
        else:
            flag = wire.get("flag", "--" + field.name.replace("_", "-"))
            command.add_argument(flag, dest=field.name,
                                 required=field.name in required, **options)


def _request(cls, args):
    """The request value the parsed flags name; the value checks them."""
    from typing import get_args, get_origin

    from .harness.spec import declared

    given = {}
    for field, kind in declared(cls):
        params = field.metadata["wire"].get("params")
        value = {name: getattr(args, name) for name in params
                 if getattr(args, name) is not None} \
            if params else getattr(args, field.name)
        if isinstance(value, str) and get_origin(kind) is tuple:
            value = tuple(_convert(part, get_args(kind)[0])
                          for part in value.split(",") if part)
        if value is not None:
            given[field.name] = value
    return cls(**given)


def _convert(text: str, kind):
    """``kind(text)``, or ``text`` itself for the value to refuse."""
    try:
        return kind(text)
    except ValueError:
        return text


def _run_cell(args, trace=None):
    """Shared run/trace front half: build an ExperimentSpec and run it."""
    from .harness import ExperimentSpec, run

    return run(_request(ExperimentSpec, args), trace=trace)


def _print_run(result) -> None:
    metrics = result.metrics()
    print(f"algorithm          : {result.algorithm}")
    print(f"framework          : {result.framework}")
    print(f"nodes              : {result.nodes}")
    print(f"runtime            : {result.runtime():.4f} s (simulated)")
    print(f"iterations         : {metrics.num_iterations}")
    print(f"cpu utilization    : {100 * metrics.cpu_utilization:.0f}%")
    print(f"bytes sent per node: {metrics.bytes_sent_per_node / 1e6:.1f} MB")
    print(f"memory footprint   : "
          f"{metrics.memory_footprint_bytes / 2**30:.2f} GiB/node")
    print(f"bound by           : {metrics.bound_by()}")
    if result.recovery is not None:
        stats = result.recovery
        print(f"faults injected    : {stats.faults_injected} "
              f"({stats.crashes} crashes, {stats.recoveries} recovered)")
        print(f"fault overhead     : {stats.total_overhead_s:.4f} s "
              f"(checkpoint {stats.checkpoint_time_s:.4f}, "
              f"recovery {stats.recovery_time_s:.4f}, "
              f"retry {stats.retry_time_s:.4f})")


def _cmd_run(args) -> int:
    result = _run_cell(args)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    elif not result.ok:
        print(f"status: {result.status} ({result.failure})")
    else:
        _print_run(result)
    return STATUS_EXIT_CODES[result.status]


def _cmd_trace(args) -> int:
    from .harness.persistence import atomic_write_text
    from .observability import (
        Tracer,
        chrome_trace,
        render_summary_tree,
        steps_csv,
        write_chrome_trace,
    )

    result = _run_cell(args, trace=Tracer())
    tracer = result.trace
    if args.out:
        write_chrome_trace(tracer, args.out)
    if args.csv:
        atomic_write_text(args.csv, steps_csv(tracer))
    if args.json:
        payload = result.to_dict()
        payload["trace"] = chrome_trace(tracer)
        print(json.dumps(payload, indent=2))
    else:
        if not result.ok:
            print(f"status: {result.status} ({result.failure})")
        print(render_summary_tree(tracer))
        if args.out:
            print(f"\nwrote Chrome trace to {args.out} "
                  f"(open in chrome://tracing or ui.perfetto.dev)")
        if args.csv:
            print(f"wrote per-superstep CSV to {args.csv}")
    return STATUS_EXIT_CODES[result.status]


def _cmd_chaos(args) -> int:
    """Same cell twice — fault-free, then under the schedule — and diff."""
    from .harness import ExperimentSpec, run

    spec = _request(ExperimentSpec, args)
    faults, seed = spec.faults, spec.fault_seed
    baseline = run(replace(spec, faults=None))
    try:
        chaos = run(spec)
    except NodeFailure as failure:
        if args.json:
            print(json.dumps({
                "baseline": baseline.to_dict(),
                "faults": faults,
                "fault_seed": seed,
                "status": "node-failure",
                "node": failure.node,
                "superstep": failure.superstep,
            }, indent=2))
        else:
            print(f"schedule    : {faults} (seed {seed})")
            print(f"baseline    : {baseline.metrics().total_time_s:.4f} s")
            print(f"chaos run   : FAILED — {failure}")
            print(f"              ({args.framework} runs fail-fast; pick a "
                  "checkpointing framework to survive crashes)")
        return failure_class(failure).exit_code
    if args.json:
        print(json.dumps({"baseline": baseline.to_dict(),
                          "chaos": chaos.to_dict()}, indent=2))
        return STATUS_EXIT_CODES[chaos.status]
    if not chaos.ok or not baseline.ok:
        failed = baseline if not baseline.ok else chaos
        print(f"status: {failed.status} ({failed.failure})")
        return STATUS_EXIT_CODES[failed.status]
    stats = chaos.recovery
    # Total wall clock, not time/iteration: the overhead lines below are
    # whole-run seconds and the ratio must be read against them.
    clean_s = baseline.metrics().total_time_s
    chaos_s = chaos.metrics().total_time_s
    print(f"schedule    : {chaos.config['faults']} (seed {seed})")
    print(f"baseline    : {clean_s:.4f} s")
    print(f"under faults: {chaos_s:.4f} s "
          f"({chaos_s / max(clean_s, 1e-18):.2f}x)")
    print(f"faults      : {stats.faults_injected} injected, "
          f"{stats.crashes} crashes, {stats.recoveries} recovered")
    if stats.messages_dropped or stats.messages_corrupted:
        print(f"messages    : {stats.messages_dropped} dropped, "
              f"{stats.messages_corrupted} corrupted "
              f"({stats.retransmitted_bytes / 1e6:.1f} MB retransmitted)")
    print(f"checkpoints : {stats.checkpoints_written} written "
          f"({stats.checkpoint_bytes / 2**30:.2f} GiB, "
          f"{stats.checkpoint_time_s:.4f} s)")
    print(f"overhead    : {stats.total_overhead_s:.4f} s total "
          f"(recovery {stats.recovery_time_s:.4f}, "
          f"retry {stats.retry_time_s:.4f})")
    if stats.events:
        print("timeline    :")
        for event in stats.events:
            attrs = ", ".join(f"{key}={value}" for key, value in event.items()
                              if key not in ("kind", "superstep"))
            print(f"  step {event.get('superstep', '?'):>3}  "
                  f"{event['kind']:<14} {attrs}")
    return 0


def _cmd_sweep(args) -> int:
    """Durable, resumable regeneration of one sweep artifact."""
    from .harness import report
    from .harness.artifacts import ARTIFACTS
    from .harness.sweep import SweepRequest
    from .observability import Tracer, write_chrome_trace

    request = _request(SweepRequest, args)
    tracer = Tracer()
    data, completeness = request.run(
        jobs=args.jobs, tracer=tracer, wall_deadline_s=args.wall_deadline,
        max_crashes=args.max_crashes, memory_limit_mb=args.memory_limit_mb,
        real_chaos=args.real_chaos)
    if args.json:
        print(json.dumps({"data": data, "completeness": completeness},
                         indent=2, sort_keys=True))
    else:
        print(ARTIFACTS[args.target].text(data))
        print()
        print(report.render_sweep_completeness(completeness))
    if args.save:
        from .harness.persistence import save_artifact

        save_artifact(args.save, args.target, data,
                      metadata={"completeness": completeness})
        if not args.json:
            print(f"\nsaved to {args.save}")
    if args.trace_out:
        write_chrome_trace(tracer, args.trace_out)
    # DNF cells (OOM, timeout, ...) are *results* of a sweep, not
    # errors: the sweep itself completing means exit 0.
    return EXIT_OK


def _cmd_artifact(args) -> int:
    """``repro table N`` / ``repro figure N``: one ``ARTIFACTS`` row."""
    from .harness.artifacts import ARTIFACTS

    kind = args.command
    artifact = ARTIFACTS.get(f"{kind}{args.number}")
    if artifact is None:
        numbers = sorted(int(name[len(kind):]) for name in ARTIFACTS
                         if name.startswith(kind))
        print(f"no {kind} {args.number}; the paper has {kind}s "
              f"{numbers[0]}-{numbers[-1]}", file=sys.stderr)
        return EXIT_USAGE
    data = artifact.producer()
    print(artifact.text(data))
    if args.save:
        from .harness.persistence import save_artifact
        save_artifact(args.save, f"{kind}{args.number}", data)
        print(f"\nsaved to {args.save}")
    return EXIT_OK


def _cmd_cache(args) -> int:
    """Inspect or clear the content-addressed dataset cache."""
    from .datagen import cache_entries, cache_stats, \
        clear_cache_report
    from .datagen.cache import cache_root

    if args.action == "clear":
        report = clear_cache_report(stale_only=args.stale)
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
            return EXIT_OK
        removed = report["removed"]
        print(f"removed {removed} {'stale ' if args.stale else ''}"
              f"entr{'y' if removed == 1 else 'ies'} from {cache_root()}, "
              f"reclaimed {report['reclaimed_bytes'] / 1e6:.2f} MB")
        for kind, bucket in sorted(report["by_kind"].items()):
            print(f"  {kind:<12} {bucket['entries']:>3} entries  "
                  f"{bucket['bytes'] / 1e6:8.2f} MB")
        return EXIT_OK
    if args.action == "list":
        listed = cache_entries()
        if args.json:
            print(json.dumps(listed, indent=2, sort_keys=True))
            return EXIT_OK
        if not listed:
            print(f"cache at {cache_root()} is empty")
            return EXIT_OK
        for item in listed:
            stale = "  STALE" if item["stale"] else ""
            shards = f"  {item['partitions']} shards" \
                if item.get("partitions") else ""
            print(f"{item['key']}  {item['generator']:<22} "
                  f"{item['kind']:<12} {item['bytes'] / 1e6:8.2f} MB"
                  f"{shards}{stale}")
        print(f"{len(listed)} entries at {cache_root()}")
        return EXIT_OK
    # stats
    summary = cache_stats()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return EXIT_OK
    print(f"root          : {summary['root']}")
    print(f"enabled       : {summary['enabled']}")
    print(f"entries       : {summary['entries']} "
          f"({summary['stale_entries']} stale)")
    print(f"total size    : {summary['bytes'] / 1e6:.2f} MB")
    for name, bucket in sorted(summary["by_generator"].items()):
        print(f"  {name:<22} {bucket['entries']:>3} entries  "
              f"{bucket['bytes'] / 1e6:8.2f} MB")
    shards = summary["shards"]
    print(f"out-of-core   : {shards['sharded_graphs']} sharded graphs "
          f"({shards['partitions']} partitions), "
          f"{shards['bytes'] / 1e6:.2f} MB")
    memory = summary["pinned"]["memory"]
    print(f"pinned memory : {memory['resident_bytes'] / 1e6:.2f} MB "
          f"resident of {memory['virtual_bytes'] / 1e6:.2f} MB virtual")
    return EXIT_OK


def _cmd_datasets(_args) -> int:
    from .harness.artifacts import ARTIFACTS

    table3 = ARTIFACTS["table3"]
    print(table3.render(table3.producer(),
                        "Datasets (paper sizes and generated proxies)"))
    return 0


def _cmd_frameworks(_args) -> int:
    from .frameworks.base import PROFILES

    for name, profile in sorted(PROFILES.items()):
        print(f"{name:<22} {profile.model:<16} {profile.language:<8} "
              f"comm={profile.comm_layer.name:<14} "
              f"multinode={profile.multinode}")
    return 0


def _cmd_graph500(args) -> int:
    from .harness.graph500 import SearchDidNotFinish, run_graph500

    try:
        result = run_graph500(scale=args.scale, nodes=args.nodes,
                              framework=args.framework,
                              num_roots=args.roots,
                              scale_factor=args.scale_factor,
                              streamed=args.streamed,
                              memory_budget_mb=args.memory_budget_mb,
                              chunk_edges=args.chunk_edges,
                              num_partitions=args.partitions)
    except SearchDidNotFinish as dnf:
        print(f"status: {dnf}")
        return STATUS_EXIT_CODES[dnf.status]
    mode = "streamed (out-of-core)" if result.streamed else "in-memory"
    print(f"Graph500 BFS, scale {result.scale} "
          f"({result.num_edges:,} undirected edges), "
          f"{result.num_roots} roots on {args.framework}, {mode}:")
    print(f"  harmonic mean TEPS : {result.harmonic_mean_teps:.3e}")
    print(f"  min / median / max : {result.min_teps:.3e} / "
          f"{result.median_teps:.3e} / {result.max_teps:.3e}")
    print(f"  mean BFS time      : {result.mean_time_s:.4f} s")
    print(f"  peak RSS           : {result.peak_rss_mb:.1f} MB")
    print(f"  all trees valid    : {result.all_valid}")
    return 0 if result.all_valid else 1


def _cmd_regenerate(_args) -> int:
    """Every artifact, in table order; timings go to stderr so the
    stdout transcript (``results.txt``) is byte-reproducible."""
    import time

    from .harness.artifacts import ARTIFACTS

    for name, artifact in ARTIFACTS.items():
        start = time.time()
        print(artifact.text(artifact.producer()) + "\n")
        print(f"[{name} regenerated in {time.time() - start:.1f}s]",
              file=sys.stderr)
    return EXIT_OK


def _cmd_perf_analyze(args) -> int:
    """Roofline ratios for one framework; gap attribution when not native."""
    from . import perf

    analysis = _request(perf.AnalysisRequest, args).run()
    if args.json:
        print(json.dumps(analysis.to_dict(), indent=2, sort_keys=True))
        return EXIT_OK
    print(perf.render_roofline(
        analysis.roofline,
        title=f"Roofline: {args.framework} vs hardware bounds"))
    for attribution in analysis.attributions:
        print()
        print(perf.render_attribution(attribution))
    return EXIT_OK


def _cmd_perf_advise(args) -> int:
    from . import perf

    advice = perf.advise_cell(args.algorithm, nodes=args.nodes)
    if args.json:
        print(json.dumps([item.to_dict() for item in advice], indent=2))
    else:
        print(perf.render_advice(
            advice, f"{args.algorithm} on {args.nodes} node(s)"))
    return EXIT_OK


def _cmd_serve(args) -> int:
    """Run the long-lived experiment service until SIGTERM/SIGINT."""
    import asyncio

    from .serve import ExperimentService
    from .serve.admission import AdmissionPolicy

    policy = AdmissionPolicy(max_jobs=args.max_jobs,
                             max_deadline_s=args.max_deadline,
                             memory_budget_mb=args.memory_budget_mb)
    service = ExperimentService(args.host, args.port, jobs=args.jobs,
                                state_dir=args.state_dir, policy=policy,
                                warm=not args.no_warm)

    def _announce(host, port):
        print(f"repro-serve listening on http://{host}:{port} "
              f"(pool jobs={args.jobs}, state={args.state_dir})",
              flush=True)

    service.on_ready = _announce
    return asyncio.run(service.run())


def _cmd_loadgen(args) -> int:
    """Seeded mixed load against a running server; reports latency."""
    from .serve.loadgen import render_loadgen, run_loadgen

    report = run_loadgen(args.host, args.port, requests=args.requests,
                         concurrency=args.concurrency, seed=args.seed,
                         timeout_s=args.timeout, settle=not args.no_settle)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_loadgen(report))
    return EXIT_FAILURE if report["failed"] else EXIT_OK


def _cmd_freeze(args) -> int:
    from .harness import freeze

    path = args.file or freeze.DEFAULT_FILE
    if args.action == "record":
        fresh = freeze.record(path, only=args.only)
        statuses = sum(entry["runtime_s"] is None for entry in fresh.values())
        print(f"froze {len(fresh)} cells ({statuses} as a status) -> {path}")
    else:
        freeze.check(path, inject=args.inject)
    return EXIT_OK


def _cmd_outofcore(args) -> int:
    """The OOM -> ok demonstration (``repro outofcore demo``)."""
    from .harness.outofcore import run_outofcore_demo

    result = run_outofcore_demo(
        scale=args.scale, memory_limit_mb=args.memory_limit_mb,
        mapped_allowance_mb=args.mapped_allowance_mb,
        memory_budget_mb=args.memory_budget_mb,
        chunk_edges=args.chunk_edges, num_partitions=args.partitions,
        num_roots=args.roots, journal=args.journal)
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        print(f"Graph500 at scale {result['scale']} under a "
              f"{result['memory_limit_mb']:.0f} MB cap "
              f"(+{result['mapped_allowance_mb']:.0f} MB for shard maps):")
        print(f"  in-memory : {result['in_memory']['status']}")
        streamed = result["streamed"]
        value = streamed["value"] or {}
        extra = ""
        if value:
            extra = (f"  (peak RSS {value['peak_rss_mb']:.1f} MB, "
                     f"{value['harmonic_mean_teps']:.3e} TEPS, "
                     f"valid={value['all_valid']})")
        print(f"  streamed  : {streamed['status']}{extra}")
        if args.journal:
            print(f"  journal   : {args.journal}")
        print("TRANSITION: out-of-memory -> ok"
              if result["transition"] else
              "no transition (expected in-memory=out-of-memory, "
              "streamed=ok)")
    return EXIT_OK if result["transition"] else 1


def build_parser() -> argparse.ArgumentParser:
    from .algorithms.registry import ALGORITHMS, FRAMEWORKS
    from .harness.spec import ExperimentSpec
    from .harness.sweep import SweepRequest
    from .perf.attribution import AnalysisRequest

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Navigating the Maze of Graph "
                    "Analytics Frameworks' (SIGMOD 2014)",
        epilog=EXIT_CODES_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cell_commands = {}
    for name, func, text, options in (
            ("run", _cmd_run, "run one experiment cell", {}),
            ("trace", _cmd_trace,
             "flight-record one cell and export the trace",
             {"positional": ("dataset",)}),
            ("chaos", _cmd_chaos,
             "compare one cell fault-free vs under a fault schedule",
             {"required": ("faults",)})):
        command = cell_commands[name] = sub.add_parser(name, help=text)
        _request_flags(command, ExperimentSpec, **options)
        command.add_argument("--json", action="store_true",
                             help="print the result as JSON")
        command.set_defaults(func=func)
    cell_commands["trace"].add_argument(
        "--out", help="write Chrome trace_event JSON here")
    cell_commands["trace"].add_argument(
        "--csv", help="write per-superstep CSV here")

    sweep = sub.add_parser(
        "sweep",
        help="durable, resumable sweep over one paper artifact",
        description="Regenerate a table/figure through the resilient "
                    "sweep engine: every cell is isolated, journaled, "
                    "retried with backoff on unexpected errors and "
                    "quarantined when it keeps failing; DNF cells "
                    "(out-of-memory / unsupported / timeout / failed / "
                    "crashed) are results, so a completed sweep exits 0. "
                    "--jobs runs cells in supervised worker processes "
                    "that survive real crashes, hangs and memory "
                    "blow-ups; SIGINT/SIGTERM drains to the journal "
                    "(exit 8) and --resume finishes the rest.",
        epilog=EXIT_CODES_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _request_flags(sweep, SweepRequest)
    sweep.add_argument("--jobs", type=int, nargs="?", const=0, default=1,
                       help="worker processes for cell execution; bare "
                            "--jobs (or 0) means all cores, default 1 "
                            "runs serially. The journal is byte-identical "
                            "for every worker count")
    sweep.add_argument("--wall-deadline", type=float, default=None,
                       help="per-cell budget in REAL seconds; the "
                            "supervisor kills a worker that exceeds it "
                            "and records 'timeout' with wall_clock=true")
    sweep.add_argument("--max-crashes", type=int, default=2,
                       help="worker deaths one cell may cause before it "
                            "is quarantined as 'crashed' (default: 2)")
    sweep.add_argument("--memory-limit-mb", type=float, default=None,
                       help="per-worker address-space headroom in MB "
                            "(RLIMIT_AS); real allocation blow-ups "
                            "surface as 'out-of-memory' cells")
    sweep.add_argument("--real-chaos", metavar="SPEC",
                       default=os.environ.get("REPRO_CHAOS_REAL"),
                       help="inject real process faults, e.g. "
                            "'kill(cell=3); hang(cell=5, seconds=300); "
                            "oom(cell=2, mb=512)' (default: "
                            "$REPRO_CHAOS_REAL)")
    sweep.add_argument("--save", help="also save the data as JSON")
    sweep.add_argument("--trace-out",
                       help="write the sweep's Chrome trace_event JSON "
                            "(retry/quarantine/deadline instants) here")
    sweep.add_argument("--json", action="store_true",
                       help="print data + completeness report as JSON")
    sweep.set_defaults(func=_cmd_sweep)

    for kind in ("table", "figure"):
        artifact = sub.add_parser(kind, help=f"regenerate a paper {kind}")
        artifact.add_argument("number", type=int)
        artifact.add_argument("--save", help="also save the data as JSON")
        artifact.set_defaults(func=_cmd_artifact)

    sub.add_parser("datasets", help="list the dataset catalog") \
        .set_defaults(func=_cmd_datasets)
    sub.add_parser("frameworks", help="list framework profiles") \
        .set_defaults(func=_cmd_frameworks)

    g500 = sub.add_parser("graph500", help="Graph500 BFS protocol")
    g500.add_argument("--scale", type=int, default=12)
    g500.add_argument("--nodes", type=int, default=1)
    g500.add_argument("--framework", default="native", choices=FRAMEWORKS)
    g500.add_argument("--roots", type=int, default=8)
    g500.add_argument("--scale-factor", type=float, default=1.0)
    g500.add_argument("--streamed", action="store_true",
                      help="build the graph through the out-of-core "
                           "pipeline (byte-identical, bounded peak RSS)")
    g500.add_argument("--memory-budget-mb", type=float, default=None,
                      help="resident shard working-set cap for "
                           "--streamed runs")
    g500.add_argument("--chunk-edges", type=int, default=1 << 18,
                      help="edges per generation chunk for --streamed")
    g500.add_argument("--partitions", type=int, default=None,
                      help="shard partition count for --streamed "
                           "(default: sized for ~8 MB of ids each)")
    g500.set_defaults(func=_cmd_graph500)

    sub.add_parser("regenerate", help="regenerate every table and figure") \
        .set_defaults(func=_cmd_regenerate)

    freeze = sub.add_parser(
        "freeze",
        help="record or check the frozen simulated numbers",
        description="Every simulated number, frozen: record the cells to "
                    "one file, or re-record them in memory and compare "
                    "(any difference exits 7).",
        epilog=EXIT_CODES_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    freeze_sub = freeze.add_subparsers(dest="action", required=True)
    freeze_record = freeze_sub.add_parser(
        "record", help="freeze the cells and write the file")
    freeze_record.add_argument(
        "--only", metavar="GLOB",
        help="re-freeze just the keys this glob matches, e.g. "
             "'bfs/combblas/*'; the file's other records stay")
    freeze_check = freeze_sub.add_parser(
        "check", help="re-record the file's cells; exit 7 if any differs")
    freeze_check.add_argument(
        "--inject", metavar="PATTERN=FACTOR",
        help="multiply the runtime of every cell whose key contains "
             "PATTERN before comparing (the check's self-test), e.g. "
             "'bfs/giraph=2.0'")
    for action in (freeze_record, freeze_check):
        action.add_argument("--file", metavar="PATH",
                            help="the freeze file (default: "
                                 "tests/frozen_cells.json in the source "
                                 "tree)")
        action.set_defaults(func=_cmd_freeze)

    perf = sub.add_parser(
        "perf",
        help="rooflines, gap attribution, what-if advice",
        description="The repro.perf subsystem: compare runs against "
                    "hardware speed-of-light bounds (analyze) and rank "
                    "the Section 6.1 optimizations by predicted speedup "
                    "(advise).",
        epilog=EXIT_CODES_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)

    analyze = perf_sub.add_parser(
        "analyze",
        help="roofline ratios; plus the gap decomposition vs native "
             "for non-native frameworks")
    _request_flags(analyze, AnalysisRequest)
    analyze.add_argument("--json", action="store_true")
    analyze.set_defaults(func=_cmd_perf_analyze)

    advise = perf_sub.add_parser(
        "advise", help="rank the Figure 7 what-ifs for one workload")
    advise.add_argument("algorithm", choices=ALGORITHMS)
    advise.add_argument("--nodes", type=int, default=4)
    advise.add_argument("--json", action="store_true")
    advise.set_defaults(func=_cmd_perf_advise)

    cache = sub.add_parser(
        "cache",
        help="inspect or clear the content-addressed dataset cache",
        description="Manage the on-disk dataset cache "
                    "($REPRO_CACHE_DIR, default .repro_cache): list "
                    "entries, show aggregate stats, or delete entries "
                    "(--stale keeps ones matching the current code "
                    "version).")
    cache.add_argument("action", choices=("list", "clear", "stats"))
    cache.add_argument("--stale", action="store_true",
                       help="clear only entries recorded under a "
                            "different datagen code version")
    cache.add_argument("--json", action="store_true")
    cache.set_defaults(func=_cmd_cache)

    outofcore = sub.add_parser(
        "outofcore",
        help="out-of-core pipeline demonstrations",
        description="The OOM -> ok headline: run the Graph500 protocol "
                    "twice under one RLIMIT_AS cap — the monolithic "
                    "in-memory build records out-of-memory, the "
                    "streamed sharded build completes — and journal "
                    "the transition. Exits 0 only when the transition "
                    "holds.")
    outofcore.add_argument("action", choices=("demo",))
    outofcore.add_argument("--scale", type=int, default=18,
                           help="R-MAT scale (default 18: dense peaks at "
                                "~340 MB RSS, streamed at ~175 MB)")
    outofcore.add_argument("--memory-limit-mb", type=float, default=64.0,
                           help="per-worker anonymous headroom "
                                "(RLIMIT_AS above fork footprint)")
    outofcore.add_argument("--mapped-allowance-mb", type=float,
                           default=None,
                           help="extra address space for read-only "
                                "shard maps (default: 2x the on-disk "
                                "CSR size)")
    outofcore.add_argument("--memory-budget-mb", type=float, default=64.0,
                           help="resident shard working-set cap for "
                                "the streamed cell")
    outofcore.add_argument("--chunk-edges", type=int, default=1 << 18)
    outofcore.add_argument("--partitions", type=int, default=None)
    outofcore.add_argument("--roots", type=int, default=4)
    outofcore.add_argument("--journal", default=None,
                           help="write the two-cell sweep journal here")
    outofcore.add_argument("--json", action="store_true")
    outofcore.set_defaults(func=_cmd_outofcore)

    serve = sub.add_parser(
        "serve",
        help="long-lived async experiment service (JSON over HTTP)",
        description="Run the repro.serve daemon: hot pinned datasets, "
                    "one warm supervised worker pool shared across "
                    "requests, typed admission control, and a "
                    "journal-backed job registry under --state-dir. "
                    "SIGTERM drains gracefully — running sweeps stop "
                    "at the next cell boundary with their journals "
                    "flushed (exit 8 when anything was interrupted; "
                    "a restarted server resumes them byte-identically).",
        epilog=EXIT_CODES_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8750,
                       help="TCP port (0 picks a free one; default 8750)")
    serve.add_argument("--jobs", type=int, default=2,
                       help="supervised pool workers (default: 2)")
    serve.add_argument("--state-dir", default=".repro_serve",
                       help="job journal + auto sweep journals "
                            "(default: .repro_serve)")
    serve.add_argument("--max-jobs", type=int, default=72,
                       help="admission: jobs in flight, running or "
                            "queued (default: 72)")
    serve.add_argument("--max-deadline", type=float, default=600.0,
                       help="admission: largest accepted per-request "
                            "wall deadline in seconds (default: 600)")
    serve.add_argument("--memory-budget-mb", type=float, default=4096.0,
                       help="admission: total reservable memory budget "
                            "(default: 4096)")
    serve.add_argument("--no-warm", action="store_true",
                       help="skip pinning the gate datasets at startup")
    serve.set_defaults(func=_cmd_serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="deterministic seeded load generator for 'repro serve'",
        description="Drive a running server with a seeded mixed stream "
                    "(warm gate experiments, perf analyses, durable "
                    "sweeps) over concurrent keep-alive connections; "
                    "reports client-observed p50/p90/p99 latency and "
                    "throughput. The same seed always issues the same "
                    "request sequence.")
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=8750)
    loadgen.add_argument("--requests", type=int, default=200)
    loadgen.add_argument("--concurrency", type=int, default=8)
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--timeout", type=float, default=120.0,
                         help="per-request client timeout in seconds")
    loadgen.add_argument("--no-settle", action="store_true",
                         help="return without waiting for async (202) "
                              "jobs to finish on the server")
    loadgen.add_argument("--json", action="store_true")
    loadgen.set_defaults(func=_cmd_loadgen)

    rep = sub.add_parser("report",
                         help="full markdown reproduction report")
    rep.add_argument("--output", default="reproduction_report.md")
    rep.set_defaults(func=_cmd_report)
    return parser


def _cmd_report(args) -> int:
    from .harness.paper_report import FIDELITY_SECTION, generate_report
    from .harness.persistence import atomic_write_text

    text = generate_report()
    atomic_write_text(args.output, text)
    headline = next(line for line in text.splitlines()
                    if line.startswith(FIDELITY_SECTION))
    print(f"wrote {args.output}")
    print(headline.lstrip("# "))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as failure:
        # A typed outcome (a drained sweep, a --faults crash on a
        # fail-fast framework, a journal that needs --resume): a clean
        # message and the class's exit code, not a traceback.
        return _failure_exit(failure)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
