"""Find the Figure 6 Giraph-vs-native gap inside an exported trace.

The paper reports Giraph running orders of magnitude slower than native
code at near-zero CPU utilization (Figure 6) — the time goes to
framework overhead, not to the algorithm. An aggregate number says
*that*; a flight-recorder trace says *where*. This example runs the same
PageRank through native and Giraph with tracing on, exports a Chrome
trace, and then answers from the recorded spans alone: how much of each
superstep was compute, how much was communication, and how much was
per-superstep overhead that native code simply does not pay.

Run:  python examples/trace_bottleneck.py
"""

from repro.datagen import rmat_graph
from repro.harness import ExperimentSpec, run
from repro.observability import Tracer, render_summary_tree, \
    write_chrome_trace


def superstep_decomposition(tracer):
    """(compute_s, comm_s, overhead_s) summed over the trace's supersteps."""
    compute = comm = overhead = 0.0
    for span in tracer.spans_named("superstep"):
        compute += span.attrs["compute_s"]
        comm += span.attrs["comm_s"]
        overhead += span.attrs["overhead_s"]
    return compute, comm, overhead


def main():
    graph = rmat_graph(scale=12, edge_factor=16, seed=6)
    print(f"PageRank on {graph.num_vertices:,} vertices / "
          f"{graph.num_edges:,} edges, 4 simulated nodes, "
          f"paper-scale factor 2000\n")

    runs = {}
    for framework in ("native", "giraph"):
        spec = ExperimentSpec("pagerank", framework, graph, nodes=4,
                              scale_factor=2000.0, params={"iterations": 3})
        runs[framework] = run(spec, trace=Tracer())

    for framework, cell in runs.items():
        tracer = cell.trace
        print(f"=== {framework} ({cell.metrics().total_time_s:.3f}s "
              f"simulated) ===")
        print(render_summary_tree(tracer, max_depth=4))
        path = f"trace_{framework}.json"
        write_chrome_trace(tracer, path)
        print(f"-> wrote {path} (open in chrome://tracing)\n")

    # The gap, answered from the spans alone -----------------------------
    decomp = {name: superstep_decomposition(cell.trace)
              for name, cell in runs.items()}
    print(f"{'phase':<12} {'native':>12} {'giraph':>12} {'ratio':>9}")
    for i, phase in enumerate(("compute", "comm", "overhead")):
        native_s, giraph_s = decomp["native"][i], decomp["giraph"][i]
        ratio = f"{giraph_s / native_s:.1f}x" if native_s > 0 else "n/a"
        print(f"{phase:<12} {native_s:>11.4f}s {giraph_s:>11.4f}s "
              f"{ratio:>9}")

    gap = runs["giraph"].runtime() / runs["native"].runtime()
    _, _, giraph_overhead = decomp["giraph"]
    share = giraph_overhead / runs["giraph"].metrics().total_time_s
    print(f"\nGiraph is {gap:.0f}x slower per iteration; "
          f"{100 * share:.0f}% of its wall clock is fixed per-superstep "
          f"overhead\n(JVM/Hadoop coordination the native kernel does not "
          f"pay) — the Figure 6 gap,\nread directly off the trace.")


if __name__ == "__main__":
    main()
