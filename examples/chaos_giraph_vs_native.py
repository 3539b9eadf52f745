"""What fault tolerance costs: Giraph vs native under a node crash.

The frameworks of the study sit at two ends of a fault-tolerance trade.
Giraph inherits Hadoop's superstep machinery — periodic checkpoints to
disk, restore + replay on node loss — and survives a crash at the price
of checkpoint writes on *every* run and replay time on the bad ones.
The native baselines (and GraphLab, Galois) spend nothing on the happy
path and simply die. This example makes the trade measurable: the same
BFS, the same seeded fault schedule, one framework per end.

Run:  python examples/chaos_giraph_vs_native.py
"""

import numpy as np

from repro.datagen import rmat_graph
from repro.errors import NodeFailure
from repro.harness import ExperimentSpec, run

SCHEDULE = "crash(node=2, superstep=3); drop(p=0.02)"


def main():
    graph = rmat_graph(scale=10, edge_factor=16, seed=4, directed=False)
    print(f"BFS on {graph.num_vertices:,} vertices / "
          f"{graph.num_edges:,} edges, 4 simulated nodes")
    print(f"fault schedule: {SCHEDULE}\n")

    # -- Giraph: checkpoint every 2 supersteps, recover, keep going ------
    clean = run(ExperimentSpec("bfs", "giraph", graph, nodes=4))
    chaos = run(ExperimentSpec("bfs", "giraph", graph, nodes=4,
                               faults=SCHEDULE))
    stats = chaos.recovery

    print("=== giraph (checkpoint/recover) ===")
    print(f"fault-free : {clean.runtime():.4f} s")
    print(f"under fault: {chaos.runtime():.4f} s "
          f"({chaos.runtime() / clean.runtime():.2f}x)")
    print(f"  checkpoints written : {stats.checkpoints_written} "
          f"({stats.checkpoint_time_s:.4f} s)")
    print(f"  crash recovery      : {stats.recovery_time_s:.4f} s "
          f"(restore {stats.restore_time_s:.4f} + "
          f"replay {stats.replay_time_s:.4f} + detection)")
    print(f"  dropped messages    : {stats.messages_dropped} "
          f"(retry stalls {stats.retry_time_s:.4f} s)")
    same = np.array_equal(clean.result.values, chaos.result.values)
    print(f"  BFS parents correct : {same}  <- recovery replays, so the "
          "answer is exact")

    print("\nfault timeline:")
    for event in stats.events:
        attrs = ", ".join(f"{key}={value}" for key, value in event.items()
                          if key not in ("kind", "superstep"))
        print(f"  step {event['superstep']:>3}  {event['kind']:<14} {attrs}")

    # -- native: no checkpoints, no recovery, no survivors ---------------
    print("\n=== native (fail-fast) ===")
    try:
        run(ExperimentSpec("bfs", "native", graph, nodes=4, faults=SCHEDULE))
    except NodeFailure as failure:
        print(f"raised NodeFailure: node {failure.node} at superstep "
              f"{failure.superstep}")
        print("native code pays zero fault-tolerance overhead on the happy "
              "path\nand loses the whole run on the bad one — the other end "
              "of the trade.")


if __name__ == "__main__":
    main()
