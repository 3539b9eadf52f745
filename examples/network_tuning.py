"""Reproduce the SociaLite network-tuning case study (Section 6.1.3).

The paper took the published SociaLite (one TCP socket per worker pair,
~0.5 GB/s) and rebuilt its communication layer with multiple sockets
(~2 GB/s), speeding network-bound algorithms up 1.6-2.4x. This example
replays that engineering exercise on the simulator and shows how far the
result still sits from the MPI-class fabric native code uses.

Run:  python examples/network_tuning.py
"""

from repro.cluster import Cluster, paper_cluster
from repro.frameworks.datalog import socialite
from repro.harness import ExperimentSpec, run
from repro.harness.datasets import weak_scaling_dataset


def main():
    nodes = 4
    print(f"PageRank on {nodes} simulated nodes "
          "(weak-scaling dataset, 128M-edge/node equivalent):\n")

    data, factor = weak_scaling_dataset("pagerank", nodes)

    published = socialite.pagerank(
        data, Cluster(paper_cluster(nodes), scale_factor=factor),
        iterations=3, optimized=False,
    )
    optimized = socialite.pagerank(
        data, Cluster(paper_cluster(nodes), scale_factor=factor),
        iterations=3, optimized=True,
    )
    native = run(ExperimentSpec("pagerank", "native", data, nodes=nodes,
                                scale_factor=factor, params={"iterations": 3}))

    rows = [
        ("SociaLite (published, 1 socket)", published),
        ("SociaLite (multi-socket fix)", optimized),
    ]
    for label, result in rows:
        metrics = result.metrics
        print(f"{label}:")
        print(f"  time/iteration    : {result.time_per_iteration_s:.3f} s")
        print(f"  peak network rate : "
              f"{metrics.peak_network_bandwidth / 1e9:.2f} GB/s")
        print(f"  network share     : {100 * metrics.network_fraction:.0f}% "
              "of the critical path\n")

    speedup = (published.time_per_iteration_s
               / optimized.time_per_iteration_s)
    gap = optimized.time_per_iteration_s / native.runtime()
    print(f"Multi-socket speedup: {speedup:.1f}x "
          "(paper Table 7: 2.4x for PageRank)")
    print(f"Remaining gap to native-on-MPI: {gap:.1f}x — the paper's "
          "roadmap says fixing the last 3-4x of network bandwidth would "
          "bring SociaLite within 5x of native (Section 6.2).")


if __name__ == "__main__":
    main()
