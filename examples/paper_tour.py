"""A guided tour: every headline claim of the paper, checked live.

Walks the SIGMOD 2014 paper's main findings one by one, regenerating
each on small proxies and printing claim vs. measurement. A compressed
version of the full benchmark suite, sized to finish in ~2 minutes.

Run:  python examples/paper_tour.py
"""

import numpy as np

from repro.datagen import rmat_graph, rmat_triangle_graph
from repro.frameworks.native import NativeOptions
from repro.harness import ExperimentSpec, run, table7
from repro.harness.datasets import weak_scaling_dataset


def check(label, claim, measured, passed):
    status = "reproduced" if passed else "DIVERGES"
    print(f"  [{status:>10}] {label}")
    print(f"               paper: {claim}")
    print(f"               here : {measured}\n")


def main():
    print("=" * 72)
    print("Tour of 'Navigating the Maze of Graph Analytics Frameworks'")
    print("=" * 72 + "\n")

    # 1. The Ninja gap.
    print("1. The Ninja gap (abstract): 2-30x for most frameworks, up to")
    print("   560x for Giraph.\n")
    graph = rmat_graph(scale=12, edge_factor=16, seed=1)
    native = run(ExperimentSpec("pagerank", "native", graph, nodes=1,
                                scale_factor=5000.0, params={"iterations": 3}))
    gaps = {}
    for framework in ("combblas", "graphlab", "socialite", "giraph",
                      "galois"):
        cell = run(ExperimentSpec("pagerank", framework, graph, nodes=1,
                                  scale_factor=5000.0,
                                  params={"iterations": 3}))
        gaps[framework] = cell.runtime() / native.runtime()
    measured = ", ".join(f"{k} {v:.1f}x" for k, v in gaps.items())
    check("single-node PageRank gaps", "2-30x; Giraph far beyond",
          measured,
          all(1 <= v < 40 for k, v in gaps.items() if k != "giraph")
          and gaps["giraph"] > 20)

    # 2. Galois nearly native.
    check("Galois close to native (Table 5: 1.1-1.2x for PageRank)",
          "1.2x", f"{gaps['galois']:.2f}x", gaps["galois"] < 1.6)

    # 3. CombBLAS triangle-counting OOM.
    from repro.harness.datasets import scale_factor_for

    tc_graph = rmat_triangle_graph(scale=13, edge_factor=18, seed=2)
    tc = run(ExperimentSpec(
        "triangle_counting", "combblas", tc_graph, nodes=1,
        scale_factor=scale_factor_for("triangle_counting", 85_000_000,
                                      tc_graph.num_edges)))
    check("CombBLAS runs out of memory on real-world triangle counting",
          "OOM while computing the A^2 product",
          tc.status, tc.status == "out-of-memory")

    # 4. SociaLite's network fix (Table 7).
    t7 = table7()
    check("SociaLite multi-socket speedup (Table 7)",
          "PageRank 2.4x, TC 1.6x",
          f"PageRank {t7['pagerank']['speedup']:.1f}x, "
          f"TC {t7['triangle_counting']['speedup']:.1f}x",
          t7["pagerank"]["speedup"] > 1.6)

    # 5. Compression (Section 6.1.2).
    data, factor = weak_scaling_dataset("pagerank", 4)
    on = run(ExperimentSpec("pagerank", "native", data, nodes=4,
                            scale_factor=factor, params={"iterations": 2}))
    ratio = on.result.extras["compression_ratio"]
    check("PageRank message compression", "~2.2x byte reduction",
          f"{ratio:.1f}x on the real encoded id streams",
          1.5 < ratio < 3.5)

    # 6. Giraph's worker occupancy (Section 5.4).
    giraph = run(ExperimentSpec("pagerank", "giraph", data, nodes=4,
                                scale_factor=factor, params={"iterations": 2}))
    util = giraph.metrics().cpu_utilization
    check("Giraph CPU utilization capped by 4/24 workers", "~16%",
          f"{100 * util:.0f}%", util <= 0.17)

    # 7. The bit-vector data structure (Section 6.1.2).
    fast = run(ExperimentSpec("triangle_counting", "native", tc_graph, nodes=1,
                              scale_factor=1e4,
                              params={"options": NativeOptions()}))
    slow = run(ExperimentSpec(
        "triangle_counting", "native", tc_graph, nodes=1, scale_factor=1e4,
        params={"options": NativeOptions(bitvector=False)}))
    speedup = slow.runtime() / fast.runtime()
    check("bit-vector neighbor lookups for triangle counting", "~2.2x",
          f"{speedup:.1f}x", 1.3 < speedup < 4.0)

    print("Tour complete. The full regeneration lives in benchmarks/ "
          "(pytest benchmarks/ --benchmark-only).")


if __name__ == "__main__":
    main()
