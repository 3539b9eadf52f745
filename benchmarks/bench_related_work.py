"""Section 7: placing GPS and GraphX on the paper's spectrum.

The paper anchors both systems against its own measurements: "GPS with
LALP achieves a 12x performance improvement compared to Giraph" and
"GraphX is about 7x slower than GraphLab for pagerank".
"""

from repro.harness import ExperimentSpec, run
from repro.harness.datasets import weak_scaling_dataset
from repro.harness.fidelity import assert_rows, render


def related_work_pagerank(nodes=4):
    data, factor = weak_scaling_dataset("pagerank", nodes)
    runtimes = {}
    for framework in ("native", "graphlab", "giraph", "gps", "graphx"):
        cell = run(ExperimentSpec("pagerank", framework, data, nodes=nodes,
                                  scale_factor=factor,
                                  params={"iterations": 3}))
        runtimes[framework] = cell.runtime()
    return runtimes


def test_related_work_anchors(regenerate):
    runtimes = regenerate(related_work_pagerank)
    native = runtimes["native"]
    print()
    print("PageRank at 4 nodes, related-work systems included:")
    for framework, runtime in sorted(runtimes.items(), key=lambda kv: kv[1]):
        print(f"  {framework:<10} {runtime:8.3f} s  "
              f"({runtime / native:6.1f}x native)")

    # The paper's two anchors: GPS over Giraph, GraphX under GraphLab.
    print(render(assert_rows("related_work", runtimes)))
    # "comparable to that of the frameworks studied (but much slower
    # than native code)".
    assert runtimes["gps"] > 3 * native
    assert runtimes["gps"] < runtimes["giraph"]
    # "at the slower end of the spectrum of frameworks considered".
    assert runtimes["graphx"] > runtimes["graphlab"]
    assert runtimes["graphx"] < runtimes["giraph"]
