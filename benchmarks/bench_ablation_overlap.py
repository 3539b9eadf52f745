"""Ablation: compute/communication overlap on network-bound algorithms.

"Overlap of computation and communication ... has been shown to improve
performance of various optimized implementations [28]. Native code for
BFS, pagerank and Triangle Counting all benefit between 1.2-2x."
"""

from repro.frameworks.native import NativeOptions
from repro.harness import run_cell


def measure(nodes=4):
    rows = {}
    for algorithm in ("pagerank", "triangle_counting"):
        on, off = (
            run_cell({"algorithm": algorithm, "framework": "native",
                      "nodes": nodes}, params={"options": options})
            for options in (NativeOptions(), NativeOptions(overlap=False)))
        rows[algorithm] = {
            "overlap_s": on.runtime(),
            "serial_s": off.runtime(),
            "speedup": off.runtime() / on.runtime(),
            "footprint_ratio": (
                off.result.metrics.memory_footprint_bytes
                / max(on.result.metrics.memory_footprint_bytes, 1.0)
            ),
        }
    return rows


def test_overlap_benefit(regenerate):
    rows = regenerate(measure)
    print()
    print("Native compute/communication overlap at 4 nodes:")
    for algorithm, row in rows.items():
        print(f"  {algorithm:<20} overlap={row['overlap_s']:.3f}s "
              f"serial={row['serial_s']:.3f}s "
              f"speedup={row['speedup']:.2f}x "
              f"buffered-memory-ratio={row['footprint_ratio']:.1f}x")

    for algorithm, row in rows.items():
        # Paper: 1.2-2x benefit on the network-bound algorithms.
        assert 1.1 < row["speedup"] < 2.5, algorithm
    # Blocking also bounds triangle counting's buffer memory.
    assert rows["triangle_counting"]["footprint_ratio"] >= 1.0
