"""Table 6: multi-node slowdowns vs native (geomean over scales)."""

import numpy as np

from repro.harness import ARTIFACTS, table6


def test_table6(regenerate_resilient):
    data = regenerate_resilient(table6)
    print()
    print(ARTIFACTS["table6"].text(data))

    def slowdown(algorithm, framework):
        return data[algorithm][framework]["slowdown"]

    # Giraph is by far the slowest framework on every workload.
    for algorithm, cells in data.items():
        others = [slowdown(algorithm, f) for f in
                  ("combblas", "graphlab", "socialite")
                  if np.isfinite(slowdown(algorithm, f))]
        assert slowdown(algorithm, "giraph") > 3 * max(others), algorithm
        assert slowdown(algorithm, "giraph") > 25, algorithm

    # CombBLAS is competitive for PageRank (2.5x in the paper) ...
    assert slowdown("pagerank", "combblas") < 5
    # ... but the worst non-Giraph framework for triangle counting.
    tc = {f: slowdown("triangle_counting", f)
          for f in ("combblas", "graphlab", "socialite")}
    assert tc["combblas"] == max(tc.values())

    # SociaLite is best-in-class for multi-node triangle counting
    # ("within 2x of native" in the paper).
    assert tc["socialite"] <= min(tc.values()) * 1.25
    assert tc["socialite"] < 4.0
