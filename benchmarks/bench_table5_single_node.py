"""Table 5: single-node slowdowns vs native (geomean over datasets)."""

import numpy as np

from repro.harness import ARTIFACTS, table5


def test_table5(regenerate_resilient):
    data = regenerate_resilient(table5)
    print()
    print(ARTIFACTS["table5"].text(data))

    def slowdown(algorithm, framework):
        return data[algorithm][framework]["slowdown"]

    # Native is the reference: every completed framework is >= ~1x.
    for algorithm, cells in data.items():
        for framework, cell in cells.items():
            if np.isfinite(cell["slowdown"]):
                assert cell["slowdown"] >= 0.95, (algorithm, framework)

    # Galois is closest to native on every workload (1.1-2.5x in paper).
    for algorithm in data:
        others = [slowdown(algorithm, f) for f in
                  ("combblas", "graphlab", "socialite", "giraph")
                  if np.isfinite(slowdown(algorithm, f))]
        assert slowdown(algorithm, "galois") <= min(others) * 1.5, algorithm
        assert slowdown(algorithm, "galois") < 3.0

    # Giraph is 1-3 orders of magnitude off on every workload.
    for algorithm in data:
        assert slowdown(algorithm, "giraph") > 20, algorithm

    # CombBLAS runs out of memory on the real-world triangle-counting
    # inputs ("while computing the A^2 matrix product").
    tc_statuses = data["triangle_counting"]["combblas"]["statuses"]
    assert tc_statuses.count("out-of-memory") >= 2

    # CombBLAS is competitive on PageRank (1.9x in the paper).
    assert slowdown("pagerank", "combblas") < 3.5
