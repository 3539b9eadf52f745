"""Figure 4: weak scaling on synthetic graphs, 1-64 nodes."""

from repro.harness import ARTIFACTS, figure4


def test_figure4(regenerate):
    data = regenerate(figure4)
    print()
    print(ARTIFACTS["figure4"].text(data))

    # Native stays within a modest envelope across 1-64 nodes wherever
    # it is memory bound, and grows gently when network bound — the
    # paper's "horizontal lines represent perfect scaling".
    for algorithm, curves in data.items():
        native = curves["native"]
        values = [v for v in native.values() if isinstance(v, float)]
        assert len(values) == len(native)
        assert max(values) < 30 * min(values), algorithm

    # Galois never appears (single-node framework).
    for curves in data.values():
        assert "galois" not in curves

    # Giraph is the slowest framework at every completed scale point.
    for algorithm, curves in data.items():
        for nodes, value in curves["giraph"].items():
            if not isinstance(value, float):
                continue
            for other in ("native", "combblas", "graphlab", "socialite"):
                other_value = curves[other].get(nodes)
                if isinstance(other_value, float):
                    assert value > other_value, (algorithm, nodes, other)

    # CombBLAS only runs on grids its square-process constraint allows —
    # it must still produce results across the sweep (the ProcessGrid
    # picks the largest square), so no missing points.
    for algorithm, curves in data.items():
        assert len(curves["combblas"]) == len(curves["native"])
