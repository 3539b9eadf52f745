"""Strong scaling (extension study): fixed graph, 1-16 nodes."""

from repro.harness.strong_scaling import parallel_efficiency, strong_scaling


def test_strong_scaling_pagerank(regenerate):
    data = regenerate(
        strong_scaling,
        "pagerank",
        ("native", "combblas", "graphlab", "giraph"),
        (1, 2, 4, 8, 16),
    )
    print()
    print("Strong scaling, PageRank on a fixed RMAT graph (seconds):")
    node_counts = sorted(next(iter(data.values())).keys())
    header = "framework".ljust(12) + "".join(f"{n}n".rjust(10)
                                             for n in node_counts)
    print(" " + header)
    for framework, curve in data.items():
        row = " " + framework.ljust(12)
        for nodes in node_counts:
            value = curve[nodes]
            row += (value[:9].rjust(10) if isinstance(value, str)
                    else f"{value:.3g}".rjust(10))
        print(row)
        eff = parallel_efficiency(curve)
        if eff:
            print(f"   efficiency @max nodes: {eff[max(eff)]:.2f}")

    native_eff = parallel_efficiency(data["native"])
    giraph_eff = parallel_efficiency(data["giraph"])
    # Native strong-scales usefully to 16 nodes ...
    assert native_eff[16] > 0.3
    # ... Giraph cannot: fixed superstep overheads dominate.
    assert giraph_eff[16] < native_eff[16]
    # Adding nodes never helps Giraph enough to beat its 1-node run by
    # the ideal factor.
    assert data["giraph"][16] > data["giraph"][1] / 16
