"""Perf model: roofline band, gap attribution, what-if advisor.

Regenerates the three ``repro.perf`` artifacts once each and asserts
the paper-shape invariants the subsystem is built around: the native
kernels land inside the paper's "within 2-2.5x of the hardware bound"
band, Giraph's BFS gap factors multiply back to the measured gap
exactly, and the advisor's combined what-if is at least as good as any
single optimization (Figure 7's end state).
"""

from repro import perf
from repro.harness import report as harness_report  # noqa: F401  (parity import)


def perf_model():
    """Regenerate roofline table + Giraph BFS attribution + BFS advice."""
    return {
        "roofline": perf.roofline_table("native"),
        "attribution": perf.attribute_cell("bfs", "giraph", nodes=4).to_dict(),
        "advice": [a.to_dict() for a in perf.advise_cell("bfs", nodes=4)],
    }


def test_perf_model(regenerate):
    data = regenerate(perf_model)
    print()
    print(perf.render_roofline(data["roofline"],
                               title="Roofline: native vs hardware bounds"))

    # Table 4's argument, made quantitative: every native cell achieves
    # within the paper's 2-2.5x-of-bound band (ratio >= 1 by construction).
    for algorithm, per_nodes in data["roofline"].items():
        for nodes, cell in per_nodes.items():
            assert cell["status"] == "ok", (algorithm, nodes)
            assert 1.0 <= cell["ratio"] <= 2.5, (algorithm, nodes, cell)

    # The attribution is an exact telescoping decomposition: the product
    # of the factors IS the measured gap (acceptance asks within 10%).
    attribution = data["attribution"]
    product = 1.0
    for factor in attribution["factors"]:
        assert factor["factor"] >= 1.0 - 1e-9, factor
        product *= factor["factor"]
    assert abs(product / attribution["gap"] - 1.0) < 0.10
    assert attribution["gap"] > 100  # Giraph BFS: the paper's worst cell

    # Advisor: the all-options run dominates every single toggle, and
    # no simulated optimization is predicted to slow the baseline down.
    advice = {a["option"]: a["speedup"] for a in data["advice"]}
    assert advice["all"] >= max(v for k, v in advice.items() if k != "all")
    assert all(v >= 1.0 for v in advice.values()), advice
