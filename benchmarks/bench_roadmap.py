"""Section 6.2: the framework-improvement roadmap, applied and verified.

The paper predicts how far each recommended change closes the gap to
native; this bench applies the changes and checks every prediction.
"""

from repro.frameworks.roadmap import roadmap_outcomes


def test_roadmap_predictions_hold(regenerate):
    outcomes = regenerate(roadmap_outcomes)
    print()
    print("Section 6.2 roadmap, applied (slowdown vs native at 4 nodes):")
    header = (f"  {'framework':<12}{'workload':<12}{'stock':>8}"
              f"{'roadmap':>9}{'paper bound':>13}")
    print(header)
    for framework, row in outcomes.items():
        print(f"  {framework:<12}{row['algorithm']:<12}"
              f"{row['stock']:>7.1f}x{row['roadmap']:>8.1f}x"
              f"{row['predicted']:>11.0f}x")

    for framework, row in outcomes.items():
        # Every applied recommendation improves on stock ...
        assert row["roadmap"] < row["stock"] * 1.05, framework
        # ... and lands within the paper's predicted bound.
        assert row["roadmap"] <= row["predicted"], framework

    # Giraph's is the most dramatic fix (10x network + 4x workers).
    giraph = outcomes["giraph"]
    assert giraph["stock"] / giraph["roadmap"] > 5
