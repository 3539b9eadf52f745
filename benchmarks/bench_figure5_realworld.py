"""Figure 5: large real-world graphs (Twitter / Yahoo Music) multi-node."""

from repro.harness import ARTIFACTS, figure5
from repro.harness.fidelity import assert_rows


def test_figure5(regenerate):
    data = regenerate(figure5)
    print()
    print(ARTIFACTS["figure5"].text(data))

    # Configuration matches the paper: Twitter on 4 nodes except triangle
    # counting on 16; Yahoo Music on 4.
    assert data["pagerank"]["nodes"] == 4
    assert data["triangle_counting"]["nodes"] == 16
    assert data["triangle_counting"]["dataset"] == "twitter"
    assert data["collaborative_filtering"]["dataset"] == "yahoo_music"

    # CombBLAS runs out of memory on Twitter triangle counting ("this
    # data point is not plotted").
    assert_rows("figure5", data)

    # Native completes everywhere and is fastest.
    for algorithm, panel in data.items():
        runtimes = panel["runtimes"]
        assert isinstance(runtimes["native"], float)
        for framework, value in runtimes.items():
            if isinstance(value, float):
                assert value >= runtimes["native"] * 0.99, \
                    (algorithm, framework)

    # SociaLite beats GraphLab and Giraph on Twitter triangle counting
    # (it "performs best among our frameworks" there).
    tc = data["triangle_counting"]["runtimes"]
    completed = {f: v for f, v in tc.items()
                 if isinstance(v, float) and f != "native"}
    assert min(completed, key=completed.get) == "socialite"
