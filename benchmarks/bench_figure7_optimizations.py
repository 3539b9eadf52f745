"""Figure 7: effect of optimizations on the native implementations."""

from repro.harness import ARTIFACTS, figure7
from repro.harness.fidelity import assert_rows


def test_figure7(regenerate):
    data = regenerate(figure7)
    print()
    print(ARTIFACTS["figure7"].text(data))

    # The full stack's factor, overlap's and the bit-vector's steps, and
    # prefetching as PageRank's largest (the gather is the dominant
    # random access).
    assert_rows("figure7", data)

    for algorithm, ladder in data.items():
        labels = [label for label, _ in ladder]
        speedups = [speedup for _, speedup in ladder]
        assert ladder[0] == ("baseline", 1.0)
        # Cumulative: each added optimization never slows things down
        # (within rounding).
        for before, after in zip(speedups, speedups[1:]):
            assert after >= before * 0.99, (algorithm, labels)

    # The BFS data-structure step (bit-vector) contributes on BFS.
    bfs = dict(data["bfs"])
    assert bfs["+ data structure opt."] >= bfs["+ overlap comp. and comm."]
