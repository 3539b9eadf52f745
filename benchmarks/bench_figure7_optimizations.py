"""Figure 7: effect of optimizations on the native implementations."""

from repro.harness import ARTIFACTS, figure7


def test_figure7(regenerate):
    data = regenerate(figure7)
    print()
    print(ARTIFACTS["figure7"].text(data))

    for algorithm, ladder in data.items():
        labels = [label for label, _ in ladder]
        speedups = [speedup for _, speedup in ladder]
        assert labels[0] == "baseline"
        assert speedups[0] == 1.0
        # Cumulative: each added optimization never slows things down
        # (within rounding).
        for before, after in zip(speedups, speedups[1:]):
            assert after >= before * 0.99, (algorithm, labels)
        # The full stack is worth a substantial factor (the paper's
        # Figure 7 tops out around 12-16x for PageRank and ~10x for BFS).
        assert speedups[-1] > 3.0, algorithm

    # Prefetching alone is worth >1.5x on PageRank (the gather is the
    # dominant random access).
    pagerank = dict(data["pagerank"])
    assert pagerank["+ s/w prefetching"] > 1.5

    # The BFS data-structure step (bit-vector) contributes on BFS.
    bfs = dict(data["bfs"])
    assert bfs["+ data structure opt."] >= bfs["+ overlap comp. and comm."]
