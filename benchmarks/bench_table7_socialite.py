"""Table 7: SociaLite speedups from the network optimizations (4 nodes)."""

from repro.harness import ARTIFACTS, table7


def test_table7(regenerate):
    data = regenerate(table7)
    print()
    print(ARTIFACTS["table7"].text(data))

    # Paper: PageRank 2.4x, triangle counting 1.6x from switching the
    # published single-socket stack to multiple sockets per worker pair.
    assert 1.6 <= data["pagerank"]["speedup"] <= 3.2
    assert 1.2 <= data["triangle_counting"]["speedup"] <= 2.6
    # PageRank, being more network-bound, gains more than TC.
    assert data["pagerank"]["speedup"] > data["triangle_counting"]["speedup"]
