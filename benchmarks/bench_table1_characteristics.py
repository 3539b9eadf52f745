"""Table 1: diversity in the characteristics of the chosen algorithms."""

from repro.harness import ARTIFACTS, table1


def test_table1(regenerate):
    rows = regenerate(table1)
    print()
    print(ARTIFACTS["table1"].text(rows))

    by_name = {row["algorithm"]: row for row in rows}
    # PageRank: 8-byte double messages, all vertices active.
    assert by_name["PageRank"]["message_bytes_per_edge"] == 8
    assert by_name["PageRank"]["vertex_active"] == "All iterations"
    # BFS: 4-byte int messages, only the frontier active.
    assert by_name["Breadth First Search"]["message_bytes_per_edge"] == 4
    assert by_name["Breadth First Search"]["vertex_active"] == \
        "Some iterations"
    # CF: 8K-byte vector messages at the paper's K.
    assert by_name["Collaborative Filtering"]["message_bytes_per_edge"] == 8192
    # Triangle counting: variable message sizes, non-iterative.
    low, high = by_name["Triangle Counting"]["message_bytes_per_edge"]
    assert low == 0 and high > 100
    assert by_name["Triangle Counting"]["vertex_active"] == "Non-iterative"
