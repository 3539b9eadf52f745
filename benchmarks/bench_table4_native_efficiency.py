"""Table 4: efficiency achieved by the native implementations."""

from repro.harness import ARTIFACTS, table4
from repro.harness.fidelity import assert_rows


def test_table4(regenerate):
    data = regenerate(table4)
    print()
    print(ARTIFACTS["table4"].text(data))
    # Bound class, achieved GB/s and efficiency of the paper's eight cells.
    assert_rows("table4", data)

    # One node has no network on its critical path, and no cell achieves
    # more than its hardware limit.
    for algorithm, per_nodes in data.items():
        assert per_nodes[1]["network_fraction"] == 0.0, algorithm
        for nodes, cell in per_nodes.items():
            assert cell["efficiency"] <= 1.0, (algorithm, nodes)

    # At 4 nodes the network becomes a first-order cost for PageRank and
    # triangle counting (the paper's network-bound pair; the robust form
    # their four `gap` rows lean on), and stays minor for BFS and CF (the
    # paper's memory-bound pair).
    for network_heavy in ("pagerank", "triangle_counting"):
        assert data[network_heavy][4]["network_fraction"] > 0.2, network_heavy
    for memory_bound in ("bfs", "collaborative_filtering"):
        assert data[memory_bound][4]["network_fraction"] < \
            min(data["pagerank"][4]["network_fraction"],
                data["triangle_counting"][4]["network_fraction"])

    # PageRank is the most efficient single-node workload.
    assert data["triangle_counting"][1]["efficiency"] < \
        data["pagerank"][1]["efficiency"]
