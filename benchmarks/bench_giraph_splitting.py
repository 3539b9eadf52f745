"""Section 6.1.3: Giraph superstep splitting vs peak message memory.

"We perform a conceptually similar optimization at the Giraph code level
by breaking up each superstep (iteration) into 100 smaller supersteps
... This results in much smaller memory footprint (since only 1%
messages are created at any time), at the cost of finer grained
synchronization."
"""

from repro.algorithms.registry import runner
from repro.cluster import Cluster, paper_cluster
from repro.datagen import rmat_triangle_graph


def sweep_splits(splits_list=(1, 10, 100)):
    graph = rmat_triangle_graph(scale=10, edge_factor=8, seed=99)
    rows = []
    for splits in splits_list:
        cluster = Cluster(paper_cluster(4), enforce_memory=False)
        result = runner("triangle_counting", "giraph")(graph, cluster,
                                                       superstep_splits=splits)
        rows.append({
            "splits": splits,
            "buffer_bytes": cluster.memory(0).breakdown().get(
                "message-buffers", 0.0),
            "total_time_s": result.total_time_s,
        })
    return rows


def test_giraph_superstep_splitting(regenerate):
    rows = regenerate(sweep_splits)
    print()
    print("Giraph triangle counting: superstep splits vs buffer memory")
    for row in rows:
        print(f"  splits={row['splits']:>4}  "
              f"buffers/node={row['buffer_bytes']:>12.0f} B  "
              f"time={row['total_time_s']:8.1f} s")

    by_splits = {row["splits"]: row for row in rows}
    # 100 splits shrink the buffer ~100x ...
    assert by_splits[100]["buffer_bytes"] < \
        0.02 * by_splits[1]["buffer_bytes"]
    # ... at the cost of ~100 Hadoop superstep overheads.
    assert by_splits[100]["total_time_s"] > by_splits[1]["total_time_s"]
