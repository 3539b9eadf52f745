"""Table 2: high-level comparison of the graph frameworks."""

from repro.harness import ARTIFACTS, table2


def test_table2(regenerate):
    rows = regenerate(table2)
    print()
    print(ARTIFACTS["table2"].text(rows))

    by_name = {row["framework"]: row for row in rows}
    assert by_name["Native"]["communication_layer"] == "mpi"
    assert by_name["CombBLAS"]["graph_partitioning"] == "2-D"
    assert by_name["GraphLab"]["programming_model"] == "vertex program"
    assert by_name["SociaLite"]["programming_model"] == "datalog"
    assert not by_name["Galois"]["multi_node"]
    assert by_name["Giraph"]["language"] == "Java"
    assert by_name["Giraph"]["communication_layer"] == "netty-hadoop"
