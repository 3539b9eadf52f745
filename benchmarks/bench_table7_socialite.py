"""Table 7: SociaLite speedups from the network optimizations (4 nodes)."""

from repro.harness import ARTIFACTS, table7
from repro.harness.fidelity import assert_rows


def test_table7(regenerate):
    data = regenerate(table7)
    print()
    print(ARTIFACTS["table7"].text(data))
    # Both speed-ups, and PageRank (more network-bound) gaining more.
    assert_rows("table7", data)
