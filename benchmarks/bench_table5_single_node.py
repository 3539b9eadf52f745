"""Table 5: single-node slowdowns vs native (geomean over datasets)."""

from repro.harness import ARTIFACTS, table5
from repro.harness.fidelity import assert_rows


def test_table5(regenerate_resilient):
    data = regenerate_resilient(table5)
    print()
    print(ARTIFACTS["table5"].text(data))
    # The paper's 20 slowdowns, native the reference, Galois closest to
    # it and Giraph slowest on every workload, CombBLAS out of memory on
    # real-world triangle counting.
    assert_rows("table5", data)
