"""Table 6: multi-node slowdowns vs native (geomean over scales)."""

from repro.harness import ARTIFACTS, table6
from repro.harness.fidelity import assert_rows


def test_table6(regenerate_resilient):
    data = regenerate_resilient(table6)
    print()
    print(ARTIFACTS["table6"].text(data))
    # The paper's 16 slowdowns, native the reference, Giraph slowest, and
    # triangle counting's order: SociaLite best, CombBLAS worst short of
    # Giraph.
    assert_rows("table6", data)
