"""Figure 6: CPU utilization, network BW, memory footprint, bytes sent."""

from repro.harness import ARTIFACTS, figure6
from repro.harness.fidelity import assert_rows


def test_figure6(regenerate):
    data = regenerate(figure6)
    print()
    print(ARTIFACTS["figure6"].text(data))

    # Giraph's CPU cap and every framework's peak network rate.
    assert_rows("figure6", data)

    for algorithm, panel in data.items():
        native = panel["native"]
        giraph = panel["giraph"]
        assert native is not None and giraph is not None

        completed = [cell for cell in panel.values() if cell]
        # "Giraph has especially low CPU utilization across the board":
        # below every framework that completed, native and CombBLAS too.
        assert giraph["cpu_utilization"] == min(
            cell["cpu_utilization"] for cell in completed)
        # Peak network rate ordering: MPI stacks highest, Giraph lowest.
        peaks = [cell["peak_network_bw"] for cell in completed]
        assert native["peak_network_bw"] == max(peaks)
        assert giraph["peak_network_bw"] == min(peaks)

        # Bytes sent are normalized to Giraph = 100.
        assert abs(giraph["network_bytes_sent"] - 100.0) < 1e-6
