"""Extension study: hardware sensitivity of the framework bottlenecks.

Sweeps simulated network bandwidth for GraphLab's multi-node PageRank
(the paper's canonical network-bound case) and memory bandwidth for
native single-node PageRank (the canonical memory-bound case).
"""

import numpy as np

from repro.harness.datasets import weak_scaling_dataset
from repro.harness.sensitivity import diminishing_returns, sweep


def run_sweeps():
    data, factor = weak_scaling_dataset("pagerank", 4)
    network = sweep("pagerank", "graphlab", data, nodes=4, knob="link",
                    scale_factor=factor, iterations=3)
    data1, factor1 = weak_scaling_dataset("pagerank", 1)
    memory = sweep("pagerank", "native", data1, nodes=1, knob="memory",
                   scale_factor=factor1, iterations=3)
    return {"network": network, "memory": memory}


def test_hardware_sensitivity(regenerate):
    result = regenerate(run_sweeps)
    print()
    print("GraphLab PageRank @4 nodes vs network bandwidth scale:")
    for row in result["network"]:
        print(f"  {row['scale']:>5.2f}x link: {row['runtime_s']:.4f}s  "
              f"network {100 * row['network_fraction']:.0f}%  "
              f"({row['bound_by']}-bound)")
    print("Native PageRank @1 node vs memory bandwidth scale:")
    for row in result["memory"]:
        print(f"  {row['scale']:>5.2f}x DRAM: {row['runtime_s']:.4f}s")

    network = result["network"]
    # GraphLab's network share falls monotonically as the link speeds up.
    shares = [row["network_fraction"] for row in network]
    assert shares[0] > shares[-1]
    # Faster links help it substantially (it is network-limited stock) ...
    assert network[0]["runtime_s"] > 1.5 * network[-1]["runtime_s"]
    # ... but with diminishing returns once compute dominates.
    assert diminishing_returns(network) <= network[-1]["scale"]

    memory = result["memory"]
    # Memory-bound native PageRank scales ~linearly with DRAM bandwidth.
    speedup = memory[2]["runtime_s"] / memory[-1]["runtime_s"]  # 1x -> 8x
    assert speedup > 4.0
