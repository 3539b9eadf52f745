"""The gate cells: the frameworks and node counts every workload runs on.

``repro freeze`` holds each gate cell's simulated numbers byte for byte,
and ``repro serve``'s load generator and the benchmark's ``serve_mixed``
workload draw their ``gate`` requests from the same suite. Host time is
measured by ``python3 -m bench`` only.
"""

from __future__ import annotations

#: The gate's framework suite: the native yardstick plus one framework
#: per engine family that completes every workload.
GATE_FRAMEWORKS = ("native", "combblas", "graphlab", "giraph")
GATE_NODE_COUNTS = (1, 4)
