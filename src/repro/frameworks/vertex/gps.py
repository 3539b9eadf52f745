"""GPS front-end (related work, paper Section 7).

"Graph Partitioning System (GPS) [27] uses a vertex programming model
with Large Adjacency List Partitioning (LALP) i.e. vertex partitioning
except for the large degree vertices which are split among multiple
nodes. [27] showed that GPS with LALP achieves a 12x performance
improvement compared to Giraph, putting it at a performance level
comparable to that of the frameworks studied (but much slower than
native code)."

We model GPS as a leaner JVM BSP: proper thread occupancy (unlike
Giraph's 4 workers), pooled message objects, a tuned socket stack, and
LALP — hub adjacency lists mirrored so hub fan-out is combined per node,
which the engine's sender-side combining plus vertex-cut-style hub
replication capture.
"""

from __future__ import annotations

from dataclasses import replace

from ...cluster.network import CommLayer
from ..base import GIRAPH, FrameworkProfile

#: GPS's custom sockets-over-Java stack: better than Hadoop/Netty but
#: below the C sockets of GraphLab.
GPS_SOCKETS = CommLayer("gps-sockets", efficiency=0.18, latency_s=80e-6,
                        byte_overhead=0.10)

GPS: FrameworkProfile = replace(
    GIRAPH,
    name="gps",
    display_name="GPS",
    partitioning="1-D + LALP (hub splitting)",
    comm_layer=GPS_SOCKETS,
    cores_fraction=1.0,            # proper threading, unlike Giraph
    cpu_efficiency=0.30,
    per_message_ops=40.0,          # pooled message objects
    per_byte_ops=2.0,
    message_overhead_factor=1.8,
    superstep_overhead_s=0.08,     # no Hadoop job scheduling
    buffers_all_messages=False,
    combines_messages=True,        # LALP merges hub fan-out per node
    # GPS keeps BSP checkpointing but writes straight to disk without
    # Hadoop's job-tracker barrier, so checkpoints are cheaper and rarer.
    fault_policy="checkpoint",
    checkpoint_interval=4,
    checkpoint_overhead_s=0.1,
    notes="Related work (Section 7): ~12x faster than Giraph, still far "
          "from native.",
)
