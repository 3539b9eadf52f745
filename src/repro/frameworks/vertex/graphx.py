"""GraphX front-end (related work, paper Section 7).

"GraphX [35] is a graph framework built on top of Spark [36] and uses
vertex programming. [35] showed that GraphX is about 7x slower than
GraphLab for pagerank (including file read). This would put GraphX at
the slower end of the spectrum of frameworks considered in this paper."

Modeled as vertex programming materialized through Spark's RDD
machinery: every superstep is a shuffle (immutable triplets re-built,
hash-partitioned exchange), with JVM serialization on each record and
Spark's per-stage scheduling latency.
"""

from __future__ import annotations

from dataclasses import replace

from ...cluster.network import CommLayer
from ..base import GRAPHLAB, FrameworkProfile

#: Spark block-transfer service: netty-based shuffle, better tuned than
#: Hadoop RPC but with shuffle-file spill overheads.
SPARK_SHUFFLE = CommLayer("spark-shuffle", efficiency=0.15, latency_s=200e-6,
                          byte_overhead=0.30)

GRAPHX: FrameworkProfile = replace(
    GRAPHLAB,
    name="graphx",
    display_name="GraphX",
    language="Scala/JVM",
    partitioning="2-D hash (edge triplets)",
    comm_layer=SPARK_SHUFFLE,
    cpu_efficiency=0.10,           # RDD immutability: rebuild, don't update
    message_overhead_factor=2.5,   # serialized triplet records
    superstep_overhead_s=0.35,     # Spark stage scheduling per superstep
    overlaps_communication=False,  # shuffle barriers
    combines_messages=False,       # per-edge triplets materialize in the
                                   # shuffle before any reduceByKey
    prefetch=False,
    # Spark recovers lost partitions from RDD lineage; periodically
    # materialized RDDs play the checkpoint role, so a node loss costs a
    # restore + recomputation replay rather than the whole job.
    fault_policy="checkpoint",
    checkpoint_interval=4,
    checkpoint_overhead_s=0.2,
    notes="Related work (Section 7): ~7x slower than GraphLab on "
          "PageRank; slower end of the studied spectrum.",
)
