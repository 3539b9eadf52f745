"""GraphLab front-end: vertex programs, vertex-cut, sockets, cuckoo TC.

The paper's GraphLab (v2.2) characteristics bound here:

* vertex-cut partitioning with high-degree replication (Section 6.1.1);
* TCP-socket communication achieving ~20-25% of the fabric (Section 6.2);
* computation/communication overlap via message blocking, which keeps
  its triangle-counting memory footprint low (Section 6.1.1);
* a cuckoo-hash neighbor structure for triangle counting that makes it
  one of the best multi-node TC performers (Section 5.3).
"""

from __future__ import annotations

from ..base import GRAPHLAB
from .programs import frontend


# graphlab.pagerank(graph, cluster, ...) etc.: one runner per workload.
globals().update(frontend(
    GRAPHLAB, "vertex-cut",
    triangle_counting={"use_cuckoo": True},
))
