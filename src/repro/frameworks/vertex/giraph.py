"""Giraph front-end: BSP vertex programs on simulated Hadoop.

The paper's Giraph characteristics bound here:

* 1-D vertex partitioning, no sender-side combiner;
* Netty-on-Hadoop communication (<0.5 GB/s peak, <10% utilization);
* only 4 workers per 24-core node, capping CPU utilization near 16%
  (Section 5.4);
* buffering of *all* outgoing messages before sending — the behaviour
  that makes triangle counting run out of memory unless each superstep
  is split into ~100 smaller ones (Section 6.1.3). The split counts are
  exposed so the Section 6.1.3 experiment can sweep them.
"""

from __future__ import annotations

#: "breaking up each superstep into 100 smaller supersteps" (Section 6.1.3).
TRIANGLE_SPLITS = 100
#: CF messages are staggered the same way (Section 3.2); the paper leaves
#: s unspecified — 10 keeps the buffer within the same budget.
CF_SPLITS = 10
