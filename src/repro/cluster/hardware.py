"""Hardware description of the paper's experimental platform (Section 4.3).

Each node is an Intel Xeon E5-2697-class dual-socket machine: 24 cores at
2.7 GHz with 2-way SMT, 64 GB of DRAM, connected by Mellanox FDR
InfiniBand. The bandwidth constants below are back-derived from the
paper's own efficiency numbers:

* Table 4 reports PageRank achieving 78 GB/s = 92% of the memory-bandwidth
  limit, implying a ~86 GB/s STREAM-class peak per node;
* Figure 6 normalizes peak network bandwidth to "5.5 GB/s/node (network
  limit)" for the FDR fabric.

These constants are the *only* hardware inputs to the simulation; every
runtime this package reports is counted work divided by them.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class NodeSpec:
    """One cluster node. Defaults model the paper's Xeon E5-2697 nodes."""

    cores: int = 24
    smt: int = 2
    frequency_ghz: float = 2.7
    #: Sustained instructions per cycle per core for tuned graph kernels.
    ipc: float = 1.6
    dram_bytes: int = 64 * 2**30
    #: Peak streaming (STREAM-like) memory bandwidth, bytes/second.
    stream_bandwidth: float = 86e9
    #: Effective bandwidth of dependent random 8-byte accesses. A random
    #: access drags a 64-byte line for 8 useful bytes and is
    #: latency-bound; ~10 GB/s of *useful* bytes matches measured
    #: pointer-chasing rates on this class of machine.
    random_bandwidth: float = 10e9
    #: Peak per-node injection bandwidth of the FDR InfiniBand fabric.
    link_bandwidth: float = 5.5e9
    #: Sequential bandwidth of the node's checkpoint disk (HDFS-class
    #: spinning storage of the paper's era). Only exercised by recovery
    #: protocols writing/restoring checkpoints (repro.chaos).
    disk_bandwidth: float = 200e6

    def compute_rate(self, cpu_efficiency: float = 1.0,
                     cores_fraction: float = 1.0) -> float:
        """Sustainable scalar-op throughput (ops/second).

        ``cpu_efficiency`` captures software overhead relative to tuned
        native code (JVM boxing, framework abstraction, ...);
        ``cores_fraction`` captures partial occupancy (e.g. Giraph's 4
        workers on a 24-core node).
        """
        if not 0 < cpu_efficiency <= 1.0:
            raise ValueError(f"cpu_efficiency must be in (0, 1], got {cpu_efficiency}")
        if not 0 < cores_fraction <= 1.0:
            raise ValueError(f"cores_fraction must be in (0, 1], got {cores_fraction}")
        return (self.cores * cores_fraction) * self.frequency_ghz * 1e9 \
            * self.ipc * cpu_efficiency


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster of :class:`NodeSpec` nodes."""

    num_nodes: int = 1
    node: NodeSpec = field(default_factory=NodeSpec)

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {self.num_nodes}")


#: The exact platform of the paper, for convenience.
PAPER_NODE = NodeSpec()


def paper_cluster(num_nodes: int) -> ClusterSpec:
    """Cluster of the paper's nodes; the paper uses 1-64."""
    return ClusterSpec(num_nodes=num_nodes, node=PAPER_NODE)
