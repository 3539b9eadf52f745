"""Communication layers and their achievable bandwidth (Table 2, Fig. 6).

"A major differentiator of the frameworks is the communication layer
between different hardware nodes" (Section 3). The paper measures, on the
same FDR InfiniBand fabric:

* **MPI** (native, CombBLAS) — over 5 GB/s peak, essentially the hardware
  limit of 5.5 GB/s;
* **TCP sockets over IPoIB** (GraphLab) — "2.5-3x lower bandwidth than
  MPI", i.e. ~20-25% of the link;
* **a single socket pair** (SociaLite as published) — "poor peak network
  performance of about 0.5 GBps";
* **multiple sockets per worker pair** (SociaLite after the authors'
  fix, Section 6.1.3) — "close to 2 GBps";
* **Netty on Hadoop** (Giraph) — "the lowest peak traffic rate of less
  than 0.5 GB/s" and under 10% network utilization.

A :class:`CommLayer` is that achievable-fraction plus fixed per-transfer
latency; :class:`Fabric` turns a per-node-pair traffic matrix into
per-node communication time and bookkeeping for the Figure 6 metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError
from .hardware import NodeSpec


@dataclass(frozen=True)
class CommLayer:
    """A message-passing implementation on top of the fabric."""

    name: str
    #: Fraction of the hardware link bandwidth this layer can sustain.
    efficiency: float
    #: Fixed software latency per bulk transfer (connection handling,
    #: serialization setup); dominates when messages are tiny.
    latency_s: float = 20e-6
    #: Framing/serialization overhead added per transferred byte.
    byte_overhead: float = 0.0
    #: Sustained-average fraction of the peak rate over a whole exchange.
    #: Table 4 vs Figure 6 of the paper show exactly this split for MPI:
    #: sar sees >5 GB/s peaks while the run-average lands at ~2.3 GB/s —
    #: all-to-all phases, stragglers and synchronization eat the rest.
    #: Software-limited stacks (sockets, Netty) run flat-out whenever
    #: they transfer, so their sustained fraction is near 1.
    sustained_fraction: float = 1.0

    def __post_init__(self):
        if not 0 < self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if self.latency_s < 0 or self.byte_overhead < 0:
            raise ValueError("latency and byte overhead must be non-negative")
        if not 0 < self.sustained_fraction <= 1.0:
            raise ValueError("sustained_fraction must be in (0, 1]")

    def effective_bandwidth(self, node: NodeSpec) -> float:
        """Peak bytes/second between one node pair under this layer."""
        return node.link_bandwidth * self.efficiency

    def sustained_bandwidth(self, node: NodeSpec) -> float:
        """Run-average bytes/second for time accounting."""
        return self.effective_bandwidth(node) * self.sustained_fraction

    def wire_bytes(self, payload_bytes: float) -> float:
        """Bytes on the wire for a payload, including framing overhead."""
        return payload_bytes * (1.0 + self.byte_overhead)


MPI = CommLayer("mpi", efficiency=0.95, latency_s=5e-6, byte_overhead=0.0,
                sustained_fraction=0.55)
TCP_SOCKETS = CommLayer("tcp-sockets", efficiency=0.22, latency_s=50e-6,
                        byte_overhead=0.05)
SINGLE_SOCKET = CommLayer("single-socket", efficiency=0.09, latency_s=80e-6,
                          byte_overhead=0.08)
MULTI_SOCKET = CommLayer("multi-socket", efficiency=0.36, latency_s=60e-6,
                         byte_overhead=0.08, sustained_fraction=0.85)
NETTY_HADOOP = CommLayer("netty-hadoop", efficiency=0.08, latency_s=500e-6,
                         byte_overhead=0.25)

LAYERS = {layer.name: layer for layer in
          (MPI, TCP_SOCKETS, SINGLE_SOCKET, MULTI_SOCKET, NETTY_HADOOP)}


def node_volumes(traffic: np.ndarray) -> np.ndarray:
    """Bytes each node sends plus receives: ``traffic[i, :].sum() +
    traffic[:, i].sum()`` for every ``i`` (of every matrix of an
    ``(S, P, P)`` stack). The transpose is copied so both sums reduce
    along a contiguous axis: ``sum(0)`` adds row by row, which rounds
    non-integer traffic differently from a per-node slice."""
    return traffic.sum(-1) + np.ascontiguousarray(
        np.swapaxes(traffic, -1, -2)).sum(-1)


@dataclass
class TrafficReport:
    """Network outcome of a stack of supersteps: every field has a
    leading step axis."""

    comm_times: np.ndarray          # seconds per step and node
    bytes_out: np.ndarray           # wire bytes sent per step and node
    bytes_in: np.ndarray            # wire bytes received per step and node
    peak_bandwidth: np.ndarray      # bytes/s per step while transferring
    total_bytes: np.ndarray         # wire bytes per step, all nodes
    #: Fault counters from an injected LinkDisruption, None when clean.
    faults: dict = None


class Fabric:
    """Converts traffic matrices into per-node communication time.

    ``traffic[i, j]`` is payload bytes node *i* sends node *j* in one
    superstep (the diagonal — node-local messages — never touches the
    wire and is ignored). The per-node time is the max of its send and
    receive totals over the layer's effective bandwidth, the standard
    LogGP-style bottleneck model for a full-duplex fat-tree fabric.
    """

    def __init__(self, node: NodeSpec, num_nodes: int):
        if num_nodes < 1:
            raise SimulationError(f"num_nodes must be >= 1, got {num_nodes}")
        self.node = node
        self.num_nodes = num_nodes

    def exchange(self, traffic: np.ndarray, layer: CommLayer,
                 disruption=None) -> TrafficReport:
        """Bulk exchanges; ``disruption`` injects network faults.

        ``traffic`` is a stack ``(S, P, P)`` of supersteps' non-negative
        matrices, each reduced on its own exactly as alone (the caller
        checks shape and sign). A :class:`~repro.chaos.faults.LinkDisruption`
        (chaos runs only, a stack of one) may retransmit
        dropped/corrupted transfers (their wire bytes count twice), stall
        senders for retry backoff, and congest the layer — latency x
        factor, sustained bandwidth / factor — while a latency spike is
        active.
        """
        nodes = self.num_nodes
        wire = layer.wire_bytes(traffic)
        wire.reshape(len(wire), -1)[:, ::nodes + 1] = 0.0   # the diagonals
        latency = layer.latency_s
        bandwidth = layer.sustained_bandwidth(self.node)
        peak_limit = layer.effective_bandwidth(self.node)
        stall = None
        fault_info = None
        if disruption is not None:
            single, stall, fault_info = disruption.apply(wire[0])
            wire = single[None]
            latency *= disruption.latency_factor
            bandwidth /= disruption.latency_factor
            peak_limit /= disruption.latency_factor
        # Row sums reduce along the contiguous axis and column sums row
        # by row, as they do on one matrix.
        bytes_out = wire.sum(axis=-1)
        total = bytes_out.sum(axis=-1)
        if disruption is None and not total.any():
            # Nothing crosses the wire (every matrix of a one-node run):
            # nothing is received or waited for.
            bytes_in = comm_times = np.zeros_like(bytes_out)
            peak = np.zeros_like(total)
        else:
            bytes_in = wire.sum(axis=-2)
            volume = np.maximum(bytes_out, bytes_in)
            comm_times = np.where(volume > 0, volume / bandwidth + latency,
                                  0.0)
            if stall is not None:
                comm_times = comm_times + stall
            peak = np.where(volume.max(axis=-1) > 0, peak_limit, 0.0)
        return TrafficReport(comm_times=comm_times, bytes_out=bytes_out,
                             bytes_in=bytes_in, peak_bandwidth=peak,
                             total_bytes=total, faults=fault_info)
