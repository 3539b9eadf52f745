"""Simulated cluster: hardware model, network layers, cost model, metrics.

It only simulates a run; :mod:`repro.perf` explains where the time went.
"""

from .cost import PREFETCH_RANDOM_SPEEDUP, ComputeWork, CostModel
from .hardware import PAPER_NODE, ClusterSpec, NodeSpec, paper_cluster
from .memory import MemoryTracker
from .metrics import RunMetrics
from .network import (
    LAYERS,
    MPI,
    NETTY_HADOOP,
    SINGLE_SOCKET,
    TCP_SOCKETS,
    CommLayer,
    Fabric,
    node_volumes,
)
from .simulator import Cluster, Spans

__all__ = [
    "LAYERS",
    "MPI",
    "NETTY_HADOOP",
    "PAPER_NODE",
    "PREFETCH_RANDOM_SPEEDUP",
    "SINGLE_SOCKET",
    "TCP_SOCKETS",
    "Cluster",
    "ClusterSpec",
    "CommLayer",
    "ComputeWork",
    "CostModel",
    "Fabric",
    "MemoryTracker",
    "NodeSpec",
    "RunMetrics",
    "Spans",
    "node_volumes",
    "paper_cluster",
]
