"""Simulated cluster: hardware model, network layers, cost model, metrics.

It only simulates a run; :mod:`repro.perf` explains where the time went.
"""

from .cost import PREFETCH_RANDOM_SPEEDUP, ComputeWork, CostModel
from .hardware import PAPER_NODE, ClusterSpec, NodeSpec, paper_cluster
from .memory import MemoryTracker
from .metrics import RunMetrics, StepRecord
from .network import (
    LAYERS,
    MPI,
    MULTI_SOCKET,
    NETTY_HADOOP,
    SINGLE_SOCKET,
    TCP_SOCKETS,
    CommLayer,
    Fabric,
    TrafficReport,
    node_volumes,
)
from .simulator import Cluster

__all__ = [
    "LAYERS",
    "MPI",
    "MULTI_SOCKET",
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
    "StepRecord",
    "TrafficReport",
    "node_volumes",
    "paper_cluster",
]
