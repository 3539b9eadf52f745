"""Deterministic fault injection + recovery protocols (``repro.chaos``).

The measurable fault-tolerance axis of the study: seeded
:class:`FaultSchedule` objects describe node crashes, stragglers,
latency spikes, partitions and probabilistic message loss; per-framework
:class:`RecoveryPolicy` objects describe what surviving them costs
(Giraph-style checkpoint/replay vs native fail-fast). The simulated
cluster consults both every superstep — same workload, fault schedule
on or off, recovery overhead read straight off the trace.

:mod:`repro.chaos.real` is the second, non-simulated axis: a
:class:`RealFaultPlan` makes chosen sweep cells actually kill, hang or
memory-balloon their **worker process**, so the supervised pool
(:mod:`repro.harness.supervisor`) can be proven to survive the faults
the simulator cannot raise.
"""

from .real import (
    BalloonMemory,
    HangCell,
    KillWorker,
    RealFaultPlan,
    resolve_real_chaos,
)
from .faults import (
    FaultSchedule,
    LatencySpike,
    MessageCorruption,
    MessageDrop,
    NetworkPartition,
    NodeCrash,
    StragglerNode,
)
from .recovery import (
    RecoveryPolicy,
    RetryPolicy,
    checkpointing,
    policy_for_profile,
)

__all__ = [
    "BalloonMemory",
    "FaultSchedule",
    "HangCell",
    "KillWorker",
    "RealFaultPlan",
    "LatencySpike",
    "MessageCorruption",
    "MessageDrop",
    "NetworkPartition",
    "NodeCrash",
    "RecoveryPolicy",
    "RetryPolicy",
    "StragglerNode",
    "checkpointing",
    "policy_for_profile",
    "resolve_real_chaos",
]
