"""Framework profiles: the calibrated constants of the study.

Every framework in the paper is characterized by (Table 2 and Sections
3/5/6): its programming model, implementation language, communication
layer, partitioning scheme, whether it runs multi-node, and a set of
implementation behaviours (does it buffer all messages before sending?
does it overlap computation with communication? how many workers occupy
a node?).

Two constants per profile are *calibrated* rather than structural, and
both are documented against the paper measurement they come from:

* ``cpu_efficiency`` — per-operation software efficiency relative to the
  tuned native kernels. C++ frameworks with tight loops sit near 1;
  JVM-based systems lose 3-5x to object headers, boxing and GC; Giraph
  loses far more to Hadoop serialization (the paper measures Giraph at
  ~9M edges/s/node vs 640M for native — a ~70x per-edge gap, of which
  ~6x is occupancy, leaving ~12x software inefficiency).
* ``message_overhead_factor`` — wire bytes per payload byte after the
  framework's serialization (Java object streams ~2-4x; C++ frameworks
  ~1x).

Everything else a framework run reports — traffic volume, buffer
footprints, superstep counts, load balance — is *counted* from real
execution of the algorithm in the framework's programming model.

The Kernel protocol
-------------------

The numeric hot loops every engine executes for real live in
:mod:`repro.kernels`, behind a three-method protocol
(:class:`repro.kernels.Kernel`):

* ``Kernel(*profile_args)`` — construct with the algorithm constants
  the engine parameterizes (damping factor, SGD batch size, ...);
* ``prepare(graph_or_ratings) -> self`` — bind the dataset once and
  cache derived arrays (degrees, CSR/CSC forms);
* ``step(...) -> (result, KernelWork)`` — one numeric step (a PageRank
  sweep, a BFS frontier expansion, a full triangle pass, an SGD/GD
  update). ``KernelWork`` carries *analytic* counts (edges, vertices,
  frontier sizes) derived from sizes and degrees, never from loop trip
  counts.

Kernels are looked up through :func:`repro.kernels.registry.kernel`
by ``(algorithm, direction)`` — e.g. ``("pagerank", "pull")``. For the
seven iterative workloads the one caller is the workload's *round
program* in :mod:`repro.frameworks.rounds`, which owns the state machine
around ``step`` (initial state, active set, termination, diagnostics —
for collaborative filtering also the factor draw, the SGD block schedule
and :func:`cf_density_correction`) and hands each round to the engine;
the engine keeps all accounting (:class:`~repro.cluster.ComputeWork`
construction, traffic matrices, memory allocations) on its side,
expressed as one row of cost constants per graph algorithm (a small CF
engine per family) plus the profile constants from this module.
That split is what lets the ``REPRO_KERNELS`` backend knob (vectorized
numpy vs the interpreted pure-Python oracle) change wall-clock time
without moving a single simulated byte: counted work is analytic either
way.

Adding an iterative workload is therefore: a golden reference, a kernel
(both backends), a round program, one cost row per engine family
(``native/engine.py``, ``vertex/programs.py``, ``task/galois.py``,
``matrix/combblas.py`` plus KDT's boundary row in ``matrix/kdt.py``) and
its name in ``algorithms.registry.ALGORITHMS`` — see "Where to extend"
in ``docs/architecture.md``. Only SociaLite, whose rule evaluation is
the thing modelled, needs its own formulation of a graph workload.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.network import (
    MPI,
    MULTI_SOCKET,
    NETTY_HADOOP,
    SINGLE_SOCKET,
    TCP_SOCKETS,
    CommLayer,
)
from ..errors import ReproError


@dataclass(frozen=True)
class FrameworkProfile:
    """Static description + calibrated constants of one framework."""

    name: str
    display_name: str
    model: str                       # programming model (Table 2)
    language: str
    multinode: bool
    partitioning: str
    comm_layer: CommLayer
    cpu_efficiency: float = 1.0
    cores_fraction: float = 1.0
    #: Wire bytes per payload byte after serialization.
    message_overhead_factor: float = 1.0
    #: Fixed instruction overhead per message handled (object creation,
    #: writable deserialization, inbox dispatch). Dominates Giraph.
    per_message_ops: float = 0.0
    #: Instructions per payload byte for (de)serialization.
    per_byte_ops: float = 0.0
    #: Fixed per-superstep scheduling/barrier cost (unscaled seconds).
    superstep_overhead_s: float = 0.0
    #: Giraph "tries to buffer all outgoing messages in memory before
    #: sending any" (Section 6.1.3).
    buffers_all_messages: bool = False
    #: Overlap of computation and communication (Section 6.1.1).
    overlaps_communication: bool = False
    #: Issues software prefetches on irregular accesses.
    prefetch: bool = False
    #: Performs local combining of messages to the same target node
    #: ("local reductions to avoid repeated communication", Section 6.1.1).
    combines_messages: bool = True
    #: Compresses vertex-id message payloads (bit-vector / delta coding).
    compresses_messages: bool = False
    #: Crash response under fault injection (repro.chaos): "checkpoint"
    #: engines write periodic checkpoints and recover a killed node by
    #: restore + replay (Giraph inherits this from Hadoop's superstep
    #: machinery); "fail-fast" engines surface a typed NodeFailure —
    #: the trade the native baselines, GraphLab and Galois make.
    fault_policy: str = "fail-fast"
    #: Supersteps between checkpoints when fault_policy == "checkpoint".
    checkpoint_interval: int = 0
    #: Fixed per-checkpoint cost (HDFS sync, job bookkeeping), seconds.
    checkpoint_overhead_s: float = 0.0
    notes: str = ""

    def __post_init__(self):
        if not 0 < self.cpu_efficiency <= 1.0:
            raise ValueError("cpu_efficiency must be in (0, 1]")
        if not 0 < self.cores_fraction <= 1.0:
            raise ValueError("cores_fraction must be in (0, 1]")
        if self.message_overhead_factor < 1.0:
            raise ValueError("message_overhead_factor must be >= 1")
        if self.superstep_overhead_s < 0:
            raise ValueError("superstep_overhead_s must be >= 0")
        if self.fault_policy not in ("fail-fast", "checkpoint"):
            raise ValueError(f"unknown fault_policy {self.fault_policy!r}")
        if self.fault_policy == "checkpoint" and self.checkpoint_interval < 1:
            raise ValueError("checkpointing profiles need an interval >= 1")

    def recovery_policy(self):
        """The :class:`repro.chaos.RecoveryPolicy` this profile opts into."""
        from ..chaos.recovery import policy_for_profile

        return policy_for_profile(self)


NATIVE = FrameworkProfile(
    name="native", display_name="Native", model="hand-optimized",
    language="C/C++", multinode=True, partitioning="1-D (edge-balanced)",
    comm_layer=MPI,
    cpu_efficiency=1.0,
    overlaps_communication=True, prefetch=True, compresses_messages=True,
    notes="Reference point: within 2-2.5x of hardware limits (Table 4).",
)

COMBBLAS = FrameworkProfile(
    name="combblas", display_name="CombBLAS", model="sparse matrix",
    language="C++", multinode=True, partitioning="2-D",
    comm_layer=MPI,
    # Semiring SpMV with SPA accumulators keeps ~60% of tuned-kernel
    # per-op throughput; calibrated against Table 5's 1.9x PageRank gap
    # net of the extra vector traffic the 2-D algorithm itself counts.
    cpu_efficiency=0.60,
    superstep_overhead_s=1e-3,
    notes="Runs as pure MPI with 36 processes/node; requires a square "
          "process count (Section 4.3).",
)

GRAPHLAB = FrameworkProfile(
    name="graphlab", display_name="GraphLab", model="vertex program",
    language="C++", multinode=True, partitioning="vertex-cut (1-D family)",
    comm_layer=TCP_SOCKETS,
    # Gather/apply/scatter engine with dynamic scheduling overheads:
    # calibrated against the 3.6x single-node PageRank gap (Table 5),
    # net of the message materialization the vertex engine counts.
    cpu_efficiency=0.38,
    message_overhead_factor=1.3,
    superstep_overhead_s=5e-3,
    overlaps_communication=True,   # blocks large messages (Section 6.1.1)
    notes="Uses cuckoo-hash neighbor sets for triangle counting "
          "(Section 5.3); network-bound at scale on sockets.",
)

SOCIALITE = FrameworkProfile(
    name="socialite", display_name="SociaLite", model="datalog",
    language="Java", multinode=True, partitioning="1-D (sharded tables)",
    comm_layer=MULTI_SOCKET,
    # JVM + relational evaluation; calibrated against the 2.0x PageRank /
    # 4.7x triangle-counting single-node gaps (Table 5), net of the join
    # work the Datalog engine counts.
    cpu_efficiency=0.40,
    message_overhead_factor=1.5,
    superstep_overhead_s=5e-3,
    notes="This is the *optimized* SociaLite of Section 6.1.3 (multiple "
          "sockets per worker pair); see SOCIALITE_PUBLISHED for the "
          "original.",
)

SOCIALITE_PUBLISHED = FrameworkProfile(
    name="socialite-published", display_name="SociaLite (published)",
    model="datalog", language="Java", multinode=True,
    partitioning="1-D (sharded tables)",
    comm_layer=SINGLE_SOCKET,
    cpu_efficiency=0.40,
    message_overhead_factor=1.5,
    superstep_overhead_s=5e-3,
    notes="As published: one socket per worker pair, ~0.5 GB/s peak "
          "(Section 6.1.3, Table 7 'Before').",
)

GIRAPH = FrameworkProfile(
    name="giraph", display_name="Giraph", model="vertex program",
    language="Java", multinode=True, partitioning="1-D (vertex)",
    comm_layer=NETTY_HADOOP,
    # The JIT-compiled compute itself runs at JVM speed (~0.3 of tuned
    # C), but every message pays a fixed object/writable handling cost
    # plus per-byte serialization — together these reproduce the paper's
    # ~9M edges/s/node (vs 640M native) on the occupancy below.
    cpu_efficiency=0.30,
    cores_fraction=4.0 / 24.0,     # "we run 4 workers per node" (Section 4.3)
    per_message_ops=150.0,
    per_byte_ops=8.0,
    message_overhead_factor=3.0,
    superstep_overhead_s=0.9,      # Hadoop superstep scheduling latency
    buffers_all_messages=True,
    combines_messages=False,       # no sender-side combiner by default
    # Hadoop's superstep fault tolerance: periodic checkpoints to HDFS,
    # restore + replay on node loss. The cost only bites in chaos runs
    # (ExperimentSpec(faults=...)); the paper's happy-path numbers are
    # measured with the schedule off.
    fault_policy="checkpoint",
    checkpoint_interval=2,
    checkpoint_overhead_s=0.5,     # HDFS write barrier on the job tracker
    notes="Buffers all outgoing messages before sending (Section 6.1.3); "
          "memory limits cap workers at 4 of 24 cores, i.e. ~16% CPU "
          "utilization (Section 5.4).",
)

GALOIS = FrameworkProfile(
    name="galois", display_name="Galois", model="task-based",
    language="C/C++", multinode=False, partitioning="none (shared memory)",
    comm_layer=MPI,                 # unused: single node only
    # "does implement optimizations such as prefetching, and as such is
    # one of the best performing single-node frameworks" (Section 6.2);
    # Table 5 shows 1.1-1.2x of native.
    cpu_efficiency=0.85,
    superstep_overhead_s=1e-4,
    prefetch=True,
    notes="Single-node only; work-item scheduling adds a small constant "
          "over native kernels.",
)

PROFILES = {
    profile.name: profile
    for profile in (NATIVE, COMBBLAS, GRAPHLAB, SOCIALITE,
                    SOCIALITE_PUBLISHED, GIRAPH, GALOIS)
}

#: The frameworks of the paper's headline comparison tables.
COMPARISON_FRAMEWORKS = ("native", "combblas", "graphlab", "socialite",
                         "giraph", "galois")


#: Ratings per user in the paper's collaborative-filtering workloads
#: (Netflix: 99M/480k = 206; the synthetic weak-scaling set: ~265).
PAPER_RATINGS_PER_USER = 230.0


def cf_density_correction(ratings) -> float:
    """Extrapolation correction for vertex-proportional CF quantities.

    Experiments extrapolate counted work by a *ratings*-based scale
    factor, but proxy ratings matrices are far sparser per user than the
    paper's (laptop-scale generation cannot reach 230 ratings/user), so
    anything proportional to the number of users/items — factor tables,
    per-vertex combined messages, replication state — would be
    over-extrapolated by this density ratio. CF engines divide those
    quantities by this correction (>= 1).
    """
    if ratings.num_ratings == 0:
        return 1.0
    proxy_density = ratings.num_ratings / max(ratings.num_users, 1)
    return max(1.0, PAPER_RATINGS_PER_USER / proxy_density)


def profile(name: str) -> FrameworkProfile:
    """Look up a profile by name; raises ReproError for unknown names."""
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise ReproError(f"unknown framework {name!r}; known: {known}") from None
