"""Gap attribution: decompose a framework's slowdown into factors.

Section 5.4 of the paper explains Giraph's ~560x BFS gap as a *product*:
low network utilization x 4-of-24 worker occupancy x JVM object
overhead. This module computes that style of breakdown for any
(framework, native) pair of runs, and makes it *exact*: the simulator
decomposes every run's critical path into

``total = compute + exposed_comm + fixed``

(:class:`~repro.cluster.metrics.RunMetrics` — compute is the per-step
compute maxima, exposed_comm the communication not hidden under it,
fixed the data-size-independent barrier/startup/recovery seconds), so
the gap telescopes into three multiplicative factors by swapping one
component at a time from the framework's value to native's:

* **superstep-overhead** — fixed seconds (Hadoop barriers vs MPI),
* **network** — exposed communication (volume x rate x overlap),
* **compute** — compute seconds (occupancy x software efficiency x
  instruction inflation).

The factors multiply out to ``framework_time / native_time`` to
floating-point precision, by construction — no fitted residual. Each
factor carries an informational sub-breakdown (bytes ratios, occupancy,
utilizations) read from the run metrics and the framework profiles.

Every run is also classified by what *binds* it: ``latency`` when fixed
overhead is at least half the runtime (Giraph BFS), else ``network``
when exposed communication beats compute, else ``memory``/``compute``
by which half of the cost model's max() dominates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..algorithms.registry import ALGORITHMS, FRAMEWORKS, check_names
from ..cluster.hardware import PAPER_NODE
from ..errors import SpecError
from ..frameworks.base import profile
from ..harness.spec import Request, declare

#: Guard for ratios of simulated times (all >= 0; zero only on empty runs).
_TINY = 1e-30


def classify(metrics) -> str:
    """compute- / memory- / network- / latency-bound, from one run."""
    if metrics.total_time_s <= 0:
        return "compute"
    if metrics.fixed_time_s >= 0.5 * metrics.total_time_s:
        return "latency"
    if metrics.exposed_comm_time_s >= metrics.compute_time_s:
        return "network"
    if metrics.memory_time_s >= metrics.cpu_time_s:
        return "memory"
    return "compute"


#: The Section 6-style advice for each of :func:`classify`'s labels.
ADVICE = {
    "compute": "ALU bound: raise per-core efficiency and occupancy, "
               "cut instructions per edge",
    "memory": "memory-bandwidth bound: improve data layout, add software "
              "prefetching, shrink working sets with bit-vectors",
    "network": "network bound: use a faster communication layer, compress "
               "messages, overlap compute with communication",
    "latency": "fixed-cost bound: reduce per-superstep scheduling latency "
               "or batch supersteps together",
}


@dataclass(frozen=True)
class GapFactor:
    """One multiplicative slice of the gap."""

    name: str
    factor: float
    #: Informational sub-breakdown; does not participate in the product.
    detail: dict

    def to_dict(self) -> dict:
        return {"name": self.name, "factor": self.factor,
                "detail": dict(self.detail)}


@dataclass(frozen=True)
class GapAttribution:
    """The full decomposition of one framework run against native."""

    algorithm: str
    framework: str
    nodes: int
    framework_time_s: float
    native_time_s: float
    binding: str                 # what binds the framework run
    native_binding: str
    factors: tuple               # GapFactor, product == gap

    @property
    def gap(self) -> float:
        return self.framework_time_s / max(self.native_time_s, _TINY)

    def product(self) -> float:
        out = 1.0
        for factor in self.factors:
            out *= factor.factor
        return out

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "framework": self.framework,
            "nodes": self.nodes,
            "framework_time_s": self.framework_time_s,
            "native_time_s": self.native_time_s,
            "gap": self.gap,
            "binding": self.binding,
            "native_binding": self.native_binding,
            "factors": [factor.to_dict() for factor in self.factors],
        }


def attribute(framework_run, native_run) -> GapAttribution:
    """Decompose ``framework_run``'s gap over ``native_run``.

    Both must be completed :class:`~repro.harness.runner.RunResult`
    cells of the same (algorithm, dataset, nodes). If the framework run
    carries a tracer, the attribution lands in the trace as
    ``perf-attribution`` / ``perf-factor`` instants.
    """
    m_f, m_n = framework_run.metrics(), native_run.metrics()
    node = PAPER_NODE
    prof_f = profile(framework_run.framework)
    prof_n = profile(native_run.framework)

    compute_f, compute_n = m_f.compute_time_s, m_n.compute_time_s
    exposed_f, exposed_n = m_f.exposed_comm_time_s, m_n.exposed_comm_time_s
    fixed_f, fixed_n = m_f.fixed_time_s, m_n.fixed_time_s

    # Telescoping swap, framework -> native one component at a time. Each
    # hybrid is a legal runtime, so each factor is the slowdown that one
    # component alone is responsible for, and the product is exact.
    h0 = compute_f + exposed_f + fixed_f
    h1 = compute_f + exposed_f + fixed_n
    h2 = compute_f + exposed_n + fixed_n
    h3 = compute_n + exposed_n + fixed_n

    overhead_factor = h0 / max(h1, _TINY)
    network_factor = h1 / max(h2, _TINY)
    compute_factor = h2 / max(h3, _TINY)

    link = node.link_bandwidth
    occupancy = prof_n.cores_fraction / prof_f.cores_fraction
    sw_efficiency = prof_n.cpu_efficiency / prof_f.cpu_efficiency
    ops_inflation = m_f.ops_total / max(m_n.ops_total, _TINY)
    factors = (
        GapFactor("superstep-overhead", overhead_factor, {
            "framework_fixed_s": fixed_f,
            "native_fixed_s": fixed_n,
            "per_superstep_s": prof_f.superstep_overhead_s,
            "supersteps": len(m_f.steps),
        }),
        GapFactor("network", network_factor, {
            "framework_exposed_s": exposed_f,
            "native_exposed_s": exposed_n,
            # Per-edge overhead bytes: serialization + no compression.
            "wire_bytes_ratio":
                m_f.bytes_sent_total / max(m_n.bytes_sent_total, _TINY),
            "framework_network_utilization":
                m_f.average_network_bandwidth / link,
            "native_network_utilization":
                m_n.average_network_bandwidth / link,
            "overlaps_communication": prof_f.overlaps_communication,
        }),
        GapFactor("compute", compute_factor, {
            "framework_compute_s": compute_f,
            "native_compute_s": compute_n,
            # Occupancy: the paper's 4-of-24 workers -> 6x for Giraph.
            "occupancy": occupancy,
            "software_efficiency": sw_efficiency,
            "ops_inflation": ops_inflation,
            # What occupancy x sw-efficiency x op-count inflation leaves
            # unexplained (memory-boundness, load imbalance).
            "residual": compute_factor
                / max(occupancy * sw_efficiency * ops_inflation, _TINY),
            "framework_cpu_utilization": m_f.cpu_utilization,
            "native_cpu_utilization": m_n.cpu_utilization,
        }),
    )

    out = GapAttribution(
        algorithm=framework_run.algorithm,
        framework=framework_run.framework,
        nodes=framework_run.nodes,
        framework_time_s=m_f.total_time_s,
        native_time_s=m_n.total_time_s,
        binding=classify(m_f),
        native_binding=classify(m_n),
        factors=factors,
    )

    tracer = framework_run.trace
    if tracer is not None and tracer.enabled:
        tracer.instant("perf-attribution", framework=out.framework,
                       algorithm=out.algorithm, gap=out.gap,
                       binding=out.binding)
        for factor in factors:
            tracer.instant("perf-factor", factor_name=factor.name,
                           factor=factor.factor)
    return out


def attribute_cell(algorithm: str, framework: str, nodes: int = 4,
                   trace=None) -> GapAttribution:
    """Run one weak-scaling cell and its native twin, then attribute."""
    from ..harness.runner import run_cell

    key = {"algorithm": algorithm, "nodes": nodes}
    return attribute(run_cell({**key, "framework": framework}, trace=trace),
                     run_cell({**key, "framework": "native"}))


@dataclass(frozen=True)
class Analysis:
    """What ``repro perf analyze`` and ``POST /perf/analyze`` report."""

    framework: str
    roofline: dict          # roofline_table()'s {algorithm: {nodes: cell}}
    attributions: tuple     # one GapAttribution per completed cell

    def to_dict(self) -> dict:
        return {"framework": self.framework, "roofline": self.roofline,
                "attributions": [a.to_dict() for a in self.attributions]}


@dataclass(frozen=True)
class AnalysisRequest(Request):
    """One perf analysis as ``repro perf analyze`` and
    ``POST /perf/analyze`` both ask for it, checked here."""

    NOUN = "analysis"

    framework: str = declare("native", choices=lambda: FRAMEWORKS)
    algorithms: Optional[Tuple[str, ...]] = declare(
        None, help="comma-separated subset (default: all four)")
    node_counts: Tuple[int, ...] = declare(
        (1,), bound=(">=", 1), flag="--nodes", cli_default="1,4",
        help="comma-separated node counts (default: 1,4)")

    def __post_init__(self):
        self._check_fields()
        check_names("framework", (self.framework,), FRAMEWORKS)
        check_names("algorithm", self.algorithms or (), ALGORITHMS)
        if not self.node_counts:
            raise SpecError("node_counts must not be empty")

    def run(self) -> Analysis:
        """Roofline ratios for the framework; plus, when it is not
        native, the gap attribution of every cell that completed."""
        from .model import roofline_table

        table = roofline_table(framework=self.framework,
                               algorithms=self.algorithms,
                               node_counts=self.node_counts)
        attributions = () if self.framework == "native" else tuple(
            attribute_cell(algorithm, self.framework, nodes=nodes)
            for algorithm, by_nodes in table.items()
            for nodes, cell in by_nodes.items() if "ratio" in cell)
        return Analysis(self.framework, table, attributions)


def analyze(framework: str = "native", algorithms=None,
            node_counts=(1, 4)) -> Analysis:
    """:meth:`AnalysisRequest.run` — which checks the arguments first."""
    return AnalysisRequest(framework, algorithms, node_counts).run()
