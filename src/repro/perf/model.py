"""Roofline model: speed-of-light lower bounds for any experiment cell.

The paper's Table 4 argues the native kernels are *good enough to be a
yardstick* by comparing their achieved bandwidth against the hardware
limits: every workload lands within 2-2.5x of the binding resource. This
module generalizes that argument to any (workload, dataset, framework,
nodes) cell: from the run's counted work (bytes moved, ops executed,
wire bytes sent — all accumulated in :class:`~repro.cluster.metrics.
RunMetrics`) and the cluster's hardware constants it derives three
floors —

* **memory floor** — counted DRAM traffic at full streaming bandwidth
  (random bytes at the prefetch-ideal random rate),
* **flop floor** — counted ops at every core's peak sustained rate,
* **wire floor** — counted wire bytes at the fabric's injection limit —

and reports achieved time against the binding (largest) floor. Floors
are *critical-node* bounds: each is the slowest node's counted totals
at ideal rates, because no schedule of this partitioned execution can
beat the node that owns the most data. The ratio is >= 1 by
construction: the floors use the same formulas as the cost model with
every software knob at its physical best, and summing per-superstep
maxima (what the simulator charges) never beats the max of per-node
sums. The gap between the critical-node bound and the
perfectly-balanced one is reported separately as ``imbalance`` — the
partitioning's skew, a software property, not a hardware one.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.cost import CostModel
from ..cluster.hardware import PAPER_NODE, NodeSpec


@dataclass(frozen=True)
class Roofline:
    """Lower bounds vs achieved time for one completed run."""

    memory_floor_s: float
    cpu_floor_s: float
    wire_floor_s: float
    achieved_s: float
    #: Critical-node bound / perfectly-balanced bound (>= 1; 1.0 means
    #: the partitioning spread the counted work evenly).
    imbalance: float = 1.0

    @property
    def bound_s(self) -> float:
        """The binding lower bound: no run can beat all three floors."""
        return max(self.memory_floor_s, self.cpu_floor_s, self.wire_floor_s)

    @property
    def binding(self) -> str:
        """Which hardware resource sets the bound."""
        floors = {"memory": self.memory_floor_s, "cpu": self.cpu_floor_s,
                  "network": self.wire_floor_s}
        return max(floors, key=floors.get)

    @property
    def ratio(self) -> float:
        """Achieved / bound — Table 4's 'within 2-2.5x' number."""
        if self.bound_s == 0:
            return float("inf") if self.achieved_s > 0 else 1.0
        return self.achieved_s / self.bound_s

    def to_dict(self) -> dict:
        return {
            "memory_floor_s": self.memory_floor_s,
            "cpu_floor_s": self.cpu_floor_s,
            "wire_floor_s": self.wire_floor_s,
            "bound_s": self.bound_s,
            "binding": self.binding,
            "achieved_s": self.achieved_s,
            "ratio": self.ratio,
            "imbalance": self.imbalance,
        }


def roofline_of(metrics, node: NodeSpec = PAPER_NODE) -> Roofline:
    """Roofline for one run's :class:`~repro.cluster.metrics.RunMetrics`.

    Floors come from the critical node's counted totals; ``imbalance``
    is that bound over the perfect-balance one.
    """
    cost = CostModel(node)
    nodes = metrics.num_nodes
    balanced_memory = cost.memory_floor_s(
        metrics.streamed_bytes_total / nodes,
        metrics.random_bytes_total / nodes)
    balanced_cpu = cost.cpu_floor_s(metrics.ops_total / nodes)
    balanced_wire = metrics.bytes_sent_total / nodes / node.link_bandwidth
    memory_floor = max(
        cost.memory_floor_s(streamed, random) for streamed, random in
        zip(metrics.node_streamed_bytes, metrics.node_random_bytes))
    cpu_floor = max(cost.cpu_floor_s(ops) for ops in metrics.node_ops)
    wire_floor = float(max(metrics.node_bytes_sent)) / node.link_bandwidth
    bound = max(memory_floor, cpu_floor, wire_floor)
    balanced_bound = max(balanced_memory, balanced_cpu, balanced_wire)
    return Roofline(
        memory_floor_s=memory_floor,
        cpu_floor_s=cpu_floor,
        wire_floor_s=wire_floor,
        achieved_s=metrics.total_time_s,
        imbalance=bound / balanced_bound if balanced_bound > 0 else 1.0,
    )


def roofline_table(framework: str = "native", algorithms=None,
                   node_counts=(1, 4)) -> dict:
    """Achieved-vs-bound efficiency in Table-4 form.

    Runs the weak-scaling cell for every (algorithm, nodes) point and
    returns ``{algorithm: {nodes: roofline dict}}``; cells that do not
    complete carry ``{"status": ...}`` instead, like the paper's dashes.
    """
    from ..algorithms.registry import ALGORITHMS
    from ..harness.runner import run_cell

    algorithms = tuple(algorithms) if algorithms else ALGORITHMS
    out = {}
    for algorithm in algorithms:
        out[algorithm] = {}
        for nodes in node_counts:
            run = run_cell({"algorithm": algorithm, "framework": framework,
                            "nodes": nodes})
            if not run.ok:
                out[algorithm][nodes] = {"status": run.status,
                                         "failure": run.failure}
                continue
            cell = roofline_of(run.metrics()).to_dict()
            cell["status"] = run.status
            out[algorithm][nodes] = cell
    return out
