"""Optimization advisor: rank the Figure 7 what-ifs for one workload.

The paper's Section 6.1 optimizations are real switches on the native
kernels (:class:`~repro.frameworks.native.options.NativeOptions`):
software prefetching, message compression, compute/communication
overlap and bit-vector data structures. The advisor *simulates* each
what-if — it re-runs the cell from the all-off baseline with exactly one
optimization enabled — and ranks them by predicted speedup, with a
rationale tied to what actually binds the baseline run (a prefetch
recommendation is only interesting if random DRAM traffic is the
bottleneck, compression only if wire volume is).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..frameworks.native.options import NativeOptions
from .attribution import classify

#: The individually toggleable what-ifs, in Figure 7 order.
WHAT_IFS = ("prefetch", "compression", "overlap", "bitvector")


@dataclass(frozen=True)
class Advice:
    """One ranked what-if."""

    option: str
    speedup: float          # baseline_s / predicted_s
    baseline_s: float
    predicted_s: float
    rationale: str

    def to_dict(self) -> dict:
        return {"option": self.option, "speedup": self.speedup,
                "baseline_s": self.baseline_s,
                "predicted_s": self.predicted_s,
                "rationale": self.rationale}


def _rationale(option: str, metrics, binding: str) -> str:
    """Tie the recommendation to the baseline's measured bottleneck."""
    dram = metrics.streamed_bytes_total + metrics.random_bytes_total
    random_share = metrics.random_bytes_total / dram if dram else 0.0
    exposed_share = metrics.exposed_comm_time_s / metrics.total_time_s \
        if metrics.total_time_s else 0.0
    if option == "prefetch":
        return (f"{100 * random_share:.0f}% of DRAM traffic is random; "
                f"prefetching raises the effective random-access rate "
                f"(baseline is {binding}-bound)")
    if option == "compression":
        return (f"compresses the {metrics.bytes_sent_per_node / 1e6:.1f} "
                f"MB/node of wire traffic (baseline is {binding}-bound)")
    if option == "overlap":
        return (f"{100 * exposed_share:.0f}% of the runtime is exposed "
                f"communication that overlap can hide under compute")
    if option == "bitvector":
        return ("bit-vector visited/membership sets shrink the random "
                "probe traffic and the memory footprint")
    return f"baseline is {binding}-bound"


def advise(algorithm: str, dataset, nodes: int = 1,
           scale_factor: float = 1.0, **params) -> list:
    """Rank the native optimizations for one cell by predicted speedup.

    Returns ``[Advice, ...]`` sorted fastest-first: each single what-if
    from the all-off baseline, plus the combined ``all`` setting (the
    Figure 7 end state, usually better than any single switch).
    """
    from ..harness.runner import run
    from ..harness.spec import ExperimentSpec

    def _run(options):
        return run(ExperimentSpec(algorithm, "native", dataset, nodes=nodes,
                                  scale_factor=scale_factor,
                                  params={"options": options, **params}))

    baseline_run = _run(NativeOptions.baseline())
    baseline_s = baseline_run.runtime()
    metrics = baseline_run.metrics()
    binding = classify(metrics)

    advice = []
    for option in WHAT_IFS:
        predicted_s = _run(NativeOptions.baseline().with_(
            **{option: True})).runtime()
        advice.append(Advice(
            option=option,
            speedup=baseline_s / predicted_s,
            baseline_s=baseline_s,
            predicted_s=predicted_s,
            rationale=_rationale(option, metrics, binding),
        ))
    all_s = _run(NativeOptions()).runtime()
    advice.append(Advice(
        option="all", speedup=baseline_s / all_s,
        baseline_s=baseline_s, predicted_s=all_s,
        rationale="every Section 6.1 optimization together "
                  "(the Figure 7 end state)",
    ))
    return sorted(advice, key=lambda item: item.speedup, reverse=True)


def advise_cell(algorithm: str, nodes: int = 4) -> list:
    """:func:`advise` on the standard weak-scaling cell."""
    from ..harness.datasets import experiment_dataset

    data, factor = experiment_dataset(algorithm, nodes=nodes)
    return advise(algorithm, data, nodes=nodes, scale_factor=factor)
