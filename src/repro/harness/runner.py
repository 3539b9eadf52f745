"""Experiment runner: one (algorithm, framework, dataset, nodes) cell.

This is the single front door to the study. :func:`run` takes a typed
:class:`~repro.harness.spec.ExperimentSpec` and wraps the registry
runners with cluster construction, the paper-scale extrapolation
factor, per-algorithm default parameters (:func:`default_params`),
optional flight-recorder tracing, and failure classification:
out-of-memory and expressibility failures are *results* in this paper
(CombBLAS's Twitter triangle counting OOM, Galois's missing multi-node
support), not crashes, so they come back as statuses instead of
exceptions. :func:`run_cell` is the same door for a cell *key* — the
``{algorithm, framework[, dataset][, nodes]}`` dict sweeps enumerate —
placed by :func:`~repro.harness.datasets.experiment_dataset`.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from ..algorithms.registry import profile_for, runner as _lookup
from ..chaos import FaultSchedule
from ..cluster import Cluster, paper_cluster
from ..errors import STATUS_OK, ReproError, failure_class
from ..frameworks.results import AlgorithmResult
from ..kernels.backend import use_backend
from .datasets import (
    HARNESS_HIDDEN_DIM,
    HARNESS_ITERATIONS,
    catalog_dataset,
    experiment_dataset,
)
from .persistence import _jsonable
from .spec import ExperimentSpec


def default_params(algorithm: str, dataset=None) -> dict:
    """The harness's standard parameters for one algorithm.

    The one place that encodes how the study configures each workload:
    PageRank and CF iteration counts (runtimes are compared per
    iteration, so a few suffice), the CF hidden dimension, and the
    Graph500-style BFS source — the highest-out-degree vertex, because a
    random id can land on an isolated vertex and trivialize the run.
    """
    if algorithm == "pagerank":
        return {"iterations": HARNESS_ITERATIONS}
    if algorithm == "collaborative_filtering":
        return {"iterations": 2, "hidden_dim": HARNESS_HIDDEN_DIM}
    if algorithm in ("bfs", "sssp") and dataset is not None:
        return {"source": int(np.argmax(dataset.out_degrees()))}
    if algorithm == "label_propagation":
        return {"iterations": HARNESS_ITERATIONS}
    return {}


@dataclass
class RunResult:
    """Outcome of one experiment cell."""

    algorithm: str
    framework: str
    nodes: int
    status: str
    result: AlgorithmResult = None
    failure: str = ""
    config: dict = field(default_factory=dict)
    #: The Tracer passed to :func:`run`, if any. A declared dataclass
    #: field (not a shared class attribute) so instances never alias it
    #: and ``dataclasses.fields`` sees it; excluded from repr/compare
    #: because a tracer is a recording device, not part of the outcome.
    trace: object = field(default=None, repr=False, compare=False)
    #: RecoveryStats when run with faults=..., else None.
    recovery: object = field(default=None)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def _require_ok(self, what: str) -> None:
        if not self.ok:
            raise ReproError(
                f"{self.framework}/{self.algorithm} did not complete, so "
                f"{what} is unavailable: {self.status} ({self.failure})"
            )

    def runtime(self) -> float:
        """The paper's comparison number (time/iter or total), seconds."""
        self._require_ok("a runtime")
        return self.result.runtime_for_comparison()

    def runtime_or_none(self):
        """Like :meth:`runtime`, but ``None`` for failed runs."""
        return self.result.runtime_for_comparison() if self.ok else None

    def metrics(self):
        """The run's :class:`RunMetrics`; raises on failed runs.

        Mirrors :meth:`runtime` — both raise on failure, both have an
        ``_or_none`` variant for callers that tabulate failures.
        """
        self._require_ok("metrics")
        return self.result.metrics

    def metrics_or_none(self):
        """Like :meth:`metrics`, but ``None`` for failed runs."""
        return self.result.metrics if self.ok else None

    def to_dict(self) -> dict:
        """JSON-safe summary of the cell (for ``--json`` output)."""
        out = {
            "algorithm": self.algorithm,
            "framework": self.framework,
            "nodes": self.nodes,
            "status": self.status,
            "config": _jsonable(self.config),
        }
        if self.failure:
            out["failure"] = self.failure
        if self.ok:
            out["runtime_s"] = self.result.runtime_for_comparison()
            out["result"] = self.result.to_dict()
        out["recovery"] = (_jsonable(self.recovery.to_dict())
                           if self.recovery is not None else None)
        return out


def run(spec: ExperimentSpec, trace=None) -> RunResult:
    """Run one :class:`ExperimentSpec` cell on a fresh simulated cluster.

    ``spec.scale_factor`` is paper size / proxy size; it extrapolates
    the counted work, traffic and memory to the paper's dataset sizes.
    Unspecified algorithm parameters fall back to
    :func:`default_params`. Pass ``trace=Tracer()`` to flight-record the
    run; the tracer comes back on ``RunResult.trace`` with every span
    and counter the execution stack emitted.

    ``spec.dataset`` may be a catalog name (resolved through
    :func:`~repro.harness.datasets.catalog_dataset`) or an in-memory
    graph/ratings object.
    ``spec.kernels`` pins the kernel backend for the duration of the
    run; simulated results are backend-independent, so this only moves
    wall-clock time.

    ``spec.faults`` turns the cell into a chaos run: either a spec
    string (``"crash(node=2, superstep=3); drop(p=0.01)"``, seeded with
    ``spec.fault_seed``) or a :class:`~repro.chaos.FaultSchedule`. The
    framework's own :class:`~repro.chaos.RecoveryPolicy` applies unless
    ``spec.recovery`` overrides it; fault-free runs are byte-for-byte
    unaffected. Recovery accounting lands on ``RunResult.recovery``.
    Crashes a fail-fast framework cannot absorb raise
    :class:`~repro.errors.NodeFailure`.

    ``spec.deadline_s`` caps the cell's *simulated* runtime: the cluster
    raises :class:`~repro.errors.DeadlineExceeded` once its clock
    crosses the budget, which comes back as a ``timeout`` status — the
    paper's DNF dash — instead of an exception.
    """
    algorithm, framework, nodes = spec.algorithm, spec.framework, spec.nodes
    dataset = spec.dataset
    if isinstance(dataset, str):
        dataset = catalog_dataset(dataset)
    runner = _lookup(algorithm, framework)
    merged = dict(default_params(algorithm, dataset))
    merged.update(spec.params)
    faults = spec.faults
    recovery = spec.recovery
    if isinstance(faults, str):
        faults = FaultSchedule.from_spec(faults, seed=spec.fault_seed)
    elif faults is not None:
        faults = faults.fresh()
    if faults is not None and recovery is None:
        recovery = profile_for(framework).recovery_policy()
    cluster = Cluster(paper_cluster(nodes), scale_factor=spec.scale_factor,
                      enforce_memory=spec.enforce_memory, tracer=trace,
                      faults=faults, recovery=recovery,
                      deadline_s=spec.deadline_s)
    config = {"nodes": nodes, "scale_factor": spec.scale_factor, **merged}
    if spec.deadline_s is not None:
        config["deadline_s"] = spec.deadline_s
    if faults is not None:
        config["faults"] = faults.spec()
        config["fault_seed"] = faults.seed

    def _finish(status, result=None, failure=""):
        cell = RunResult(algorithm, framework, nodes, status, result=result,
                         failure=failure, config=config)
        cell.trace = cluster.tracer if trace is not None else None
        cell.recovery = cluster.recovery_stats() if faults is not None else None
        return cell

    backend = (use_backend(spec.kernels) if spec.kernels is not None
               else contextlib.nullcontext())
    with backend, cluster.trace_span("run", algorithm=algorithm,
                                     framework=framework, nodes=nodes):
        try:
            result = runner(dataset, cluster, **merged)
        except ReproError as error:
            failure = failure_class(error)
            if not failure.is_result:
                raise
            return _finish(failure.status, failure=str(error))
    return _finish(STATUS_OK, result=result)


def run_cell(key: dict, budget_s: float = None, trace=None,
             **spec_fields) -> RunResult:
    """Run the cell a sweep key names.

    ``key`` is ``{"algorithm", "framework"}`` plus the placement:
    ``"dataset"`` (absent = weak scaling) and ``"nodes"`` (default 1),
    resolved by :func:`~repro.harness.datasets.experiment_dataset`.
    ``budget_s`` is the simulated deadline; ``spec_fields`` are any other
    :class:`ExperimentSpec` fields (``params=``, ``enforce_memory=``).
    """
    nodes = key.get("nodes", 1)
    data, factor = experiment_dataset(key["algorithm"], key.get("dataset"),
                                      nodes)
    spec = ExperimentSpec(algorithm=key["algorithm"],
                          framework=key["framework"], dataset=data,
                          nodes=nodes, scale_factor=factor,
                          deadline_s=budget_s, **spec_fields)
    return run(spec, trace=trace)
