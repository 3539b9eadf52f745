"""Dispatch table: (algorithm, framework) -> runner.

Every runner has the uniform signature
``runner(dataset, cluster, **params) -> AlgorithmResult`` where
``dataset`` is a :class:`~repro.graph.CSRGraph` for the graph workloads
or a :class:`~repro.graph.RatingsMatrix` for collaborative filtering.
This is what the experiment harness iterates over to regenerate the
paper's tables and figures.

One :class:`Row` per framework says, as data, how it runs each
workload: the program-driven families (native, vertex, task, matrix)
name the :class:`~repro.frameworks.rounds.Engine` that charges each
round program and its fixed arguments (a :class:`Plan`); SociaLite
names the functions that evaluate its own rules (:class:`Rules`), all
but CF's, which is the round program too. Every runner is built from
its row once, at import.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field, replace

from ..errors import ExpressibilityError, SpecError
from ..frameworks.base import (
    COMBBLAS,
    GALOIS,
    GIRAPH,
    GPS,
    GRAPHLAB,
    GRAPHX,
    NATIVE,
    SOCIALITE,
    SOCIALITE_PUBLISHED,
    FrameworkProfile,
)
from ..frameworks.datalog import socialite
from ..frameworks.matrix import kdt
from ..frameworks.matrix.combblas import (
    MatrixCFEngine,
    MatrixEngine,
    MatrixTCEngine,
)
from ..frameworks.native.cf import NativeCFEngine
from ..frameworks.native.engine import NativeEngine, NativeTCEngine
from ..frameworks.native.options import NativeOptions
from ..frameworks.rounds import GRAPH_PROGRAMS, PROGRAMS, run_program
from ..frameworks.task.galois import GaloisCFEngine, GaloisEngine, GaloisTCEngine
from ..frameworks.vertex import giraph
from ..frameworks.vertex.programs import (
    VertexCFEngine,
    VertexEngine,
    VertexTCEngine,
)

ALGORITHMS = ("pagerank", "bfs", "triangle_counting",
              "collaborative_filtering",
              "wcc", "sssp", "k_core", "label_propagation")


@dataclass(frozen=True)
class Plan:
    """How a framework runs one round program.

    ``engine`` charges it, with ``args`` fixed; ``takes`` names the user
    parameters the engine adds to the program's; ``fixed`` pins program
    parameters (CF's ``method``), which the user then cannot name. Any
    parameter of a call that is not the program's goes to the engine,
    over ``args``.
    """

    engine: type
    args: dict = field(default_factory=dict)
    takes: tuple = ()
    fixed: dict = field(default_factory=dict)

    def params(self, algorithm: str) -> tuple:
        return (*self._own(algorithm), *self.takes)

    def _own(self, algorithm: str) -> tuple:
        return tuple(name for name in PROGRAMS[algorithm].PARAMS
                     if name not in self.fixed)

    def runner(self, algorithm: str, framework: str, row: Row):
        own, profile = self._own(algorithm), row.profile
        boundary = row.boundaries.get(algorithm)

        def run(dataset, cluster, **params):
            if not profile.multinode and cluster.num_nodes != 1:
                raise ExpressibilityError(
                    f"{profile.display_name} is a single-node framework "
                    f"(paper Section 3); got a {cluster.num_nodes}-node "
                    "cluster")
            engine = {**self.args, **params}
            program = {name: engine.pop(name) for name in own
                       if name in engine}
            result = run_program(algorithm, framework, self.engine, dataset,
                                 cluster, {**self.fixed, **program}, **engine)
            if boundary is not None:
                kdt.add_python_overhead(cluster, *boundary(dataset, result))
                result.metrics = cluster.metrics()
            return result
        return run


@dataclass(frozen=True)
class Rules:
    """A workload SociaLite evaluates from its own Datalog rules:
    ``function`` with ``args`` fixed."""

    function: object
    args: dict = field(default_factory=dict)

    def params(self, algorithm: str) -> tuple:
        keywords = list(inspect.signature(self.function).parameters)[2:]
        return tuple(name for name in keywords if name not in self.args)

    def runner(self, algorithm: str, framework: str, row: Row):
        return functools.partial(self.function, **self.args)


@dataclass(frozen=True)
class Row:
    """One framework: its profile and a plan per workload.

    ``boundaries`` is KDT's: per workload, the Python-boundary charge
    (:data:`~repro.frameworks.matrix.kdt.BOUNDARIES`) added to the run.
    """

    profile: FrameworkProfile
    plans: dict
    boundaries: dict = field(default_factory=dict)


def _plans(graph: Plan, triangle_counting: Plan,
           collaborative_filtering: Plan) -> dict:
    return {**dict.fromkeys(GRAPH_PROGRAMS, graph),
            "triangle_counting": triangle_counting,
            "collaborative_filtering": collaborative_filtering}


_GD, _SGD = {"method": "gd"}, {"method": "sgd"}
_OPTIONS, _SPLITS = ("options",), ("superstep_splits",)


def _vertex(profile, partition_mode, triangle_counting=None,
            collaborative_filtering=None) -> Row:
    """A vertex framework: a profile, a partitioning, and its default
    arguments to :class:`VertexTCEngine` / :class:`VertexCFEngine`
    (superstep splitting, combiners, the cuckoo structure)."""
    args = {"profile": profile, "partition_mode": partition_mode}
    return Row(profile, _plans(
        Plan(VertexEngine, args),
        Plan(VertexTCEngine, {**args, **(triangle_counting or {})}, _SPLITS),
        Plan(VertexCFEngine, {**args, **(collaborative_filtering or {})},
             _SPLITS, _GD)))


def _socialite(profile, optimized: bool) -> Row:
    """SociaLite's rules; CF is GD under :class:`TableCFEngine`. The
    published stack is the same functions with ``optimized=False``."""
    args = {} if optimized else {"optimized": False}
    takes = ("optimized",) if optimized else ()
    rules = {"pagerank": socialite.pagerank, "bfs": socialite.bfs,
             "triangle_counting": socialite.triangle_count,
             "wcc": socialite.wcc, "sssp": socialite.sssp,
             "k_core": socialite.k_core,
             "label_propagation": socialite.label_propagation}
    return Row(profile, {
        **{algorithm: Rules(function, args)
           for algorithm, function in rules.items()},
        "collaborative_filtering": Plan(socialite.TableCFEngine, args, takes,
                                        _GD)})


# GD via K per-dimension SpMVs an iteration (Section 3.2).
_COMBBLAS = Row(COMBBLAS, _plans(Plan(MatrixEngine), Plan(MatrixTCEngine),
                                 Plan(MatrixCFEngine, fixed=_GD)))

#: The paper's frameworks plus the Section 7 related-work systems.
ROWS = {
    # CF's method stays a parameter: SGD on Gemulla's blocks by default.
    "native": Row(NATIVE, _plans(Plan(NativeEngine, takes=_OPTIONS),
                                 Plan(NativeTCEngine, takes=_OPTIONS),
                                 Plan(NativeCFEngine, takes=_OPTIONS))),
    "combblas": _COMBBLAS,
    "graphlab": _vertex(GRAPHLAB, "vertex-cut",
                        triangle_counting={"use_cuckoo": True}),
    "socialite": _socialite(SOCIALITE, optimized=True),
    "socialite-published": _socialite(SOCIALITE_PUBLISHED, optimized=False),
    # The paper's Giraph CF staggers senders in phases and deduplicates
    # the factor vector sent towards each node (Section 3.2) — i.e. a
    # combiner is installed for this program, unlike the defaults.
    "giraph": _vertex(
        GIRAPH, "1d",
        triangle_counting={"superstep_splits": giraph.TRIANGLE_SPLITS},
        collaborative_filtering={"superstep_splits": giraph.CF_SPLITS,
                                 "combine_messages": True}),
    # True SGD (Section 3.2), the only framework besides native to run
    # it; native's toggles are accepted and change nothing on one node.
    "galois": Row(GALOIS, _plans(
        Plan(GaloisEngine), Plan(GaloisTCEngine),
        Plan(GaloisCFEngine, takes=_OPTIONS, fixed=_SGD))),
    "gps": _vertex(GPS, "vertex-cut",
                   triangle_counting={"superstep_splits": 10},
                   collaborative_filtering={"superstep_splits": 4}),
    "graphx": _vertex(GRAPHX, "1d",
                      triangle_counting={"superstep_splits": 4},
                      collaborative_filtering={"superstep_splits": 4,
                                               "combine_messages": True}),
    # KDT executes through CombBLAS, so its cluster-facing behaviour
    # (including fault handling) is CombBLAS's.
    "kdt": replace(_COMBBLAS, boundaries=kdt.BOUNDARIES),
}
FRAMEWORKS = tuple(ROWS)

_RUNNERS = {(algorithm, framework):
            row.plans[algorithm].runner(algorithm, framework, row)
            for framework, row in ROWS.items() for algorithm in ALGORITHMS}
_ACCEPTED = {(algorithm, framework):
             tuple(sorted(row.plans[algorithm].params(algorithm)))
             for framework, row in ROWS.items() for algorithm in ALGORITHMS}
_VALID = {algorithm: tuple(sorted({
    name for framework in FRAMEWORKS
    for name in _ACCEPTED[algorithm, framework]})) for algorithm in ALGORITHMS}

#: The declared type of every parameter name a runner takes; an
#: ``ExperimentSpec`` checks its ``params`` against it (``None`` = the
#: runner's default) before any range check.
PARAM_TYPES = {
    "iterations": int, "hidden_dim": int, "source": int, "seed": int,
    "superstep_splits": int, "damping": float, "tolerance": float,
    "gamma0": float, "lambda_reg": float, "step_decay": float,
    "method": str, "optimized": bool, "options": NativeOptions,
    "profile_override": FrameworkProfile,
}


def valid_params(algorithm: str) -> tuple:
    """Parameter names some registered runner of ``algorithm`` accepts,
    sorted: its round program's ``PARAMS`` and what its engines and
    SociaLite's rules add."""
    return _VALID[algorithm]


def accepted_params(algorithm: str, framework: str) -> tuple:
    """The names of :func:`valid_params` this framework's runner takes.

    ``valid_params`` is per algorithm, runners are per framework: PageRank
    has a ``tolerance`` but SociaLite's rules do not, ``options`` is
    native's (and Galois CF's) alone.
    """
    return _ACCEPTED[algorithm, framework]


def check_names(kind: str, names, known) -> None:
    """Refuse any of ``names`` not in ``known``, naming the known ones."""
    unknown = [name for name in names if name not in known]
    if unknown:
        raise SpecError(f"unknown {kind} {', '.join(map(repr, unknown))}; "
                        f"known: {', '.join(known)}")


def profile_for(framework: str) -> FrameworkProfile:
    """The :class:`FrameworkProfile` a registry framework runs under."""
    check_names("framework", (framework,), FRAMEWORKS)
    return ROWS[framework].profile


def runner(algorithm: str, framework: str):
    """Look up the runner; raises :class:`~repro.errors.SpecError` for
    unknown names."""
    check_names("algorithm", (algorithm,), ALGORITHMS)
    check_names("framework", (framework,), FRAMEWORKS)
    return _RUNNERS[algorithm, framework]
