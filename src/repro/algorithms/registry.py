"""Dispatch table: (algorithm, framework) -> runner.

Every runner has the uniform signature
``runner(dataset, cluster, **params) -> AlgorithmResult`` where
``dataset`` is a :class:`~repro.graph.CSRGraph` for the graph workloads
or a :class:`~repro.graph.RatingsMatrix` for collaborative filtering.
This is what the experiment harness iterates over to regenerate the
paper's tables and figures.
"""

from __future__ import annotations

from ..errors import ExpressibilityError, SpecError
from ..frameworks import native
from ..frameworks.base import PROFILES, FrameworkProfile, runner_params
from ..frameworks.datalog import socialite
from ..frameworks.matrix import combblas, kdt
from ..frameworks.rounds import PROGRAMS
from ..frameworks.task import galois
from ..frameworks.vertex import giraph, gps, graphlab, graphx

ALGORITHMS = ("pagerank", "bfs", "triangle_counting",
              "collaborative_filtering",
              "wcc", "sssp", "k_core", "label_propagation")
#: A workload's entry point on a framework module, where the name differs.
_ENTRY_POINTS = {"triangle_counting": "triangle_count"}

_MODULES = {
    "native": native,
    "combblas": combblas,
    "graphlab": graphlab,
    "socialite": socialite,
    "giraph": giraph,
    "galois": galois,
    "gps": gps,
    "graphx": graphx,
    "kdt": kdt,
}
#: The paper's frameworks plus the Section 7 related-work systems.
FRAMEWORKS = ("native", "combblas", "graphlab", "socialite",
              "socialite-published", "giraph", "galois", "gps", "graphx", "kdt")


def _socialite_published(function):
    def runner(dataset, cluster, **params):
        return function(dataset, cluster, optimized=False, **params)
    runner.params = tuple(name for name in runner_params(function)
                          if name != "optimized")
    return runner


# A framework module's runner for a workload is its attribute of that
# name: the program-driven families (native, vertex, task, matrix)
# publish one per round program, the Datalog module evaluates its own
# rules (all but CF's, which is the round program too). A module without the attribute has no implementation — runner()
# reports that as a typed ExpressibilityError. SociaLite's k_core /
# label_propagation are stubs raising the same error with the reason the
# language cannot express them (see their docstrings).
_RUNNERS = {}
for _framework, _module in _MODULES.items():
    for _algorithm in ALGORITHMS:
        _function = getattr(
            _module, _ENTRY_POINTS.get(_algorithm, _algorithm), None)
        if _function is None:
            continue
        _RUNNERS[(_algorithm, _framework)] = _function
        if _framework == "socialite":
            _RUNNERS[(_algorithm, "socialite-published")] = \
                _socialite_published(_function)

#: Parameters that engines, not round programs, declare: the vertex
#: family's triangle-counting and CF superstep splitting, and SociaLite
#: PageRank's roadmap profile.
_ENGINE_PARAMS = {
    "pagerank": ("profile_override",),
    "triangle_counting": ("superstep_splits",),
    "collaborative_filtering": ("superstep_splits",),
}
#: Knobs two engines add to every workload: native's NativeOptions
#: toggles and SociaLite's network stack.
_FRAMEWORK_PARAMS = ("optimized", "options")
#: The declared type of every parameter name above; an
#: ``ExperimentSpec`` checks its ``params`` against it (``None`` = the
#: runner's default) before any range check.
PARAM_TYPES = {
    "iterations": int, "hidden_dim": int, "source": int, "seed": int,
    "superstep_splits": int, "damping": float, "tolerance": float,
    "gamma0": float, "lambda_reg": float, "step_decay": float,
    "method": str, "optimized": bool, "options": native.NativeOptions,
    "profile_override": FrameworkProfile,
}


def valid_params(algorithm: str) -> tuple:
    """Parameter names some registered runner of ``algorithm`` accepts.

    The workload's declared parameters (its round program's ``PARAMS``
    and what its engines declare) plus the per-framework knobs, sorted.
    """
    return tuple(sorted({*PROGRAMS[algorithm].PARAMS,
                         *_ENGINE_PARAMS.get(algorithm, ()),
                         *_FRAMEWORK_PARAMS}))


def accepted_params(algorithm: str, framework: str) -> tuple:
    """The names of :func:`valid_params` this framework's runner takes.

    ``valid_params`` is per algorithm, runners are per framework: PageRank
    has a ``tolerance`` but SociaLite's rules do not, ``options`` is
    native's alone. A framework with no runner takes anything — its cell
    reports ``unsupported`` whatever the parameters.
    """
    valid = valid_params(algorithm)
    function = _RUNNERS.get((algorithm, framework))
    if function is None:
        return valid
    taken = runner_params(function)
    return tuple(name for name in valid if name in taken)


#: Profiles for the Section 7 systems, which live next to their engines
#: rather than in the base table. KDT executes through CombBLAS, so its
#: cluster-facing behaviour (including fault handling) is CombBLAS's.
_EXTRA_PROFILES = {
    "gps": gps.GPS,
    "graphx": graphx.GRAPHX,
    "kdt": PROFILES["combblas"],
}


def check_names(kind: str, names, known) -> None:
    """Refuse any of ``names`` not in ``known``, naming the known ones."""
    unknown = [name for name in names if name not in known]
    if unknown:
        raise SpecError(f"unknown {kind} {', '.join(map(repr, unknown))}; "
                        f"known: {', '.join(known)}")


def profile_for(framework: str) -> FrameworkProfile:
    """The :class:`FrameworkProfile` a registry framework runs under."""
    check_names("framework", (framework,), FRAMEWORKS)
    return _EXTRA_PROFILES.get(framework) or PROFILES[framework]


def runner(algorithm: str, framework: str):
    """Look up the runner; raises for unknown or unsupported combos."""
    check_names("algorithm", (algorithm,), ALGORITHMS)
    check_names("framework", (framework,), FRAMEWORKS)
    try:
        return _RUNNERS[(algorithm, framework)]
    except KeyError:
        raise ExpressibilityError(
            f"{framework} has no {algorithm} implementation"
        ) from None
