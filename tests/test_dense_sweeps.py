"""A dense iteration reaches the cluster as one chunk of superstep rows.

Every engine family's ``Engine.sweep`` charges its iteration's rows in
one :meth:`~repro.cluster.Cluster.supersteps` call, the iteration mark
and (while the tracer is on) the iteration's spans declared with them;
no row goes through the one-row :meth:`~repro.cluster.Cluster.superstep`.
This holds for every registry cell of a dense workload that an
``Engine`` runs, traced or not. SociaLite's own rules charge each
rule-evaluation round the same way, and take no span, count or instant
on a tracer themselves.
"""

import sys
from pathlib import Path

import pytest

from repro.algorithms.registry import ROWS, Plan, Rules
from repro.cluster import Cluster
from repro.datagen import netflix_like_ratings, rmat_graph, rmat_triangle_graph
from repro.harness.runner import run
from repro.harness.spec import ExperimentSpec
from repro.observability import Tracer
from repro.observability.tracer import NullTracer

DENSE = ("pagerank", "label_propagation", "triangle_counting",
         "collaborative_filtering")
CELLS = [(algorithm, framework) for framework, row in ROWS.items()
         for algorithm in DENSE if isinstance(row.plans[algorithm], Plan)]
RULE_CELLS = [(algorithm, framework) for framework, row in ROWS.items()
              for algorithm, plan in row.plans.items()
              if isinstance(plan, Rules)]


@pytest.fixture(scope="module")
def datasets():
    undirected = rmat_graph(scale=8, edge_factor=6, seed=5)
    return {
        "pagerank": rmat_graph(scale=8, edge_factor=6, seed=5, directed=True),
        **dict.fromkeys(("label_propagation", "bfs", "wcc", "sssp", "k_core"),
                        undirected),
        "triangle_counting": rmat_triangle_graph(scale=8, edge_factor=6,
                                                 seed=5),
        "collaborative_filtering": netflix_like_ratings(8, num_items=48,
                                                        seed=5),
    }


def test_every_engine_family_is_covered():
    engines = {ROWS[framework].plans[algorithm].engine.__module__
               for algorithm, framework in CELLS}
    assert {name.rsplit(".", 2)[-2] for name in engines} \
        == {"native", "vertex", "task", "matrix", "datalog"}


def _count_calls(monkeypatch) -> dict:
    """Count :class:`Cluster`'s ``superstep`` and ``supersteps`` calls."""
    calls = {"superstep": 0, "supersteps": 0}

    def counted(name):
        method = getattr(Cluster, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return method(self, *args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(Cluster, name, counted(name))
    return calls


def _run(algorithm, framework, nodes, traced, datasets):
    return run(ExperimentSpec(
        algorithm=algorithm, framework=framework,
        dataset=datasets[algorithm], nodes=nodes, scale_factor=2e4,
        enforce_memory=False), trace=Tracer() if traced else None)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("nodes", [1, 4])
@pytest.mark.parametrize("algorithm,framework", CELLS)
def test_a_dense_iteration_is_one_supersteps_call(algorithm, framework,
                                                  nodes, traced, datasets,
                                                  monkeypatch):
    calls = _count_calls(monkeypatch)
    cell = _run(algorithm, framework, nodes, traced, datasets)
    if cell.status == "unsupported":     # a single-node framework
        assert nodes > 1 and calls == {"superstep": 0, "supersteps": 0}
        return
    assert cell.ok, cell.failure
    assert calls == {"superstep": 0,
                     "supersteps": cell.result.iterations}


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("nodes", [1, 4])
@pytest.mark.parametrize("algorithm,framework", RULE_CELLS)
def test_a_rule_round_is_one_supersteps_call(algorithm, framework, nodes,
                                             traced, datasets, monkeypatch):
    """Each semi-naive round, PageRank iteration or triangle join is one
    ``supersteps`` call, and ``frameworks/datalog`` never calls a tracer
    (the null one included): the cluster emits the declared spans."""
    calls, callers = _count_calls(monkeypatch), []

    def watched(method):
        def wrapper(self, *args, **kwargs):
            callers.append(Path(sys._getframe(1).f_code.co_filename))
            return method(self, *args, **kwargs)
        return wrapper

    for cls in (NullTracer, Tracer):
        for name in ("span", "count", "instant", "record"):
            monkeypatch.setattr(cls, name, watched(getattr(cls, name)))
    cell = _run(algorithm, framework, nodes, traced, datasets)
    assert not [caller for caller in callers if "datalog" in caller.parts]
    if cell.status == "unsupported":     # not expressible as Datalog
        assert calls == {"superstep": 0, "supersteps": 0}
        return
    assert cell.ok, cell.failure
    assert calls == {"superstep": 0,
                     "supersteps": cell.result.iterations}
    if traced:
        assert cell.trace.spans_named("rule-eval")
