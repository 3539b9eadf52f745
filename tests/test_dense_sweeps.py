"""A dense iteration reaches the cluster as one chunk of superstep rows.

Every engine family's ``Engine.sweep`` charges its iteration's rows in
one :meth:`~repro.cluster.Cluster.supersteps` call, the iteration mark
and (while the tracer is on) the iteration's spans declared with them;
no row goes through the one-row :meth:`~repro.cluster.Cluster.superstep`.
This holds for every registry cell of a dense workload that an
``Engine`` runs (SociaLite's own rules aside), traced or not.
"""

import pytest

from repro.algorithms.registry import ROWS, Plan
from repro.cluster import Cluster
from repro.datagen import netflix_like_ratings, rmat_graph, rmat_triangle_graph
from repro.harness.runner import run
from repro.harness.spec import ExperimentSpec
from repro.observability import Tracer

DENSE = ("pagerank", "label_propagation", "triangle_counting",
         "collaborative_filtering")
CELLS = [(algorithm, framework) for framework, row in ROWS.items()
         for algorithm in DENSE if isinstance(row.plans[algorithm], Plan)]


@pytest.fixture(scope="module")
def datasets():
    return {
        "pagerank": rmat_graph(scale=8, edge_factor=6, seed=5, directed=True),
        "label_propagation": rmat_graph(scale=8, edge_factor=6, seed=5),
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


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("nodes", [1, 4])
@pytest.mark.parametrize("algorithm,framework", CELLS)
def test_a_dense_iteration_is_one_supersteps_call(algorithm, framework,
                                                  nodes, traced, datasets,
                                                  monkeypatch):
    calls = {"superstep": 0, "supersteps": 0}

    def counted(name):
        method = getattr(Cluster, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return method(self, *args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(Cluster, name, counted(name))
    cell = run(ExperimentSpec(
        algorithm=algorithm, framework=framework,
        dataset=datasets[algorithm], nodes=nodes, scale_factor=2e4,
        enforce_memory=False), trace=Tracer() if traced else None)
    if cell.status == "unsupported":     # a single-node framework
        assert nodes > 1 and calls == {"superstep": 0, "supersteps": 0}
        return
    assert cell.ok, cell.failure
    assert calls == {"superstep": 0,
                     "supersteps": cell.result.iterations}
