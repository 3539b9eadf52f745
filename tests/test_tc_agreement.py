"""Triangle counting is one program: every framework's count agrees.

The paper counts triangles the same way on every framework (equation 3)
and the frameworks differ only in what the superstep costs. So on
hypothesis-generated small oriented graphs every framework, under both
kernel backends and at any node count, must return
``triangle_count_reference`` — and still must after the vertices are
relabeled and the edges re-oriented. The count is derived once per
graph and backend: a second cell on a resident graph reads it back
without running the kernel or pinning an array, and CombBLAS and
SociaLite, which count through their own product and rule, never run
the shared kernel at all. Input that is not simple and oriented is a
typed error everywhere, never a silently wrong count.
"""

import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms import triangle_count_reference
from repro.algorithms.registry import FRAMEWORKS, runner
from repro.cluster import Cluster, paper_cluster
from repro.datagen import rmat_graph, rmat_triangle_graph
from repro.errors import GraphFormatError
from repro.graph import CSRGraph, EdgeList
from repro.graph.csr import _arrays_in
from repro.kernels.backend import BACKENDS, use_backend
from repro.kernels.triangles import TriangleMaskedCount

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
NODES = (1, 2, 4)
#: Fixed profile: the same examples on every run, inside tier-1's budget.
agreement_settings = settings(max_examples=20, deadline=None,
                              derandomize=True, database=None)


def count(framework, graph, nodes=1):
    cluster = Cluster(paper_cluster(nodes), enforce_memory=False)
    return runner("triangle_counting", framework)(graph, cluster).values


def oriented(n, pairs) -> CSRGraph:
    return CSRGraph.from_edges(EdgeList.from_pairs(n, pairs),
                               orient_by_id=True, deduplicate=True)


def cells():
    """Every (framework, nodes) that runs triangle counting."""
    return [(framework, nodes) for framework in FRAMEWORKS
            for nodes in ((1,) if framework == "galois" else NODES)]


def _pairs(n):
    vertex = st.integers(min_value=0, max_value=n - 1)
    return st.tuples(st.just(n), st.lists(st.tuples(vertex, vertex),
                                          min_size=n, max_size=4 * n),
                     st.permutations(range(n)))


@agreement_settings
@given(st.integers(min_value=2, max_value=12).flatmap(_pairs))
@example((1, [], [0]))
@example((4, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 2), (1, 1), (2, 1)],
          [3, 1, 0, 2]))
def test_every_framework_returns_the_reference(case):
    n, pairs, labels = case
    graph = oriented(n, pairs)
    relabeled = oriented(n, [(labels[u], labels[v]) for u, v in pairs])
    expected = triangle_count_reference(graph)
    assert triangle_count_reference(relabeled) == expected
    for backend in BACKENDS:
        with use_backend(backend):
            for framework, nodes in cells():
                assert count(framework, graph, nodes) == expected, \
                    (backend, framework, nodes)
                assert count(framework, relabeled, nodes) == expected, \
                    (backend, framework, nodes, "relabeled")


# ---------------------------------------------------------------------------
# Input that is not simple and oriented.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("graph", [
    rmat_graph(8, 8, seed=1, directed=False),
    # The triangle {0, 1, 2} with its edge 0 -> 2 stored twice.
    CSRGraph(3, [0, 3, 4, 4], [1, 2, 2, 2]),
    # Oriented but unsorted: 0 -> 2 before 0 -> 1.
    CSRGraph(3, [0, 2, 3, 3], [2, 1, 2]),
], ids=["symmetric", "duplicate-edge", "unsorted-row"])
def test_unoriented_input_is_a_typed_error_everywhere(graph):
    with pytest.raises(GraphFormatError):
        triangle_count_reference(graph)
    for framework in FRAMEWORKS:
        with pytest.raises(GraphFormatError):
            count(framework, graph)


# ---------------------------------------------------------------------------
# The count is derived once per graph and backend.
# ---------------------------------------------------------------------------


@pytest.fixture
def kernel_steps(monkeypatch):
    steps = []
    step = TriangleMaskedCount.step

    def counted(self):
        steps.append(self.graph)
        return step(self)
    monkeypatch.setattr(TriangleMaskedCount, "step", counted)
    return steps


def test_a_resident_graph_counts_once_per_backend(kernel_steps):
    graph = rmat_triangle_graph(scale=8, edge_factor=6, seed=97)
    cells = (("native", 4), ("giraph", 2), ("graphlab", 1), ("galois", 1))
    first = [count(framework, graph, nodes) for framework, nodes in cells]
    assert len(kernel_steps) == 1 and len(set(first)) == 1
    held = graph.resident_nbytes()
    assert [count(framework, graph, nodes)
            for framework, nodes in cells] == first
    assert len(kernel_steps) == 1
    assert graph.resident_nbytes() == held
    facts = [value for key, value in graph._derived.items()
             if key[0] == "triangles"]
    assert len(facts) == 1 and not _arrays_in(facts[0])
    other = next(backend for backend in BACKENDS
                 if ("triangles", backend) not in graph._derived)
    with use_backend(other):
        assert count("gps", graph) == first[0]
    assert len(kernel_steps) == 2


@pytest.mark.parametrize("framework", ["combblas", "kdt", "socialite"])
def test_own_product_frameworks_never_run_the_shared_kernel(
        kernel_steps, framework):
    graph = rmat_triangle_graph(scale=8, edge_factor=6, seed=97)
    assert count(framework, graph, 4) == triangle_count_reference(graph)
    assert kernel_steps == []


# ---------------------------------------------------------------------------
# Keep the per-framework triangle drivers from coming back.
# ---------------------------------------------------------------------------

TC_KERNEL_LOOKUP = re.compile(r"masked-spgemm|kernel\(\s*[\"']triangle")


def test_triangle_counting_is_defined_once():
    """One masked-SpGEMM lookup outside ``kernels/``: the round program's."""
    sites = [f"{path.relative_to(SRC).as_posix()}:{number}"
             for path in sorted(SRC.rglob("*.py"))
             if path.parent.name != "kernels"
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if TC_KERNEL_LOOKUP.search(line)]
    assert len(sites) == 1 and sites[0].startswith("frameworks/rounds.py:")
    assert not (SRC / "frameworks" / "native" / "triangle.py").exists()
