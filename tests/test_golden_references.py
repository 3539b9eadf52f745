"""Tests for the golden reference algorithms."""

import numpy as np
import pytest

from repro.algorithms import (
    UNREACHED,
    bfs_reference,
    pagerank_matrix_form,
    pagerank_reference,
    per_vertex_triangles,
    regularized_loss,
    rmse,
    triangle_count_reference,
    validate_distances,
)
from repro.datagen import rmat_graph, rmat_triangle_graph
from repro.errors import GraphFormatError
from repro.graph import CSRGraph, EdgeList, RatingsMatrix


def paper_figure2_graph():
    return CSRGraph.from_edges(
        EdgeList.from_pairs(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    )


class TestPageRankReference:
    def test_one_iteration_by_hand(self):
        # Figure 2 graph, all ranks 1, r=0.3:
        # PR(0)=0.3; PR(1)=0.3+0.7*(1/2)=0.65;
        # PR(2)=0.3+0.7*(1/2+1/2)=1.0; PR(3)=0.3+0.7*(1/2+1/1)=1.35.
        ranks = pagerank_reference(paper_figure2_graph(), iterations=1)
        np.testing.assert_allclose(ranks, [0.3, 0.65, 1.0, 1.35])

    def test_matches_matrix_form(self):
        graph = rmat_graph(scale=7, edge_factor=6, seed=11)
        fast = pagerank_reference(graph, iterations=8)
        dense = pagerank_matrix_form(graph, iterations=8)
        np.testing.assert_allclose(fast, dense, rtol=1e-10)

    def test_zero_iterations_is_initial(self):
        ranks = pagerank_reference(paper_figure2_graph(), iterations=0)
        np.testing.assert_array_equal(ranks, np.ones(4))

    def test_dangling_vertices_contribute_nothing(self):
        graph = CSRGraph.from_edges(EdgeList.from_pairs(3, [(0, 1)]))
        ranks = pagerank_reference(graph, iterations=1)
        # Vertex 2 is isolated: rank = r.
        assert ranks[2] == pytest.approx(0.3)

    def test_matrix_form_rejects_large(self):
        with pytest.raises(ValueError):
            pagerank_matrix_form(rmat_graph(scale=13, edge_factor=2))


class TestBFSReference:
    def test_line_graph(self):
        graph = CSRGraph.from_edges(
            EdgeList.from_pairs(4, [(0, 1), (1, 2), (2, 3)]).symmetrize()
        )
        np.testing.assert_array_equal(bfs_reference(graph, 0), [0, 1, 2, 3])

    def test_unreachable(self):
        graph = CSRGraph.from_edges(EdgeList.from_pairs(3, [(0, 1), (1, 0)]))
        distances = bfs_reference(graph, 0)
        assert distances[2] == UNREACHED

    def test_source_validation(self):
        with pytest.raises(ValueError):
            bfs_reference(paper_figure2_graph(), source=10)

    def test_validate_distances_accepts_reference(self):
        graph = rmat_graph(scale=8, edge_factor=6, seed=3, directed=False)
        source = int(np.argmax(graph.out_degrees()))
        distances = bfs_reference(graph, source)
        assert validate_distances(graph, source, distances)

    def test_validate_distances_rejects_corruption(self):
        graph = rmat_graph(scale=8, edge_factor=6, seed=3, directed=False)
        source = int(np.argmax(graph.out_degrees()))
        distances = bfs_reference(graph, source).copy()
        reached = np.nonzero((distances > 0) & (distances != UNREACHED))[0]
        distances[reached[0]] += 5
        assert not validate_distances(graph, source, distances)


class TestTriangleReference:
    def test_known_counts(self):
        # K4 has 4 triangles.
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        graph = CSRGraph.from_edges(EdgeList.from_pairs(4, pairs))
        assert triangle_count_reference(graph) == 4

    def test_triangle_free(self):
        graph = CSRGraph.from_edges(
            EdgeList.from_pairs(6, [(0, 3), (1, 4), (2, 5)])
        )
        assert triangle_count_reference(graph) == 0

    def test_requires_orientation(self):
        graph = CSRGraph.from_edges(
            EdgeList.from_pairs(3, [(0, 1), (1, 0), (1, 2), (0, 2)])
        )
        with pytest.raises(GraphFormatError):
            triangle_count_reference(graph)

    def test_per_vertex_sums_to_total(self):
        graph = rmat_triangle_graph(scale=8, edge_factor=6, seed=4)
        assert per_vertex_triangles(graph).sum() == \
            triangle_count_reference(graph)


class TestCFOracles:
    def test_perfect_factors_zero_rmse(self):
        p = np.array([[1.0, 0.0], [0.0, 1.0]])
        q = np.array([[2.0, 0.0], [0.0, 3.0]])
        ratings = RatingsMatrix(2, 2, [0, 1], [0, 1], [2.0, 3.0])
        assert rmse(ratings, p, q) == pytest.approx(0.0)

    def test_loss_includes_regularization(self):
        p = np.ones((1, 2))
        q = np.ones((1, 2))
        ratings = RatingsMatrix(1, 1, [0], [0], [2.0])
        # residual 0; reg = 0.05*2 + 0.05*2 = 0.2
        assert regularized_loss(ratings, p, q) == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# Second-generation workloads: WCC, SSSP, k-core, label propagation.
# ---------------------------------------------------------------------------

from repro.algorithms import (  # noqa: E402
    UNREACHED_DIST,
    edge_weights_for,
    initial_labels,
    kcore_reference,
    label_propagation_reference,
    lp_step_reference,
    sssp_reference,
    validate_components,
    validate_kcore,
    validate_sssp,
    wcc_reference,
)


def line_graph(n=4):
    pairs = [(i, i + 1) for i in range(n - 1)]
    return CSRGraph.from_edges(EdgeList.from_pairs(n, pairs).symmetrize())


class TestWCCReference:
    def test_two_components(self):
        graph = CSRGraph.from_edges(
            EdgeList.from_pairs(5, [(0, 1), (1, 2), (3, 4)]).symmetrize()
        )
        np.testing.assert_array_equal(wcc_reference(graph), [0, 0, 0, 3, 3])

    def test_isolated_vertices_are_their_own_component(self):
        graph = CSRGraph.from_edges(EdgeList.from_pairs(3, []))
        np.testing.assert_array_equal(wcc_reference(graph), [0, 1, 2])

    def test_validate_accepts_reference(self):
        graph = rmat_graph(scale=8, edge_factor=6, seed=5, directed=False)
        assert validate_components(graph, wcc_reference(graph))

    def test_validate_rejects_split_component(self):
        graph = line_graph(4)
        labels = wcc_reference(graph).copy()
        labels[3] = 3
        assert not validate_components(graph, labels)


class TestSSSPReference:
    def test_line_graph_distances_sum_weights(self):
        graph = line_graph(4)
        weights = edge_weights_for(graph)
        distances = sssp_reference(graph, source=0)
        assert distances[0] == 0.0
        # Each hop adds that edge's hash weight exactly.
        total = 0.0
        for u in range(3):
            row = slice(graph.offsets[u], graph.offsets[u + 1])
            step = weights[row][graph.targets[row] == u + 1][0]
            total += step
            assert distances[u + 1] == pytest.approx(total)

    def test_unreachable_is_inf(self):
        graph = CSRGraph.from_edges(
            EdgeList.from_pairs(3, [(0, 1), (1, 0)])
        )
        assert sssp_reference(graph, 0)[2] == UNREACHED_DIST

    def test_weights_are_symmetric_small_integers(self):
        graph = rmat_graph(scale=7, edge_factor=6, seed=6, directed=False)
        weights = edge_weights_for(graph)
        assert weights.min() >= 1.0 and weights.max() <= 8.0
        assert np.all(weights == np.rint(weights))
        # The hash is on the unordered endpoint pair: (u,v) == (v,u).
        lookup = {}
        for e, (u, v) in enumerate(zip(graph.sources().tolist(),
                                       graph.targets.tolist())):
            lookup[(u, v)] = weights[e]
        for (u, v), w in lookup.items():
            if (v, u) in lookup:
                assert lookup[(v, u)] == w

    def test_validate_accepts_reference(self):
        graph = rmat_graph(scale=8, edge_factor=6, seed=7, directed=False)
        source = int(np.argmax(graph.out_degrees()))
        assert validate_sssp(graph, source, sssp_reference(graph, source))

    def test_source_validation(self):
        with pytest.raises(ValueError):
            sssp_reference(line_graph(3), source=99)


class TestKCoreReference:
    def test_k4_is_3_core(self):
        pairs = [(i, j) for i in range(4) for j in range(4) if i != j]
        graph = CSRGraph.from_edges(EdgeList.from_pairs(4, pairs))
        np.testing.assert_array_equal(kcore_reference(graph), [3, 3, 3, 3])

    def test_line_graph_is_1_core(self):
        core = kcore_reference(line_graph(5))
        np.testing.assert_array_equal(core, np.ones(5, dtype=np.int64))

    def test_isolated_vertex_is_0_core(self):
        graph = CSRGraph.from_edges(
            EdgeList.from_pairs(4, [(0, 1), (1, 2), (0, 2)]).symmetrize()
        )
        core = kcore_reference(graph)
        assert core[3] == 0 and core[:3].max() == 2

    def test_validate_accepts_reference(self):
        graph = rmat_graph(scale=8, edge_factor=6, seed=8, directed=False)
        assert validate_kcore(graph, kcore_reference(graph))


class TestLabelPropagationReference:
    def test_initial_labels_is_seeded_permutation(self):
        labels = initial_labels(16, seed=0)
        np.testing.assert_array_equal(np.sort(labels), np.arange(16))
        np.testing.assert_array_equal(labels, initial_labels(16, seed=0))
        assert not np.array_equal(labels, initial_labels(16, seed=1))

    def test_one_round_adopts_most_frequent(self):
        # Star: center 0 with leaves 1..3; labels forced by hand.
        graph = CSRGraph.from_edges(
            EdgeList.from_pairs(4, [(0, 1), (0, 2), (0, 3)]).symmetrize()
        )
        labels = np.array([9, 5, 5, 7], dtype=np.int64)
        new = lp_step_reference(graph, labels)
        assert new[0] == 5          # two 5s beat one 7
        assert set(new[1:]) == {9}  # leaves see only the center

    def test_tie_breaks_toward_min_label(self):
        graph = CSRGraph.from_edges(
            EdgeList.from_pairs(3, [(0, 2), (1, 2)])
        )
        labels = np.array([4, 2, 0], dtype=np.int64)
        assert lp_step_reference(graph, labels)[2] == 2

    def test_isolated_vertex_keeps_label(self):
        graph = CSRGraph.from_edges(EdgeList.from_pairs(2, []))
        labels = label_propagation_reference(graph, iterations=3, seed=0)
        np.testing.assert_array_equal(np.sort(labels), [0, 1])


class TestFrozenSecondGenOutputs:
    """Frozen digests of the references on small catalog proxies.

    Any change to the datasets, the weight hash, the seeded labels, or
    the reference algorithms shows up here as a digest mismatch — the
    cross-engine differential tests then pin every engine to the same
    (frozen) answer.
    """

    # (dataset, algorithm) -> (sha256[:16] of the value bytes, invariant)
    FROZEN = {
        ("rmat_mini", "wcc"): ("051e370bd99ff7be", 228),
        ("rmat_mini", "sssp"): ("87bb2e8dbe0846be", 795),
        ("rmat_mini", "k_core"): ("73e7319311df54e3", 26),
        ("rmat_mini", "label_propagation"): ("39c9e4ea70a976c0", 242),
        ("facebook", "wcc"): ("79f5c0c0bc64caff", 1803),
        ("facebook", "sssp"): ("ea90edb91d6768d9", 6389),
        ("facebook", "k_core"): ("1106269cb8aaaa22", 78),
        ("facebook", "label_propagation"): ("476fce76a13f9847", 1884),
    }

    @staticmethod
    def _digest(values):
        import hashlib

        return hashlib.sha256(
            np.ascontiguousarray(values).tobytes()).hexdigest()[:16]

    @pytest.mark.parametrize("dataset,algorithm", sorted(FROZEN),
                             ids=lambda value: str(value))
    def test_frozen_digest(self, dataset, algorithm):
        from repro.harness.datasets import single_node_graph

        graph = single_node_graph(dataset, algorithm)
        if algorithm == "wcc":
            values = wcc_reference(graph)
            invariant = int(np.unique(values).size)
        elif algorithm == "sssp":
            source = int(np.argmax(graph.out_degrees()))
            values = sssp_reference(graph, source=source)
            invariant = int(np.isfinite(values).sum())
        elif algorithm == "k_core":
            values = kcore_reference(graph)
            invariant = int(values.max())
        else:
            values = label_propagation_reference(graph, iterations=3, seed=0)
            invariant = int(np.unique(values).size)
        digest, expected_invariant = self.FROZEN[(dataset, algorithm)]
        assert self._digest(values) == digest
        assert invariant == expected_invariant


# ---------------------------------------------------------------------------
# Frozen end-to-end cells: every simulated number (``repro freeze check``).
# ---------------------------------------------------------------------------

import itertools  # noqa: E402

from repro.algorithms.registry import ALGORITHMS, FRAMEWORKS  # noqa: E402
from repro.harness import freeze  # noqa: E402


def _group(key):
    """The ``(algorithm, framework, nodes)`` a frozen cell belongs to."""
    parts = key.split("/")
    if parts[0] == "gate":
        parts = parts[1:]
    return parts[0], parts[1], int(parts[2])


class TestFrozenCells:
    """``repro freeze check`` on the committed file, one test per
    algorithm x framework x nodes, so a failure names what moved.

    The engine refactors promise that no simulated number, ``extras``
    key or trace span moves; this is where that promise is checked.
    """

    FROZEN = freeze.load()

    def test_covers_the_whole_registry(self):
        assert set(self.FROZEN) == {key for key, _ in freeze.cells()}
        assert {_group(key) for key in self.FROZEN} == set(
            itertools.product(ALGORITHMS, FRAMEWORKS, freeze.NODES))

    @pytest.mark.parametrize("nodes", freeze.NODES)
    @pytest.mark.parametrize("framework", FRAMEWORKS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_cell_unchanged(self, algorithm, framework, nodes):
        cells = {key: entry for key, entry in self.FROZEN.items()
                 if _group(key) == (algorithm, framework, nodes)}
        assert freeze.differences(cells) == []


# ---------------------------------------------------------------------------
# Frozen generated datasets: every generator and graph build, byte-for-byte.
# ---------------------------------------------------------------------------

import hashlib  # noqa: E402

from repro.datagen import RMATParams, RMATStream, rmat_edges  # noqa: E402
from repro.datagen.rmat import TRIANGLE_PARAMS  # noqa: E402
from repro.datagen.uniform import (  # noqa: E402
    erdos_renyi_graph,
    watts_strogatz_graph,
)


def _sha(payload):
    return hashlib.sha256(payload).hexdigest()


def _int64_digest(*arrays):
    for array in arrays:
        assert array.dtype == np.int64
    return _sha(b"".join(np.ascontiguousarray(array).tobytes()
                         for array in arrays))


def _edges_digest(edges):
    return _int64_digest(edges.src, edges.dst)


def _graph_digest(graph):
    assert graph.edge_weights is None
    return _int64_digest(graph.offsets, graph.targets)


_G500 = RMATParams()
_TRIANGLE = RMATParams(*TRIANGLE_PARAMS)

#: id -> zero-arg producer of the digest. ``__wrapped__`` is the build
#: itself, never a dataset-cache entry.
FROZEN_DATASET_BUILDS = {
    "rmat_edges/10-8-g500-seed3":
        lambda: _edges_digest(rmat_edges(10, 8, _G500, 3)),
    "rmat_edges/12-16-triangle-seed1":
        lambda: _edges_digest(rmat_edges(12, 16, _TRIANGLE, 1)),
    "rmat_edges/14-4-g500-seed0-noise0":
        lambda: _edges_digest(rmat_edges(14, 4, _G500, 0, noise=0.0)),
    "rmat_stream_chunk/12-16-triangle-seed1-[777,40001)":
        lambda: _edges_digest(
            RMATStream(12, 16, _TRIANGLE, 1).chunk(777, 40001)),
    "rmat_stream_chunk/10-8-g500-seed3-[8191,8192)":
        lambda: _edges_digest(RMATStream(10, 8, _G500, 3).chunk(8191, 8192)),
    "rmat_graph/10-8-g500-seed3-directed":
        lambda: _graph_digest(rmat_graph.__wrapped__(10, 8, _G500, 3, True)),
    "rmat_graph/10-8-g500-seed3-undirected":
        lambda: _graph_digest(rmat_graph.__wrapped__(10, 8, _G500, 3, False)),
    "rmat_graph/14-16-g500-seed0-undirected":
        lambda: _graph_digest(rmat_graph.__wrapped__(14, 16, _G500, 0, False)),
    "rmat_graph/12-4-triangle-seed5-directed":
        lambda: _graph_digest(
            rmat_graph.__wrapped__(12, 4, _TRIANGLE, 5, True)),
    "rmat_triangle_graph/10-8-seed3":
        lambda: _graph_digest(rmat_triangle_graph.__wrapped__(10, 8, 3)),
    "rmat_triangle_graph/13-16-seed0":
        lambda: _graph_digest(rmat_triangle_graph.__wrapped__(13, 16, 0)),
    "erdos_renyi_graph/1000-8000-seed2-directed":
        lambda: _graph_digest(erdos_renyi_graph(1000, 8000, 2, True)),
    "erdos_renyi_graph/1000-8000-seed2-undirected":
        lambda: _graph_digest(erdos_renyi_graph(1000, 8000, 2, False)),
    "erdos_renyi_graph/37-5000-seed4-undirected":
        lambda: _graph_digest(erdos_renyi_graph(37, 5000, 4, False)),
    "watts_strogatz_graph/2000-8-p0.1-seed6":
        lambda: _graph_digest(watts_strogatz_graph(2000, 8, 0.1, 6)),
    "watts_strogatz_graph/500-6-p1.0-seed0":
        lambda: _graph_digest(watts_strogatz_graph(500, 6, 1.0, 0)),
}

#: Recorded at the commit before the graph builders moved to one key
#: sort; a build-path change must leave every one of them alone.
FROZEN_DATASET_DIGESTS = {
    "rmat_edges/10-8-g500-seed3":
        "5a7602c13fc8b7eb372bdfe525e98b5295ced7f2bcad1b7966215a26a55a8844",
    "rmat_edges/12-16-triangle-seed1":
        "bec63cfb574aa8e9714007b12cf5905ea2c5bcddcc634d50eceab08484cbc4d2",
    "rmat_edges/14-4-g500-seed0-noise0":
        "509d79273168f9be1a96c867390042815f637722492ae0d04ae78eed85c6a6f1",
    "rmat_stream_chunk/12-16-triangle-seed1-[777,40001)":
        "b3cbb05c202a550b57ac063c7ebb098aad4d314db4accd4d3ff661fe3ff76123",
    "rmat_stream_chunk/10-8-g500-seed3-[8191,8192)":
        "7c6631a295406cf106735a12d43e9a074e812cb494299458c1f8559c3bdb79b3",
    "rmat_graph/10-8-g500-seed3-directed":
        "ab5bd0fe4df6cb41b4362669e976788acc822d30277589f51b7818372eebd735",
    "rmat_graph/10-8-g500-seed3-undirected":
        "872e6cb6e31758729965b58be0327f7b1cd5bff146305dcb7ef233dea1fb60a3",
    "rmat_graph/14-16-g500-seed0-undirected":
        "e22bfd7e2e6495e59766886e8788cde5ddb38ce7d99a56687fe9d57665107b82",
    "rmat_graph/12-4-triangle-seed5-directed":
        "ec9478305d8c6490c57d274cd9c0beac1263be7e6f8be60895d65aa73fffe871",
    "rmat_triangle_graph/10-8-seed3":
        "b3bb335765b760b75f4406846b53ec75b049a49a2090cf1120b89d017ce984c9",
    "rmat_triangle_graph/13-16-seed0":
        "6e8102ad43e1d623a409c7bbf97f4170a6b92c295a34074a0de5c40a129d4373",
    "erdos_renyi_graph/1000-8000-seed2-directed":
        "0e3e091fe8e7cf5b0f03631a9f08c4a3e4652ea100683490009f33fc5e2fb603",
    "erdos_renyi_graph/1000-8000-seed2-undirected":
        "82e8bec55ce479b78f46f30c6bf7e66d3ca4820d1fbecb7eb51c857843d8a387",
    "erdos_renyi_graph/37-5000-seed4-undirected":
        "6d9b2fbc1ac30b03513dfbdc3b5b26cc492b6642a98095da807af415045f6133",
    "watts_strogatz_graph/2000-8-p0.1-seed6":
        "d4f358c6c7b0ddcc9debad1f4c61793fc448a3052079bfbcd9f0b0674d86db8b",
    "watts_strogatz_graph/500-6-p1.0-seed0":
        "332b18ea990448b72aa4f811243e356b31bc5fc02f9388ce86fcabeb7e419815",
}


class TestFrozenDatasets:
    def test_every_build_is_frozen(self):
        assert set(FROZEN_DATASET_DIGESTS) == set(FROZEN_DATASET_BUILDS)

    @pytest.mark.parametrize("name", sorted(FROZEN_DATASET_BUILDS))
    def test_bytes_unchanged(self, name):
        assert FROZEN_DATASET_BUILDS[name]() == FROZEN_DATASET_DIGESTS[name]
