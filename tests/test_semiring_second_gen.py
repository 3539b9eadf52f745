"""Property tests for the second-generation algorithm semantics.

Hand-rolled seeded generators (no hypothesis), in the style of
``test_cost_properties.py``: the algebraic fixpoint formulations —
min-plus relaxation for SSSP, min-label propagation for WCC — must agree
with the classical references (Dijkstra, union-find) on a grid of random
graphs that deliberately include disconnected pieces, isolated vertices,
self-loops, and duplicate edges, and the registered kernels must agree
with both under either backend.
"""

import numpy as np
import pytest

from repro.algorithms import (
    UNREACHED_DIST,
    edge_weights_for,
    kcore_reference,
    label_propagation_reference,
    lp_step_reference,
    sssp_reference,
    validate_components,
    validate_kcore,
    validate_sssp,
    wcc_reference,
)
from repro.graph import CSRGraph, EdgeList
from repro.kernels.backend import INTERPRETED, VECTORIZED, use_backend
from repro.kernels.registry import kernel

SEEDS = tuple(range(20, 30))


def random_graph(seed, num_vertices=48):
    """Messy random undirected graph: self-loops, dupes, isolated parts."""
    rng = np.random.default_rng(seed)
    num_edges = int(rng.integers(num_vertices // 2, 3 * num_vertices))
    # Sampling ids from [0, n) leaves some vertices untouched (isolated)
    # and produces duplicate pairs; add explicit self-loops on top.
    pairs = list(zip(rng.integers(0, num_vertices, num_edges).tolist(),
                     rng.integers(0, num_vertices, num_edges).tolist()))
    pairs += [(int(v), int(v)) for v in rng.integers(0, num_vertices, 4)]
    edges = EdgeList.from_pairs(num_vertices, pairs).symmetrize()
    return CSRGraph.from_edges(edges)


# ---------------------------------------------------------------------------
# SSSP: min-plus fixpoint == Dijkstra.
# ---------------------------------------------------------------------------

def minplus_fixpoint(graph, source):
    """Dense min-plus Bellman iteration to fixpoint (the semiring view)."""
    n = graph.num_vertices
    adjacency = np.full((n, n), np.inf)
    np.minimum.at(adjacency, (graph.sources(), graph.targets),
                  edge_weights_for(graph))
    distances = np.full(n, np.inf)
    distances[source] = 0.0
    while True:
        relaxed = np.minimum(distances,
                             (distances[:, None] + adjacency).min(axis=0))
        if np.array_equal(relaxed, distances):
            return distances
        distances = relaxed


class TestSSSPProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_minplus_fixpoint_matches_dijkstra(self, seed):
        graph = random_graph(seed)
        source = int(np.argmax(graph.out_degrees()))
        np.testing.assert_array_equal(minplus_fixpoint(graph, source),
                                      sssp_reference(graph, source))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_relax_kernel_fixpoint_matches_dijkstra(self, seed):
        graph = random_graph(seed)
        source = int(np.argmax(graph.out_degrees()))
        relax = kernel("sssp", "relax")().prepare(graph)
        distances = np.full(graph.num_vertices, UNREACHED_DIST)
        distances[source] = 0.0
        frontier = np.array([source], dtype=np.int64)
        while frontier.size:
            (distances, frontier), _ = relax.step(distances, frontier)
        np.testing.assert_array_equal(distances,
                                      sssp_reference(graph, source))

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_distances_satisfy_triangle_inequality(self, seed):
        graph = random_graph(seed)
        source = int(np.argmax(graph.out_degrees()))
        assert validate_sssp(graph, source, sssp_reference(graph, source))

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_self_loops_never_change_distances(self, seed):
        graph = random_graph(seed)
        pairs = list(zip(graph.sources().tolist(), graph.targets.tolist()))
        stripped = CSRGraph.from_edges(
            EdgeList.from_pairs(graph.num_vertices,
                                [p for p in pairs if p[0] != p[1]]))
        source = int(np.argmax(stripped.out_degrees()))
        np.testing.assert_array_equal(sssp_reference(graph, source),
                                      sssp_reference(stripped, source))


# ---------------------------------------------------------------------------
# WCC: min-label fixpoint == union-find.
# ---------------------------------------------------------------------------

def min_label_fixpoint(graph):
    """Dense min-propagation over edges to fixpoint."""
    labels = np.arange(graph.num_vertices, dtype=np.int64)
    sources, targets = graph.sources(), graph.targets
    while True:
        new = labels.copy()
        np.minimum.at(new, targets, labels[sources])
        if np.array_equal(new, labels):
            return labels
        labels = new


class TestWCCProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_min_label_fixpoint_matches_union_find(self, seed):
        graph = random_graph(seed)
        np.testing.assert_array_equal(min_label_fixpoint(graph),
                                      wcc_reference(graph))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_propagate_kernel_fixpoint_matches_union_find(self, seed):
        graph = random_graph(seed)
        push = kernel("wcc", "propagate")().prepare(graph)
        labels = np.arange(graph.num_vertices, dtype=np.int64)
        frontier = labels.copy()
        while frontier.size:
            (labels, frontier), _ = push.step(labels, frontier)
        np.testing.assert_array_equal(labels, wcc_reference(graph))

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_labels_validate_and_count_components(self, seed):
        graph = random_graph(seed)
        labels = wcc_reference(graph)
        assert validate_components(graph, labels)
        # Every label is the min id of its component, so the label set
        # is exactly one representative per component.
        representatives = np.unique(labels)
        np.testing.assert_array_equal(labels[representatives],
                                      representatives)


# ---------------------------------------------------------------------------
# k-core and label propagation invariants.
# ---------------------------------------------------------------------------

class TestKCoreProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_peel_kernel_matches_reference(self, seed):
        """The incremental peel against the O(V)-per-wave formulas.

        A level opens with ``touched=None`` (the full scan); after that
        each step sees only the last wave's gathered neighbors, and must
        still find exactly ``alive & (degrees < k)``, decrement exactly
        one per gathered edge, and count what the full passes counted.
        """
        graph = random_graph(seed)
        out_degrees = graph.out_degrees()
        for backend in (VECTORIZED, INTERPRETED):
            with use_backend(backend):
                peel = kernel("k_core", "peel")().prepare(graph)
                degrees = out_degrees.astype(np.int64)
                core = np.zeros(graph.num_vertices, dtype=np.int64)
                alive = np.ones(graph.num_vertices, dtype=bool)
                live, k, steps, waves, levels = graph.num_vertices, 1, 0, 0, 0
                while live:
                    levels += 1
                    touched = None
                    while True:
                        expected = np.flatnonzero(alive & (degrees < k))
                        before = degrees.copy()
                        removed, work = peel.step(degrees, alive, k, live,
                                                  touched)
                        steps += 1
                        np.testing.assert_array_equal(removed, expected)
                        neighbors, lengths = work.gather
                        gathered, rows = graph.neighbors_of_many(removed)
                        np.testing.assert_array_equal(neighbors, gathered)
                        np.testing.assert_array_equal(lengths, rows)
                        np.testing.assert_array_equal(
                            degrees, before - np.bincount(
                                neighbors, minlength=degrees.size))
                        assert work.edges == out_degrees[removed].sum()
                        assert work.vertices == alive.sum()
                        assert work.frontier == removed.size
                        if removed.size == 0:
                            break
                        waves += 1
                        core[removed] = k - 1
                        alive[removed] = False
                        live -= removed.size
                        touched = neighbors
                    k += 1
                assert steps == waves + levels
                np.testing.assert_array_equal(core, kcore_reference(graph))

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_core_numbers_validate(self, seed):
        graph = random_graph(seed)
        core = kcore_reference(graph)
        assert validate_kcore(graph, core)
        assert core.max() <= graph.out_degrees().max()


class TestLabelPropagationProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sync_kernel_matches_reference_per_round(self, seed):
        graph = random_graph(seed)
        sync = kernel("label_propagation", "sync")().prepare(graph)
        labels = label_propagation_reference(graph, iterations=0, seed=0)
        for _ in range(3):
            expected = lp_step_reference(graph, labels)
            labels, _ = sync.step(labels)
            np.testing.assert_array_equal(labels, expected)

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_interpreted_backend_agrees(self, seed):
        graph = random_graph(seed)
        expected = label_propagation_reference(graph, iterations=3, seed=0)
        with use_backend(INTERPRETED):
            sync = kernel("label_propagation", "sync")().prepare(graph)
            labels = label_propagation_reference(graph, iterations=0, seed=0)
            for _ in range(3):
                labels, _ = sync.step(labels)
        np.testing.assert_array_equal(labels, expected)

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_labels_always_drawn_from_initial_permutation(self, seed):
        graph = random_graph(seed)
        labels = label_propagation_reference(graph, iterations=3, seed=0)
        assert set(labels.tolist()) <= set(range(graph.num_vertices))
