"""Tests for the sparse-matrix semiring engine and CombBLAS front-end."""

import numpy as np
import pytest

from repro.algorithms import (
    UNREACHED,
    bfs_reference,
    pagerank_reference,
    triangle_count_reference,
)
from repro.algorithms.registry import runner
from repro.cluster import Cluster, paper_cluster
from repro.datagen import netflix_like_ratings, rmat_graph, rmat_triangle_graph
from repro.errors import CapacityError, SpecError
from repro.frameworks.matrix import (
    MIN_PLUS,
    OR_AND,
    PLUS_TIMES,
    DistSpMat,
    ProcessGrid,
    semiring_spmv,
)
from repro.graph import CSRGraph, EdgeList


def paper_figure2_graph():
    return CSRGraph.from_edges(
        EdgeList.from_pairs(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    )


@pytest.fixture(scope="module")
def graph_small():
    return rmat_graph(scale=9, edge_factor=6, seed=31)


@pytest.fixture(scope="module")
def graph_small_undirected():
    return rmat_graph(scale=9, edge_factor=6, seed=31, directed=False)


@pytest.fixture(scope="module")
def graph_triangles():
    return rmat_triangle_graph(scale=8, edge_factor=6, seed=32)


def make_cluster(nodes=1, **kwargs):
    return Cluster(paper_cluster(nodes), **kwargs)


class TestSemirings:
    def test_plus_times_is_matvec(self):
        graph = paper_figure2_graph()
        x = np.array([1.0, 2.0, 3.0, 4.0])
        # y = A^T x: y[1] = x[0]; y[2] = x[0] + x[1]; y[3] = x[1] + x[2].
        y = semiring_spmv(graph, x, PLUS_TIMES)
        np.testing.assert_allclose(y, [0.0, 1.0, 3.0, 5.0])

    def test_or_and_traversal_matches_paper_equation_10(self):
        # Paper: starting from {0, 1}, A^T s = [0, 1, 2, 1] -> nonzeros
        # are the next frontier {1, 2, 3}.
        graph = paper_figure2_graph()
        s = np.array([1.0, 1.0, 0.0, 0.0])
        y = semiring_spmv(graph, s, PLUS_TIMES)
        np.testing.assert_allclose(y, [0.0, 1.0, 2.0, 1.0])
        reachable = semiring_spmv(graph, s, OR_AND)
        np.testing.assert_allclose(reachable, [0.0, 1.0, 1.0, 1.0])

    def test_min_plus_relaxation(self):
        graph = paper_figure2_graph()
        x = np.array([0.0, np.inf, np.inf, np.inf])
        y = semiring_spmv(graph, x, MIN_PLUS,
                          edge_values=np.ones(graph.num_edges))
        # Vertex 1 and 2 get 0 + 1; vertex 3 unreachable in one hop from 0.
        assert y[1] == 1.0 and y[2] == 1.0
        assert np.isinf(y[0]) and np.isinf(y[3])

    def test_shape_validation(self):
        graph = paper_figure2_graph()
        with pytest.raises(ValueError):
            semiring_spmv(graph, np.ones(3))
        with pytest.raises(ValueError):
            semiring_spmv(graph, np.ones(4), edge_values=np.ones(2))


class TestProcessGrid:
    def test_square_grid_for_square_nodes(self):
        grid = ProcessGrid(4)  # 144 procs -> 12x12
        assert grid.grid == 12
        assert grid.num_procs == 144

    def test_nonsquare_nodes_largest_square(self):
        grid = ProcessGrid(2)  # 72 procs -> 8x8 = 64 used
        assert grid.grid == 8

    def test_rank_to_node_covers_all_nodes(self):
        grid = ProcessGrid(4)
        owners = grid.node_of_rank(np.arange(grid.num_procs))
        assert set(owners.tolist()) == {0, 1, 2, 3}


def reference_spmv_traffic(grid, x_entries_per_band, y_entries_per_band,
                           value_bytes=8.0):
    """The per-product loops the grid templates replaced, kept as oracle."""
    g = grid.grid
    node_traffic = np.zeros((grid.num_nodes, grid.num_nodes))
    rank_node = grid.node_of_rank(np.arange(grid.num_procs))
    for band in range(g):
        x_bytes = float(x_entries_per_band[band]) * value_bytes
        y_bytes = float(y_entries_per_band[band]) * value_bytes
        diag_node = int(rank_node[band * g + band])
        column_nodes = {int(rank_node[row * g + band]) for row in range(g)}
        for target in column_nodes:
            if target != diag_node:
                node_traffic[diag_node, target] += x_bytes
        row_nodes = {int(rank_node[band * g + col]) for col in range(g)}
        for source in row_nodes:
            if source != diag_node:
                node_traffic[source, diag_node] += y_bytes
    return node_traffic


def reference_spgemm_traffic(grid, block_nnz):
    g = grid.grid
    node_traffic = np.zeros((grid.num_nodes, grid.num_nodes))
    rank_node = grid.node_of_rank(np.arange(grid.num_procs))
    for row in range(g):
        for col in range(g):
            source = int(rank_node[row * g + col])
            targets = ({int(rank_node[row * g + other]) for other in range(g)}
                       | {int(rank_node[other * g + col])
                          for other in range(g)})
            for target in targets:
                if target != source:
                    node_traffic[source, target] += block_nnz[row, col] * 16.0
    return node_traffic


def reference_layout(graph, grid):
    """``(block_nnz, nnz_per_node)`` by per-edge scatter."""
    g = grid.grid
    bounds = np.linspace(0, graph.num_vertices, g + 1).astype(np.int64)
    row_band = np.minimum(
        np.searchsorted(bounds, graph.sources(), "right") - 1, g - 1)
    col_band = np.minimum(
        np.searchsorted(bounds, graph.targets, "right") - 1, g - 1)
    block_nnz = np.zeros((g, g), dtype=np.int64)
    np.add.at(block_nnz, (row_band, col_band), 1)
    per_node = np.zeros(grid.num_nodes)
    np.add.at(per_node, grid.node_of_rank(np.arange(grid.num_procs)),
              block_nnz.reshape(-1))
    return bounds, block_nnz, per_node


def triangle_graph():
    return CSRGraph.from_edges(EdgeList.from_pairs(
        3, [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]))


class TestGridTemplates:
    @pytest.mark.parametrize("num_nodes", [1, 2, 3, 4, 9, 16])
    def test_traffic_equals_reference_loops(self, num_nodes, graph_triangles):
        grid = ProcessGrid(num_nodes)
        dist = DistSpMat(graph_triangles, grid)
        bounds, block_nnz, per_node = reference_layout(graph_triangles, grid)
        np.testing.assert_array_equal(dist.bounds, bounds)
        np.testing.assert_array_equal(dist.block_nnz, block_nnz)
        np.testing.assert_array_equal(dist.nnz_per_node(), per_node)
        rng = np.random.default_rng(num_nodes)
        for _ in range(5):
            x_bands = rng.integers(0, 10_000, grid.grid)
            y_bands = rng.integers(0, 10_000, grid.grid)
            np.testing.assert_array_equal(
                dist.spmv_traffic(x_bands, y_bands),
                reference_spmv_traffic(grid, x_bands, y_bands))
        np.testing.assert_array_equal(
            dist.spgemm_aa()[2], reference_spgemm_traffic(grid, block_nnz))

    def test_fewer_vertices_than_bands(self):
        # 3 vertices on a 12 x 12 grid: most band bounds coincide.
        graph = triangle_graph()
        grid = ProcessGrid(4)
        dist = DistSpMat(graph, grid)
        bounds, block_nnz, per_node = reference_layout(graph, grid)
        assert np.unique(bounds).size < bounds.size
        np.testing.assert_array_equal(dist.block_nnz, block_nnz)
        np.testing.assert_array_equal(dist.nnz_per_node(), per_node)
        x = np.array([0.0, 1.0, 0.0])
        y, _, traffic = dist.spmv(x, OR_AND, sparse_x=True)
        np.testing.assert_array_equal(y, [1.0, 0.0, 1.0])
        np.testing.assert_array_equal(traffic, reference_spmv_traffic(
            grid, np.histogram([1], bins=bounds)[0],
            np.histogram([0, 2], bins=bounds)[0]))
        np.testing.assert_array_equal(
            dist.spgemm_aa()[2], reference_spgemm_traffic(grid, block_nnz))

    def test_templates_shared_per_grid_layout_per_matrix(
            self, graph_small, graph_triangles):
        first = DistSpMat(graph_small, ProcessGrid(4))
        second = DistSpMat(graph_triangles, ProcessGrid(4))
        assert first.grid is not second.grid
        assert first.grid.templates is second.grid.templates
        assert first.grid.templates is not ProcessGrid(2).templates
        assert first.block_nnz is not second.block_nnz
        assert first.block_nnz.sum() != second.block_nnz.sum()
        with pytest.raises(ValueError):     # shared, so read-only
            first.grid.templates.broadcast[0, 0, 0] = 1.0


class TestDistSpMat:
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("absent_like", [-np.inf, np.nan])
    def test_present_means_not_the_semiring_zero(self, absent_like):
        # -inf and NaN are not min-plus's zero: the rows are multiplied,
        # so they must be counted and shipped as well.
        graph = triangle_graph()
        dist = DistSpMat(graph, ProcessGrid(2))
        x = np.array([absent_like, np.inf, np.inf])
        y, flops, traffic = dist.spmv(x, MIN_PLUS, sparse_x=True)
        np.testing.assert_array_equal(y, dist.spmv(x, MIN_PLUS)[0])
        np.testing.assert_array_equal(y, [np.inf, absent_like, absent_like])
        assert flops == 2 * graph.out_degrees()[0]
        assert traffic.sum() > 0

    def test_an_entry_that_cancels_is_still_shipped(self):
        # u -> t and v -> t with x[u] = 1, x[v] = -1: y[t] sums to the
        # plus-times zero, but the ranks folding it cannot know that.
        # One vertex per band on 3 nodes, with t in a row band that
        # spans two nodes so its fold crosses the wire.
        grid = ProcessGrid(3)
        t = int(np.argmax(grid.templates.fold.sum(axis=(1, 2))))
        u, v = [w for w in range(3) if w != t][:2]
        graph = CSRGraph.from_edges(
            EdgeList.from_pairs(grid.grid, [(u, t), (v, t)]))
        dist = DistSpMat(graph, grid)
        x = np.zeros(grid.grid)
        x[u], x[v] = 1.0, -1.0
        y, flops, traffic = dist.spmv(x, PLUS_TIMES, sparse_x=True)
        np.testing.assert_array_equal(y, np.zeros(grid.grid))
        present = np.array([u, v])
        assert flops == 4.0 and flops == dist.spmv_cost(present)[0]
        np.testing.assert_array_equal(traffic, dist.spmv_cost(present)[1])
        x_bands = np.histogram(present, bins=dist.bounds)[0]
        np.testing.assert_array_equal(traffic, reference_spmv_traffic(
            grid, x_bands, np.histogram([t], bins=dist.bounds)[0]))
        assert traffic.sum() == 8.0 + reference_spmv_traffic(
            grid, x_bands, np.zeros(grid.grid)).sum()

    def test_block_nnz_conserved(self, graph_small):
        dist = DistSpMat(graph_small, ProcessGrid(4))
        assert dist.block_nnz.sum() == graph_small.num_edges
        assert dist.nnz_per_node().sum() == pytest.approx(graph_small.num_edges)

    def test_spmv_values_match_semiring(self, graph_small):
        dist = DistSpMat(graph_small, ProcessGrid(2))
        x = np.arange(graph_small.num_vertices, dtype=float)
        y, flops, traffic = dist.spmv(x)
        np.testing.assert_allclose(y, semiring_spmv(graph_small, x))
        assert flops == 2.0 * graph_small.num_edges
        assert traffic.shape == (2, 2)

    def test_sparse_spmv_cheaper(self, graph_small):
        dist = DistSpMat(graph_small, ProcessGrid(4))
        dense = np.ones(graph_small.num_vertices)
        sparse_x = np.zeros(graph_small.num_vertices)
        sparse_x[0] = 1.0
        _, flops_dense, traffic_dense = dist.spmv(dense)
        _, flops_sparse, traffic_sparse = dist.spmv(sparse_x, OR_AND,
                                                    sparse_x=True)
        assert flops_sparse < flops_dense
        assert traffic_sparse.sum() < traffic_dense.sum()

    def test_spgemm_counts_paths(self):
        graph = paper_figure2_graph()
        dist = DistSpMat(graph, ProcessGrid(1))
        product, flops, traffic = dist.spgemm_aa()
        # Paper: A^2 row 0 = [0, 0, 1, 2].
        dense = np.asarray(product.todense())
        np.testing.assert_allclose(dense[0], [0, 0, 1, 2])
        count, _ = dist.ewise_mult_sum(product)
        assert count == 2  # nnz-weighted A .* A^2 of Figure 2

    def test_single_node_spgemm_no_wire_traffic(self, graph_triangles):
        dist = DistSpMat(graph_triangles, ProcessGrid(1))
        _, _, traffic = dist.spgemm_aa()
        assert traffic.sum() - np.trace(traffic) >= 0  # diagonal only
        off = traffic.sum() - np.trace(traffic)
        assert off == 0


class TestCombBLAS:
    def test_pagerank_matches_reference(self, graph_small):
        result = runner("pagerank", "combblas")(graph_small, make_cluster(4), iterations=4)
        np.testing.assert_allclose(
            result.values, pagerank_reference(graph_small, 4), rtol=1e-12
        )

    def test_bfs_matches_reference(self, graph_small_undirected):
        result = runner("bfs", "combblas")(graph_small_undirected, make_cluster(4))
        np.testing.assert_array_equal(
            result.values, bfs_reference(graph_small_undirected, 0)
        )

    def test_bfs_unreached(self):
        graph = CSRGraph.from_edges(EdgeList.from_pairs(3, [(0, 1), (1, 0)]))
        result = runner("bfs", "combblas")(graph, make_cluster(1))
        assert result.values[2] == UNREACHED

    def test_triangles_match_reference(self, graph_triangles):
        result = runner("triangle_counting", "combblas")(graph_triangles, make_cluster(4))
        assert result.values == triangle_count_reference(graph_triangles)

    def test_triangle_oom_on_large_scale_factor(self, graph_triangles):
        # The A^2 product at paper-scale extrapolation exceeds node DRAM:
        # the paper's "ran out of memory for the Twitter data set".
        cluster = Cluster(paper_cluster(4), scale_factor=10_000_000.0)
        with pytest.raises(CapacityError):
            runner("triangle_counting", "combblas")(graph_triangles, cluster)

    def test_triangle_expressibility_penalty(self, graph_triangles):
        # The unfused A^2 materialization makes CombBLAS far slower than
        # the native intersection kernel (Table 5: 33.9x single node).
        scale = {"scale_factor": 1e5}
        native_result = runner("triangle_counting", "native")(
            graph_triangles, Cluster(paper_cluster(1), **scale)
        )
        comb_result = runner("triangle_counting", "combblas")(
            graph_triangles, Cluster(paper_cluster(1), **scale)
        )
        assert comb_result.total_time_s > 2.5 * native_result.total_time_s

    def test_cf_converges(self):
        ratings = netflix_like_ratings(scale=9, num_items=48, seed=33)
        result = runner("collaborative_filtering", "combblas")(
            ratings, make_cluster(4), hidden_dim=8, iterations=3
        )
        curve = result.extras["rmse_curve"]
        assert curve[-1] < curve[0]
        assert result.extras["spmvs_per_iteration"] == 8

    def test_pagerank_close_to_native(self, graph_small):
        # Table 5: CombBLAS PageRank ~1.9x native on one node. Run at a
        # paper-scale extrapolation factor so fixed per-superstep costs
        # do not swamp the proxy-sized compute.
        native_result = runner("pagerank", "native")(
            graph_small, Cluster(paper_cluster(1), scale_factor=1e5),
            iterations=3,
        )
        comb_result = runner("pagerank", "combblas")(
            graph_small, Cluster(paper_cluster(1), scale_factor=1e5),
            iterations=3,
        )
        ratio = (comb_result.time_per_iteration_s
                 / native_result.time_per_iteration_s)
        assert 1.0 < ratio < 8.0

    @pytest.mark.parametrize("algorithm", ["k_core", "bfs"])
    def test_host_work_is_counted_work(self, algorithm, monkeypatch,
                                       graph_small_undirected):
        """Per round: edges gathered == ``KernelWork.edges`` == flops / 2.

        What the kernel really touched on the host, what it reports, and
        what the engine charges for the product are one number.
        """
        from repro.kernels import use_backend
        from repro.kernels.propagation import KCorePeel
        from repro.kernels.spmv import BFSPush

        kernel = {"k_core": KCorePeel, "bfs": BFSPush}[algorithm]
        gathered, reported, charged, in_step = [], [], [], []
        gather, step = CSRGraph.neighbors_of_many, kernel.step
        cost = DistSpMat.spmspv_costs

        def counting_gather(self, vertices):
            neighbors, lengths = gather(self, vertices)
            if in_step:
                in_step[-1] += neighbors.size
            return neighbors, lengths

        def counting_step(self, *args):
            in_step.append(0)
            result, work = step(self, *args)
            edges = in_step.pop()
            if work.frontier:       # k_core: not the scan that ends a level
                gathered.append(edges)
                reported.append(work.edges)
            return result, work

        def counting_cost(self, *args, **kwargs):
            flops, traffic = cost(self, *args, **kwargs)
            charged.extend((flops / 2.0).tolist())
            return flops, traffic

        monkeypatch.setattr(CSRGraph, "neighbors_of_many", counting_gather)
        monkeypatch.setattr(kernel, "step", counting_step)
        monkeypatch.setattr(DistSpMat, "spmspv_costs", counting_cost)
        # A fresh object: the fixture's graph replays its recorded runs.
        graph = CSRGraph(graph_small_undirected.num_vertices,
                         graph_small_undirected.offsets,
                         graph_small_undirected.targets,
                         symmetric=graph_small_undirected.symmetric)
        with use_backend("vectorized"):     # the oracle walks, not gathers
            result = runner(algorithm, "combblas")(graph, make_cluster(4))
        assert gathered == reported == charged
        assert len(charged) == result.iterations
        if algorithm == "k_core":           # every vertex is peeled once
            assert sum(gathered) == result.extras["peeled_edges"]
            assert sum(gathered) == graph.num_edges
        else:                               # every reached vertex expands once
            reached = result.values != UNREACHED
            assert sum(gathered) == graph.out_degrees()[reached].sum()

    def test_validates_arguments(self, graph_small):
        with pytest.raises(SpecError):
            runner("pagerank", "combblas")(graph_small, make_cluster(1), iterations=0)
        with pytest.raises(SpecError):
            runner("bfs", "combblas")(graph_small, make_cluster(1), source=-2)
