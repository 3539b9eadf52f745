"""Out-of-core pipeline: streamed generation, sharded CSR, beyond-RAM runs.

Covers the whole tentpole contract: the chunked R-MAT stream is
bit-identical to the monolithic generator at any chunk size; the
partitioned on-disk CSR carries the same sha256 digests as the dense
build; engines produce identical results (and identical simulated
runtimes) through either representation; the memory budget actually
bounds the mapped working set; a streamed build is one cache entry
that a damaged shard turns into a miss; and the headline demonstration — a Graph500 run that
dies under ``RLIMIT_AS`` in-memory but completes streamed — holds at a
test-sized configuration.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import (
    OUT_OF_CORE_ENV,
    RMATStream,
    cache_entries,
    pinned_memory,
    rmat_edges,
    rmat_graph,
    rmat_graph_sharded,
    rmat_triangle_graph,
    rmat_triangle_graph_sharded,
)
from repro.datagen import cache as cache_module
from repro.errors import GraphFormatError
from repro.graph import (
    ShardedCSRGraph,
    build_sharded_csr,
    graph_digests,
    iter_csr_blocks,
)
from repro.graph import sharded as sharded_module
from repro.harness import ExperimentSpec, run
from repro.kernels.backend import interpreted
from repro.observability import Tracer, peak_rss_bytes, reset_peak_rss

GRAPH_ARGS = dict(scale=8, edge_factor=8, seed=7)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Point the dataset cache at a private root and enable it."""
    root = tmp_path / "cache"
    monkeypatch.setenv(cache_module.CACHE_DIR_ENV, str(root))
    monkeypatch.delenv(cache_module.CACHE_ENABLE_ENV, raising=False)
    yield root
    # Pins are process-global; a leaked pin would satisfy the next
    # test's builds from memory instead of its private cache root.
    cache_module.clear_pins()


def dense_graph(directed=False, **overrides):
    args = {**GRAPH_ARGS, **overrides}
    return rmat_graph.__wrapped__(directed=directed, **args)


def sharded_graph(tmp_path, directed=False, chunk_edges=512,
                  num_partitions=4, **overrides):
    """Build a sharded CSR directly from the stream (no disk cache)."""
    args = {**GRAPH_ARGS, **overrides}
    stream = RMATStream(args["scale"], args["edge_factor"],
                        seed=args["seed"])
    out = tmp_path / f"sharded-{directed}-{chunk_edges}-{num_partitions}"
    build_sharded_csr((block for _, block in stream.chunks(chunk_edges)),
                      stream.num_vertices, out,
                      num_partitions=num_partitions,
                      symmetrize=not directed)
    return ShardedCSRGraph(out)


class TestStreamBitIdentity:
    def test_chunks_concatenate_to_the_monolithic_edge_list(self):
        full = rmat_edges(**GRAPH_ARGS)
        stream = RMATStream(GRAPH_ARGS["scale"], GRAPH_ARGS["edge_factor"],
                            seed=GRAPH_ARGS["seed"])
        assert stream.num_edges == full.num_edges
        for chunk_edges in (64, 500, full.num_edges):
            src = np.concatenate(
                [block.src for _, block in stream.chunks(chunk_edges)])
            dst = np.concatenate(
                [block.dst for _, block in stream.chunks(chunk_edges)])
            assert np.array_equal(src, full.src), chunk_edges
            assert np.array_equal(dst, full.dst), chunk_edges

    def test_arbitrary_slice_matches_the_full_stream(self):
        full = rmat_edges(**GRAPH_ARGS)
        stream = RMATStream(GRAPH_ARGS["scale"], GRAPH_ARGS["edge_factor"],
                            seed=GRAPH_ARGS["seed"])
        # Unaligned, mid-stream window: the PCG64 advance arithmetic,
        # not a replay-from-zero.
        block = stream.chunk(777, 1234)
        assert np.array_equal(block.src, full.src[777:1234])
        assert np.array_equal(block.dst, full.dst[777:1234])

    def test_num_chunks_covers_the_stream_exactly(self):
        stream = RMATStream(6, 4, seed=1)
        for chunk_edges in (1, 100, stream.num_edges, 10 * stream.num_edges):
            blocks = [block for _, block in stream.chunks(chunk_edges)]
            assert len(blocks) == -(-stream.num_edges // chunk_edges)
            assert sum(b.num_edges for b in blocks) == stream.num_edges


class TestShardedDigests:
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("chunk_edges", [256, 1000, 1 << 20])
    def test_digests_match_the_dense_build(self, tmp_path, directed,
                                           chunk_edges):
        dense = dense_graph(directed=directed)
        sharded = sharded_graph(tmp_path, directed=directed,
                                chunk_edges=chunk_edges)
        assert sharded.num_vertices == dense.num_vertices
        assert sharded.num_edges == dense.num_edges
        assert sharded.digests() == graph_digests(
            dense, num_partitions=sharded.num_partitions)

    def test_partition_count_does_not_change_the_graph(self, tmp_path):
        dense = dense_graph()
        for parts in (1, 3, 8):
            sharded = sharded_graph(tmp_path, num_partitions=parts)
            assert sharded.num_partitions == parts
            assert np.array_equal(sharded.to_csr().targets, dense.targets)
            assert np.array_equal(sharded.to_csr().offsets, dense.offsets)

    def test_triangle_variant_matches_the_dense_build(self, cache_dir):
        dense = rmat_triangle_graph.__wrapped__(scale=7, edge_factor=4,
                                                seed=5)
        sharded = rmat_triangle_graph_sharded(scale=7, edge_factor=4, seed=5,
                                              chunk_edges=256)
        assert sharded.digests() == graph_digests(
            dense, num_partitions=sharded.num_partitions)

    def test_iter_csr_blocks_walks_both_representations_alike(self, tmp_path):
        dense = dense_graph()
        sharded = sharded_graph(tmp_path)
        digest = hashlib.sha256()
        for lo, hi, offsets, targets in iter_csr_blocks(dense):
            digest.update(np.ascontiguousarray(targets))
        dense_digest = digest.hexdigest()
        digest = hashlib.sha256()
        for lo, hi, offsets, targets in iter_csr_blocks(sharded):
            digest.update(np.ascontiguousarray(targets))
        assert digest.hexdigest() == dense_digest


class TestShardedGraphApi:
    def test_neighbors_match_dense(self, tmp_path):
        dense = dense_graph()
        sharded = sharded_graph(tmp_path)
        for v in (0, 1, 17, dense.num_vertices - 1):
            assert np.array_equal(sharded.neighbors(v), dense.neighbors(v))
            assert sharded.degree(v) == dense.degree(v)
        assert np.array_equal(sharded.out_degrees(), dense.out_degrees())

    def test_neighbors_of_many_matches_dense(self, tmp_path):
        dense = dense_graph()
        sharded = sharded_graph(tmp_path)
        frontier = np.array([3, 40, 41, 200, 250], dtype=np.int64)
        got_t, got_o = sharded.neighbors_of_many(frontier)
        want_t, want_o = dense.neighbors_of_many(frontier)
        assert np.array_equal(got_t, want_t)
        assert np.array_equal(got_o, want_o)

    def test_frontier_neighbors_unique_matches_a_dense_union(self, tmp_path):
        dense = dense_graph()
        sharded = sharded_graph(tmp_path)
        frontier = np.arange(0, dense.num_vertices, 7)
        unique, edges = sharded.frontier_neighbors_unique(frontier)
        targets, _ = dense.neighbors_of_many(frontier)
        assert edges == len(targets)
        assert np.array_equal(unique, np.unique(targets))

    def test_reverse_matches_the_dense_transpose(self, tmp_path):
        dense = dense_graph(directed=True)
        sharded = sharded_graph(tmp_path, directed=True)
        reverse = sharded.reverse()
        want = dense.reverse()
        assert reverse.digests() == graph_digests(
            want, num_partitions=reverse.num_partitions)


@pytest.fixture(scope="module")
def sharded_by_count(tmp_path_factory):
    """The undirected test graph, dense and sharded 1, 3 and 8 ways."""
    root = tmp_path_factory.mktemp("gathers")
    return dense_graph(), {count: sharded_graph(root, num_partitions=count)
                           for count in (1, 3, 8)}


class _WorkingSet:
    """Tracer stand-in: the most shard bytes mapped at any partition load."""

    def __init__(self, graph):
        self.graph = graph
        self.peak = 0

    def instant(self, name, **attrs):
        if name == "partition-load":
            self.peak = max(self.peak, self.graph.mapped_nbytes())


class TestGatherProperties:
    """The one-pass gathers against the dense ones, for any input."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), count=st.sampled_from([1, 3, 8]),
           ascending=st.booleans(),
           budget=st.sampled_from([None, 1e-6, 0.5, 2.5]))
    def test_sharded_gathers_equal_the_dense_ones(
            self, sharded_by_count, data, count, ascending, budget):
        dense, by_count = sharded_by_count
        sharded = by_count[count]
        isolated = np.flatnonzero(dense.out_degrees() == 0).tolist()
        assert isolated
        vertex = (st.integers(0, dense.num_vertices - 1)
                  | st.sampled_from(isolated))
        vertices = np.array(data.draw(st.lists(vertex, max_size=80)),
                            dtype=np.int64)
        if ascending:
            vertices.sort()
        # Budgets in units of the smallest non-empty partition: 1e-6 and
        # 0.5 are below one partition, 2.5 holds a few.
        sizes = [part.num_edges * 8 for part in sharded.partitions()]
        if budget is not None:
            budget *= min(size for size in sizes if size) / 2**20
        sharded.release()
        sharded.memory_budget_mb = budget
        working = _WorkingSet(sharded)
        with sharded_module.use_tracer(working):
            got_targets, got_lengths = sharded.neighbors_of_many(vertices)
            unique, traversed = sharded.frontier_neighbors_unique(vertices)
        sharded.release()
        want_targets, want_lengths = dense.neighbors_of_many(vertices)
        assert got_targets.dtype == want_targets.dtype
        np.testing.assert_array_equal(got_targets, want_targets)
        np.testing.assert_array_equal(got_lengths, want_lengths)
        np.testing.assert_array_equal(unique, np.unique(want_targets))
        assert traversed == want_targets.size
        if budget is not None:
            assert working.peak <= max(budget * 2**20, max(sizes))


class TestMemoryBudget:
    def test_mapped_working_set_stays_under_the_budget(self, tmp_path):
        sharded = sharded_graph(tmp_path, num_partitions=8)
        per_part = max(p.num_edges for p in sharded.partitions()) * 8
        budget_mb = 2.5 * per_part / 2**20     # room for ~2 partitions
        sharded.memory_budget_mb = budget_mb
        sharded.release()
        tracer = Tracer()
        with sharded_module.use_tracer(tracer):
            for part in sharded.partitions():
                part.targets
                assert sharded.mapped_nbytes() <= budget_mb * 2**20
        loads = tracer.spans_named("partition-load")
        evicts = tracer.spans_named("partition-evict")
        assert len(loads) == sharded.num_partitions
        # Power-law partitions are uneven, but a 2.5-partition budget
        # cannot hold all 8: something must have been evicted.
        assert evicts
        assert sharded.mapped_nbytes() < sharded.num_edges * 8

    def test_no_budget_means_no_eviction(self, tmp_path):
        sharded = sharded_graph(tmp_path, num_partitions=4)
        tracer = Tracer()
        with sharded_module.use_tracer(tracer):
            for part in sharded.partitions():
                part.targets
        assert not tracer.spans_named("partition-evict")
        assert sharded.mapped_nbytes() == sharded.num_edges * 8

    def test_resident_nbytes_stays_far_below_virtual(self, cache_dir):
        sharded = rmat_graph_sharded(**GRAPH_ARGS, directed=False,
                                     chunk_edges=512)
        for part in sharded.partitions():
            part.targets
        assert sharded.nbytes() >= sharded.num_edges * 8
        # Mapped shard files are reclaimable; the accounting the serve
        # admission and supervisor headroom rely on must not charge
        # them as anonymous memory.
        assert sharded.resident_nbytes() == 0


class TestShardCacheKeys:
    def test_a_streamed_build_leaves_exactly_one_entry(self, cache_dir):
        rmat_graph_sharded(**GRAPH_ARGS, directed=False, chunk_edges=512)
        (entry,) = cache_entries()
        assert entry["kind"] == "sharded-csr"
        assert entry["generator"] == "rmat_graph_sharded"
        # Lose it: the rebuild streams the edges again, at another chunk
        # size, into the bytes of the dense build.
        shutil.rmtree(cache_dir / entry["key"])
        tracer = Tracer()
        with cache_module.use_tracer(tracer):
            rebuilt = rmat_graph_sharded(**GRAPH_ARGS, directed=False,
                                         chunk_edges=300)
        assert [s.name for s in tracer.spans] == ["dataset-cache-miss",
                                                  "dataset-cache-store"]
        assert len(cache_entries()) == 1
        dense = dense_graph()
        assert rebuilt.digests() == graph_digests(
            dense, num_partitions=rebuilt.num_partitions)

    def test_pinning_holds_the_manifest_not_resident_pages(self, cache_dir):
        with cache_module.pinning():
            sharded = rmat_graph_sharded(**GRAPH_ARGS, directed=False,
                                         chunk_edges=512)
        pins = cache_module.pinned()
        assert any(p["generator"] == "rmat_graph_sharded" for p in pins)
        memory = pinned_memory()
        assert memory["virtual_bytes"] >= sharded.nbytes()
        # The pinned sharded graph is file-backed end to end.
        assert memory["resident_bytes"] < memory["virtual_bytes"]

    def test_cache_stats_reports_the_shard_inventory(self, cache_dir):
        rmat_graph_sharded(**GRAPH_ARGS, directed=False, chunk_edges=512,
                           num_partitions=4)
        stats = cache_module.stats()
        assert stats["shards"]["sharded_graphs"] == 1
        assert stats["shards"]["partitions"] == 4
        assert set(stats["by_kind"]) == {"sharded-csr"}

    def test_out_of_core_env_reroutes_the_plain_builders(self, cache_dir,
                                                         monkeypatch):
        dense = dense_graph()
        monkeypatch.setenv(OUT_OF_CORE_ENV, "1")
        graph = rmat_graph(**GRAPH_ARGS, directed=False)
        assert isinstance(graph, ShardedCSRGraph)
        assert graph.digests() == graph_digests(
            dense, num_partitions=graph.num_partitions)


def truncate(path, drop=64):
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) - drop)


class TestTornShards:
    @pytest.mark.parametrize("name", ["targets_0001.npy", "offsets.npy"])
    def test_direct_open_is_a_typed_error(self, tmp_path, name):
        sharded = sharded_graph(tmp_path)
        truncate(os.path.join(sharded.root, name))
        with pytest.raises(GraphFormatError, match=name):
            ShardedCSRGraph(sharded.root)

    def test_missing_shard_is_a_typed_error(self, tmp_path):
        sharded = sharded_graph(tmp_path)
        os.unlink(os.path.join(sharded.root, "targets_0002.npy"))
        with pytest.raises(GraphFormatError, match="targets_0002.npy"):
            ShardedCSRGraph(sharded.root)

    def test_through_the_cache_it_is_a_miss_and_the_run_completes(
            self, cache_dir):
        args = dict(GRAPH_ARGS, directed=False, chunk_edges=512,
                    num_partitions=4)
        want = run(ExperimentSpec("bfs", "native", rmat_graph_sharded(**args)))
        (entry,) = cache_entries()
        truncate(cache_dir / entry["key"] / "targets_0001.npy")
        tracer = Tracer()
        with cache_module.use_tracer(tracer):
            graph = rmat_graph_sharded(**args)
        assert [s.name for s in tracer.spans] == ["dataset-cache-miss",
                                                  "dataset-cache-store"]
        got = run(ExperimentSpec("bfs", "native", graph))
        assert got.status == want.status == "ok"
        assert np.array_equal(got.result.values, want.result.values)

    def test_reverse_lost_publish_race_reuses_the_winner(self, tmp_path,
                                                         monkeypatch):
        # Directed: a symmetrized graph is its own transpose and never
        # publishes a reverse directory.
        sharded = sharded_graph(tmp_path, directed=True)
        winner = tmp_path / "winner"
        os.rename(ShardedCSRGraph(sharded.root).reverse().root, winner)
        (winner / "won").write_text("first replace wins")
        build = sharded_module.build_sharded_csr

        def racing(*args, **kwargs):
            # A concurrent reverse() publishes while ours is building.
            shutil.copytree(winner, os.path.join(sharded.root, "reverse"))
            return build(*args, **kwargs)

        monkeypatch.setattr(sharded_module, "build_sharded_csr", racing)
        reverse = sharded.reverse()
        assert os.path.exists(os.path.join(reverse.root, "won"))
        assert not [name for name in os.listdir(sharded.root)
                    if ".tmp." in name]
        dense = dense_graph(directed=True).reverse()
        assert reverse.digests() == graph_digests(
            dense, num_partitions=reverse.num_partitions)


class TestEngineEquivalence:
    @pytest.mark.parametrize("algorithm", ["pagerank", "bfs", "wcc"])
    def test_runs_are_identical_through_either_representation(
            self, cache_dir, algorithm):
        directed = algorithm == "pagerank"
        dense = dense_graph(directed=directed)
        sharded = rmat_graph_sharded(**GRAPH_ARGS, directed=directed,
                                     chunk_edges=512, memory_budget_mb=0.5)
        spec = dict(algorithm=algorithm, framework="galois", nodes=1)
        got = run(ExperimentSpec(dataset=sharded, **spec))
        want = run(ExperimentSpec(dataset=dense, **spec))
        assert got.runtime() == want.runtime()
        got_values = got.result.values
        want_values = want.result.values
        if isinstance(got_values, dict):
            assert got_values == want_values
        else:
            assert np.array_equal(got_values, want_values)

    @pytest.mark.parametrize("framework,nodes", [
        ("native", 1), ("native", 4), ("galois", 1), ("combblas", 4)])
    @pytest.mark.parametrize("algorithm", ["bfs", "wcc", "pagerank",
                                           "k_core"])
    def test_cold_sharded_cells_never_materialize(self, cache_dir,
                                                  algorithm, framework,
                                                  nodes):
        directed = algorithm == "pagerank"
        dense = dense_graph(directed=directed)
        sharded = rmat_graph_sharded(**GRAPH_ARGS, directed=directed,
                                     chunk_edges=512, num_partitions=3)
        # ``cold_sharded``'s LRU: a quarter of the target bytes.
        sharded.memory_budget_mb = sharded.num_edges * 8 / 4 / 2**20
        spec = dict(algorithm=algorithm, framework=framework, nodes=nodes)
        tracer = Tracer()
        with sharded_module.use_tracer(tracer):
            got = run(ExperimentSpec(dataset=sharded, **spec))
        want = run(ExperimentSpec(dataset=dense, **spec))
        assert got.ok and got.runtime() == want.runtime()
        assert np.array_equal(got.result.values, want.result.values)
        # The interpreted oracle walks the flat edge array on purpose.
        if not interpreted():
            assert not tracer.spans_named("sharded-materialize")


class TestPeakRss:
    def test_peak_rss_is_positive_and_resets(self):
        before = peak_rss_bytes()
        assert before > 0
        if not reset_peak_rss():
            pytest.skip("peak-RSS reset needs /proc/self/clear_refs")
        # A reset rewinds the high-water mark to (about) current RSS;
        # it must not exceed the old lifetime peak.
        assert 0 < peak_rss_bytes() <= before


class TestOutOfCoreDemo:
    def test_oom_to_ok_transition(self, cache_dir, tmp_path):
        # A fresh interpreter, not an in-process run: the workers fork
        # from their parent, and a fat pytest parent donates its freed
        # heap arenas (extra headroom) and resident interpreter (extra
        # RSS) to the children, wrecking the RLIMIT_AS calibration in
        # both directions. The CLI path is also what CI exercises.
        # Knobs calibrated so the dense build's transient allocations
        # blow the anonymous cap while the streamed path fits. Bisected
        # on --memory-limit-mb with the other knobs as below: the
        # streamed cell fails at 1 and completes from 2; the dense cell
        # is out-of-memory up to 11 and completes from 12. 7 sits
        # mid-way between the two failure points. The calibration is the
        # vectorized backend's: the interpreted oracle walks flat arrays.
        journal = tmp_path / "outofcore.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "outofcore", "demo",
             "--scale", "16", "--memory-limit-mb", "7",
             "--mapped-allowance-mb", "4", "--memory-budget-mb", "4",
             "--chunk-edges", str(1 << 16), "--partitions", "16",
             "--roots", "2", "--journal", str(journal), "--json"],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": "src",
                 "REPRO_KERNELS": "vectorized"})
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["in_memory"]["status"] == "out-of-memory"
        assert report["streamed"]["status"] == "ok"
        assert report["transition"] is True
        value = report["streamed"]["value"]
        assert value["all_valid"]
        # Peak RSS bounded: interpreter baseline + cap + shard maps.
        assert 0 < value["peak_rss_mb"] < 160
        lines = [json.loads(line)
                 for line in journal.read_text().splitlines()]
        statuses = {rec["key"]["mode"]: rec["status"]
                    for rec in lines if "key" in rec}
        assert statuses == {"in-memory": "out-of-memory", "streamed": "ok"}


class TestJournalDifferential:
    """Byte-identical sweep journals through both storage paths."""

    CELLS = [{"algorithm": algorithm, "framework": "galois",
              "dataset": "synthetic"}
             for algorithm in ("pagerank", "bfs", "triangle_counting")]

    def _run(self, path, out_of_core, monkeypatch):
        from repro.harness.datasets import clear_proxy_caches
        from repro.harness.sweep import Sweep
        from repro.harness.sweep import sweep_cell

        if out_of_core:
            monkeypatch.setenv(OUT_OF_CORE_ENV, "1")
        else:
            monkeypatch.delenv(OUT_OF_CORE_ENV, raising=False)
        clear_proxy_caches()
        sweep = Sweep("table5-subset", journal=path)
        sweep.run(self.CELLS, sweep_cell)
        return path.read_bytes()

    def test_table5_subset_journals_are_byte_identical(self, cache_dir,
                                                       tmp_path,
                                                       monkeypatch):
        dense = self._run(tmp_path / "dense.jsonl", False, monkeypatch)
        streamed = self._run(tmp_path / "streamed.jsonl", True, monkeypatch)
        assert dense == streamed
