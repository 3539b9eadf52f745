"""Content-addressed dataset cache: keys, immutability, invalidation.

Covers the cache's whole contract: cold and warm calls hand out equal
(immutable, memory-mapped) datasets; keys bind the full generator
signature plus the code-version salt; a mutating cell cannot poison a
later cell; tracer instants make hits/misses observable; and the
``repro cache`` CLI manages the store.
"""

import pathlib
import shutil

import numpy as np
import pytest

from repro.datagen import (
    cache_entries,
    cache_stats,
    clear_cache,
    netflix_like_ratings,
    rmat_graph,
    rmat_graph_sharded,
)
from repro.datagen import cache as cache_module
from repro.datagen import rmat as rmat_module
from repro.graph import graph_digests
from repro.harness.sweep import Sweep
from repro.harness.tables import table5
from repro.observability import Tracer

GRAPH_ARGS = dict(scale=6, edge_factor=4, seed=11)


def mmap_backed(array) -> bool:
    """True when the array's buffer chain bottoms out in a memory map.

    ``CSRGraph`` wraps its inputs in ``np.asarray``, which turns a
    ``np.memmap`` into a base-class *view* (no copy); a dtype mismatch
    would silently copy instead, which is exactly what this detects.
    """
    while isinstance(array, np.ndarray):
        if isinstance(array, np.memmap):
            return True
        array = array.base
    return False


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Point the cache at a private root and make sure it is enabled."""
    root = tmp_path / "cache"
    monkeypatch.setenv(cache_module.CACHE_DIR_ENV, str(root))
    monkeypatch.delenv(cache_module.CACHE_ENABLE_ENV, raising=False)
    return root


class TestRoundtrip:
    def test_warm_call_reproduces_the_cold_build(self, cache_dir):
        fresh = rmat_graph.__wrapped__(**GRAPH_ARGS)   # uncached build
        cold = rmat_graph(**GRAPH_ARGS)
        warm = rmat_graph(**GRAPH_ARGS)
        for built in (cold, warm):
            assert built.num_vertices == fresh.num_vertices
            assert np.array_equal(built.offsets, fresh.offsets)
            assert np.array_equal(built.targets, fresh.targets)
        assert len(cache_entries()) == 1
        # The warm copy is a read-only memory map, not an allocation.
        assert mmap_backed(warm.targets) and mmap_backed(warm.offsets)
        assert not warm.targets.flags.writeable

    def test_ratings_roundtrip(self, cache_dir):
        cold = netflix_like_ratings(scale=6, num_items=40, seed=5)
        warm = netflix_like_ratings(scale=6, num_items=40, seed=5)
        assert warm.num_users == cold.num_users
        assert warm.num_items == cold.num_items
        assert np.array_equal(warm.ratings, cold.ratings)
        assert not warm.ratings.flags.writeable

    def test_default_and_explicit_params_share_one_entry(self, cache_dir):
        rmat_graph(6, seed=11, edge_factor=4)
        rmat_graph(scale=6, edge_factor=4, seed=11)    # defaults applied
        assert len(cache_entries()) == 1
        rmat_graph(scale=6, edge_factor=4, seed=12)    # any param change
        assert len(cache_entries()) == 2


class TestImmutability:
    def test_cached_arrays_are_read_only(self, cache_dir):
        graph = rmat_graph(**GRAPH_ARGS)
        for array in (graph.offsets, graph.targets):
            assert not array.flags.writeable
            with pytest.raises((ValueError, TypeError)):
                array[0] = 0

    def test_mutating_cell_cannot_poison_a_later_cell(self, cache_dir):
        """The aliasing regression the freeze exists to prevent."""
        first = rmat_graph(**GRAPH_ARGS)
        pristine = np.array(first.targets[:16])        # private copy
        with pytest.raises((ValueError, TypeError)):
            first.targets[0] = first.targets[0] + 1    # the mutating cell
        later = rmat_graph(**GRAPH_ARGS)               # a later cell
        assert np.array_equal(later.targets[:16], pristine)

    def test_disabled_cache_still_freezes(self, cache_dir, monkeypatch):
        monkeypatch.setenv(cache_module.CACHE_ENABLE_ENV, "0")
        graph = rmat_graph(**GRAPH_ARGS)
        assert not graph.targets.flags.writeable
        assert cache_entries() == []                   # nothing stored


class TestKeysAndInvalidation:
    def test_entry_key_is_order_insensitive_and_param_sensitive(self):
        base = cache_module.entry_key("g", {"a": 1, "b": 2})
        assert cache_module.entry_key("g", {"b": 2, "a": 1}) == base
        assert cache_module.entry_key("g", {"a": 1, "b": 3}) != base
        assert cache_module.entry_key("h", {"a": 1, "b": 2}) != base

    def test_entry_key_rejects_unkeyable_params(self):
        with pytest.raises(TypeError, match="cache key"):
            cache_module.entry_key("g", {"x": object()})

    def test_code_version_salts_keys_and_marks_stale(self, cache_dir,
                                                     monkeypatch):
        rmat_graph(**GRAPH_ARGS)
        before = cache_module.entry_key("rmat_graph", {"scale": 6})
        assert [item["stale"] for item in cache_entries()] == [False]

        # Simulate an edit to a generator: the salt changes, every old
        # entry goes stale, and new keys no longer collide with it.
        monkeypatch.setattr(cache_module, "code_version", lambda: "0" * 16)
        assert cache_module.entry_key("rmat_graph", {"scale": 6}) != before
        assert [item["stale"] for item in cache_entries()] == [True]
        assert clear_cache(stale_only=True) == 1
        assert cache_entries() == []


    @pytest.mark.parametrize("salted", [
        "datagen/rmat.py", "datagen/cache.py", "graph/keys.py",
        "graph/csr.py", "graph/sharded.py", "graph/edgelist.py"])
    def test_code_version_covers_every_file_that_decides_a_byte(
            self, salted, monkeypatch):
        fresh = cache_module.code_version.__wrapped__
        before = fresh()
        read_bytes = pathlib.Path.read_bytes

        def edited(path):
            data = read_bytes(path)
            return data + b"# edit\n" if path.as_posix().endswith(
                "repro/" + salted) else data

        monkeypatch.setattr(pathlib.Path, "read_bytes", edited)
        assert fresh() != before


class TestObservability:
    def test_tracer_sees_miss_store_then_hit(self, cache_dir):
        tracer = Tracer()
        with cache_module.use_tracer(tracer):
            rmat_graph(**GRAPH_ARGS)
            rmat_graph(**GRAPH_ARGS)
        assert len(tracer.spans_named("dataset-cache-miss")) == 1
        assert len(tracer.spans_named("dataset-cache-store")) == 1
        assert len(tracer.spans_named("dataset-cache-hit")) == 1

    @pytest.mark.usefixtures("fresh_pins")
    def test_a_warm_table5_rerun_generates_nothing(self, cache_dir):
        """Every dataset a sweep reads comes through the cache, so a
        rerun on a warm disk cache generates and stores nothing."""
        subset = {"algorithms": ("pagerank", "bfs"),
                  "frameworks": ("galois",)}
        cold = Tracer()
        cold_data = table5(sweep=Sweep("table5", tracer=cold), **subset)
        assert cold.spans_named("dataset-cache-miss")
        assert cold.spans_named("dataset-cache-store")

        cache_module.clear_pins()        # the rerun reaches the disk cache
        warm = Tracer()
        warm_data = table5(sweep=Sweep("table5", tracer=warm), **subset)
        assert warm_data == cold_data
        assert warm.spans_named("dataset-cache-hit")
        assert not warm.spans_named("dataset-cache-miss")
        assert not warm.spans_named("dataset-cache-store")


def instants(tracer):
    """(name, pinned) of every cache instant, in order."""
    assert all(span.attrs["key"] and span.attrs["generator"]
               for span in tracer.spans)
    return [(span.name, span.attrs.get("pinned", False))
            for span in tracer.spans]


#: One lifecycle, two entry shapes: array (dense graph) and directory
#: (sharded graph). Everything below must hold identically for both.
SHAPES = {"array": rmat_graph, "directory": rmat_graph_sharded}


@pytest.fixture
def fresh_pins():
    cache_module.clear_pins()
    yield
    cache_module.clear_pins()


@pytest.mark.usefixtures("fresh_pins")
@pytest.mark.parametrize("build", SHAPES.values(), ids=SHAPES.keys())
class TestOneLifecycle:
    def traced(self, build):
        tracer = Tracer()
        with cache_module.use_tracer(tracer):
            graph = build(**GRAPH_ARGS)
        return graph, instants(tracer)

    def test_cold_miss_then_warm_hit_then_pinned_hit(self, cache_dir, build):
        cold, seen = self.traced(build)
        assert seen == [("dataset-cache-miss", False),
                        ("dataset-cache-store", False)]
        with cache_module.pinning():
            warm, seen = self.traced(build)
        assert seen == [("dataset-cache-hit", False)]
        pinned, seen = self.traced(build)
        assert seen == [("dataset-cache-hit", True)]
        assert pinned is warm
        assert graph_digests(cold) == graph_digests(warm)
        assert len(cache_entries()) == 1

    def test_disabled_cache_is_silent_and_stores_nothing(
            self, cache_dir, build, monkeypatch):
        monkeypatch.setenv(cache_module.CACHE_ENABLE_ENV, "0")
        graph, seen = self.traced(build)
        assert seen == [] and cache_entries() == []
        assert graph.num_edges > 0

    def test_lost_publish_race_returns_the_winner(self, cache_dir, build,
                                                  tmp_path, monkeypatch):
        want = graph_digests(build(**GRAPH_ARGS))
        (entry,) = cache_entries()
        final = cache_dir / entry["key"]
        winner = tmp_path / "winner"
        final.rename(winner)
        (winner / "won").write_text("first replace wins")

        def racing(original):
            def wrapper(*args, **kwargs):
                # A concurrent builder publishes while ours is building.
                if not final.exists():
                    shutil.copytree(winner, final)
                return original(*args, **kwargs)
            return wrapper

        for name in ("rmat_edges", "build_sharded_csr"):
            monkeypatch.setattr(rmat_module, name,
                                racing(getattr(rmat_module, name)))
        graph, seen = self.traced(build)
        assert seen == [("dataset-cache-miss", False),
                        ("dataset-cache-store", False)]
        assert (final / "won").exists()
        assert [path.name for path in cache_dir.iterdir()] == [final.name]
        assert graph_digests(graph) == want

    def test_torn_meta_is_a_miss_not_a_crash(self, cache_dir, build):
        want = graph_digests(build(**GRAPH_ARGS))
        (entry,) = cache_entries()
        (cache_dir / entry["key"] / "meta.json").write_text("{torn")
        (listed,) = cache_entries()
        assert listed["kind"] == "corrupt" and listed["stale"]
        graph, seen = self.traced(build)
        assert seen == [("dataset-cache-miss", False),
                        ("dataset-cache-store", False)]
        assert graph_digests(graph) == want
        assert [item["kind"] for item in cache_entries()] == [entry["kind"]]

    def test_clear_stale_sweeps_a_corrupt_entry(self, cache_dir, build):
        build(**GRAPH_ARGS)
        (entry,) = cache_entries()
        (cache_dir / entry["key"] / "meta.json").write_text("{torn")
        assert clear_cache(stale_only=True) == 1
        assert cache_entries() == []


class TestDamagedArrays:
    def test_missing_array_file_is_a_miss(self, cache_dir):
        want = graph_digests(rmat_graph(**GRAPH_ARGS))
        (entry,) = cache_entries()
        (cache_dir / entry["key"] / "targets.npy").unlink()
        assert graph_digests(rmat_graph(**GRAPH_ARGS)) == want
        assert (cache_dir / entry["key"] / "targets.npy").exists()


class TestManagement:
    def test_stats_and_clear(self, cache_dir):
        rmat_graph(**GRAPH_ARGS)
        netflix_like_ratings(scale=6, num_items=40, seed=5)
        summary = cache_stats()
        assert summary["entries"] == 2 and summary["bytes"] > 0
        assert set(summary["by_generator"]) == \
            {"rmat_graph", "netflix_like_ratings"}
        assert clear_cache() == 2
        assert cache_stats()["entries"] == 0

    def test_cache_cli(self, cache_dir, capsys):
        from repro.cli import main

        assert main(["cache", "stats"]) == 0
        rmat_graph(**GRAPH_ARGS)
        assert main(["cache", "list"]) == 0
        out = capsys.readouterr().out
        assert "rmat_graph" in out
        assert main(["cache", "clear", "--stale"]) == 0
        assert main(["cache", "clear"]) == 0
        assert main(["cache", "list"]) == 0
        assert "empty" in capsys.readouterr().out

    def test_cache_stats_json_includes_pins(self, cache_dir, capsys):
        import json

        from repro.cli import main

        with cache_module.pinning():
            rmat_graph(**GRAPH_ARGS)
        try:
            assert main(["cache", "stats", "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["entries"] == 1
            assert payload["pinned"]["entries"] == 1
            assert payload["pinned"]["keys"][0]["generator"] \
                == "rmat_graph"
        finally:
            cache_module.clear_pins()


@pytest.mark.usefixtures("fresh_pins")
class TestPinnedDatasets:
    def test_pinning_block_pins_what_it_touches(self, cache_dir):
        with cache_module.pinning():
            warm = rmat_graph(**GRAPH_ARGS)
        held = cache_module.pinned()
        assert len(held) == 1
        assert held[0]["generator"] == "rmat_graph"
        # A later load is served from the pin, not the filesystem, and
        # hands back the *same* object.
        tracer = Tracer()
        with cache_module.use_tracer(tracer):
            again = rmat_graph(**GRAPH_ARGS)
        assert again is warm
        hits = tracer.spans_named("dataset-cache-hit") \
            if hasattr(tracer, "spans_named") else []
        instants = [span for span in tracer.spans
                    if span.name == "dataset-cache-hit"]
        assert instants and instants[-1].attrs.get("pinned") is True
        assert cache_module.pinned()[0]["hits"] == 1

    def test_a_direct_generator_call_holds_nothing(self, cache_dir):
        tracer = Tracer()
        with cache_module.use_tracer(tracer):
            cold, warm = rmat_graph(**GRAPH_ARGS), rmat_graph(**GRAPH_ARGS)
        assert instants(tracer) == [("dataset-cache-miss", False),
                                    ("dataset-cache-store", False),
                                    ("dataset-cache-hit", False)]
        assert cold is not warm and cache_module.pinned() == []

    def test_stats_report_pins(self, cache_dir):
        with cache_module.pinning():
            rmat_graph(**GRAPH_ARGS)
        report = cache_stats()
        assert report["pinned"]["entries"] == 1
        assert report["pinned"]["keys"][0]["generator"] == "rmat_graph"

    def test_pins_work_with_disk_cache_disabled(self, cache_dir,
                                                monkeypatch):
        monkeypatch.setenv(cache_module.CACHE_ENABLE_ENV, "0")
        with cache_module.pinning():
            warm = rmat_graph(**GRAPH_ARGS)
        assert rmat_graph(**GRAPH_ARGS) is warm
