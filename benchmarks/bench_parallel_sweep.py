"""Parallel sweep + dataset cache: the acceptance demonstrations.

Two claims ride on this file:

* a ``jobs=4`` table5 sweep writes a journal *byte-identical* to the
  serial one (and is >=2x faster on a warm cache when the machine
  actually has 4 cores — asserted only there, wall clock is advisory
  elsewhere);
* a cold -> warm rerun skips every dataset generation, proven by the
  tracer's ``dataset-cache-*`` instants rather than by timing.
"""

import os
import time

from repro.harness import table5
from repro.harness.datasets import clear_proxy_caches
from repro.harness.sweep import Sweep
from repro.observability import Tracer
from benchmarks.conftest import json_equal


def test_parallel_table5_byte_identical(regenerate, tmp_path, monkeypatch):
    """Serial and jobs=4 table5 agree byte-for-byte; speedup on >=4 cores."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_proxy_caches()
    try:
        table5(sweep=Sweep("table5"))        # warm disk + lru cache layers

        serial_journal = tmp_path / "serial.jsonl"
        start = time.perf_counter()
        serial = table5(sweep=Sweep("table5", journal=serial_journal,
                                    jobs=1))
        serial_s = time.perf_counter() - start

        parallel_journal = tmp_path / "parallel.jsonl"
        start = time.perf_counter()
        parallel = regenerate(
            lambda: table5(sweep=Sweep("table5", journal=parallel_journal,
                                       jobs=4)))
        parallel_s = time.perf_counter() - start

        assert json_equal(parallel, serial)
        assert parallel_journal.read_bytes() == serial_journal.read_bytes()

        print(f"\ntable5 warm-cache: serial {serial_s:.2f} s, "
              f"jobs=4 {parallel_s:.2f} s "
              f"({serial_s / parallel_s:.2f}x, {os.cpu_count()} cores)")
        if (os.cpu_count() or 1) >= 4:
            assert serial_s >= 2.0 * parallel_s, (serial_s, parallel_s)
    finally:
        # The lru layer now holds mmaps into tmp_path; drop them so later
        # benchmarks rebuild from their own cache root.
        clear_proxy_caches()


def test_warm_cache_skips_generation(tmp_path, monkeypatch):
    """A warm rerun performs zero dataset generation (tracer-verified)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    subset = {"algorithms": ("pagerank", "bfs"), "frameworks": ("galois",)}
    clear_proxy_caches()
    try:
        cold = Tracer()
        cold_data = table5(sweep=Sweep("table5", tracer=cold), **subset)
        assert cold.spans_named("dataset-cache-miss")
        assert cold.spans_named("dataset-cache-store")

        clear_proxy_caches()                 # force the disk-cache path
        warm = Tracer()
        warm_data = table5(sweep=Sweep("table5", tracer=warm), **subset)
        assert warm_data == cold_data
        assert warm.spans_named("dataset-cache-hit")
        assert not warm.spans_named("dataset-cache-miss")
        assert not warm.spans_named("dataset-cache-store")
    finally:
        clear_proxy_caches()
