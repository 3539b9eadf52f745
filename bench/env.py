"""Where the benchmark runs: paths, the declared contract, an isolated env.

Every number must come from this checkout's ``src/`` and from inputs the
benchmark generated itself, so a workload process (i) imports ``repro``
from ``<root>/src`` regardless of what is installed, (ii) drops the
environment switches that reroute the program (kernel backend,
out-of-core reroute, real chaos, cache kill-switch), and (iii) points
the dataset cache at a private directory under ``bench/out/`` — the
repo's git-ignored ``.repro_cache/`` must never leak into a timing.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Switches that change which code path the program takes; a benchmark
#: run must see none of them.
SCRUBBED = ("REPRO_KERNELS", "REPRO_OUT_OF_CORE", "REPRO_CHAOS_REAL",
            "REPRO_DATASET_CACHE")
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def declared() -> dict:
    """``BENCHMARK.json`` — the one place names, units and bounds live."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def use_source_tree() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    if not (SRC / "repro" / "__init__.py").exists():
        raise SystemExit(f"bench: no program to measure: {SRC}/repro is "
                         "missing (run from a full checkout)")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def isolate(label: str) -> Path:
    """Scrub the env and create this process's private scratch dir.

    Returns the directory (holding ``cache/``); the caller removes it
    with :func:`cleanup` when the run ends.
    """
    for name in SCRUBBED:
        os.environ.pop(name, None)
    private = OUT / "tmp" / f"{label}-{os.getpid()}"
    shutil.rmtree(private, ignore_errors=True)
    (private / "cache").mkdir(parents=True)
    os.environ[CACHE_DIR_ENV] = str(private / "cache")
    return private


def cleanup(private: Path) -> None:
    shutil.rmtree(private, ignore_errors=True)


def empty_cache(private: Path) -> None:
    """Back to a cold dataset cache (between set-ups and cold units)."""
    shutil.rmtree(private / "cache", ignore_errors=True)
    (private / "cache").mkdir()


def isolation_report() -> dict:
    """What the workload process actually sees (asserted by self-tests)."""
    return {"scrubbed": {name: os.environ.get(name) for name in SCRUBBED},
            "cache_dir": os.environ.get(CACHE_DIR_ENV)}

