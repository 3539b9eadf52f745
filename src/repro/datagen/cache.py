"""Content-addressed on-disk cache for generated datasets.

Every sweep cell, benchmark and worker process used to regenerate its
RMAT graphs and ratings matrices from scratch (or at best share a
per-process ``functools.lru_cache``). Generation is deterministic, so
that work is pure waste: the same ``(generator, params, seed)`` always
produces the same arrays. This module gives the generators a shared
disk cache:

* **Content-addressed keys.** An entry's identity is the SHA-256 of the
  canonical JSON of ``{generator, params (defaults applied), code
  version}``. The *code-version salt* is a hash over the source of
  every ``repro.datagen`` module and of the ``repro.graph`` builders,
  so editing either invalidates the entries without manual versioning.
* **Memory-mapped loads.** Arrays are stored as raw ``.npy`` files and
  loaded with ``mmap_mode="r"``: a warm hit costs an ``open`` + page
  faults, not an allocation + copy, and every worker process of a
  parallel sweep shares the page cache for one generation pass.
* **Read-only by construction.** Loaded arrays are immutable (read-only
  mmaps), and freshly built arrays are frozen with
  ``setflags(write=False)`` before anyone sees them — the fix for the
  cross-cell aliasing hazard where one cell could mutate a cached
  ``CSRGraph`` and poison every later cell.
* **Crash/concurrency safety.** An entry is built in a temp directory
  and published with one ``os.replace``; concurrent writers race
  benignly (first replace wins, losers discard their temp dir). An
  entry that no longer loads (torn ``meta.json``, missing or truncated
  array or shard file) is removed and rebuilt: damage is a miss.
* **One lifecycle.** Array entries and sharded-CSR directory entries
  both go through :func:`_lookup`; they differ only in how an entry's
  temp directory is filled.
* **Observable.** Hits, misses and stores are mirrored as tracer
  instants (``dataset-cache-hit`` / ``-miss`` / ``-store``) on the
  active tracer, so a sweep's flight record proves whether generation
  actually happened.
* **Two tiers: resident set, then disk.** The process's one resident
  set is a registry keyed by the same content address, holding strong
  references to loaded datasets and checked *before* the disk lookup.
  Whatever is looked up inside a :func:`pinning` block is held —
  :mod:`repro.harness.datasets` (every named or placed dataset) and
  the daemon's warm-up are the only code that enters one; a generator
  called directly holds nothing. A resident hit costs a key hash and a
  dict lookup (no ``open``, no page faults on a cold page cache) and
  is marked ``pinned=true`` on its ``dataset-cache-hit`` instant.

The cache root is ``$REPRO_CACHE_DIR`` when set, else ``.repro_cache``
under the current directory. ``REPRO_DATASET_CACHE=0`` disables disk
caching entirely (generators still freeze their outputs).
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import shutil
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ..errors import GraphFormatError
from ..graph.sharded import ShardedCSRGraph, publish_dir
from ..observability import NULL_TRACER

#: Environment variable overriding the cache root directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable disabling the disk cache ("0"/"off"/"false").
CACHE_ENABLE_ENV = "REPRO_DATASET_CACHE"

_DEFAULT_ROOT = ".repro_cache"
_META_NAME = "meta.json"

#: The tracer cache events land on; swapped per cell by the sweep
#: engine via :func:`use_tracer` (one per process — workers each bind
#: their own).
_TRACER = NULL_TRACER


@contextmanager
def use_tracer(tracer):
    """Route cache instants to ``tracer`` for the duration of the block."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer if tracer is not None else NULL_TRACER
    try:
        yield
    finally:
        _TRACER = previous


def cache_enabled() -> bool:
    return os.environ.get(CACHE_ENABLE_ENV, "1").lower() \
        not in ("0", "off", "false", "no")


def cache_root() -> Path:
    """The cache directory currently in effect (may not exist yet)."""
    return Path(os.environ.get(CACHE_DIR_ENV) or _DEFAULT_ROOT)


#: ``repro.graph`` modules that decide the bytes of a cached graph (the
#: key sort, both CSR builders, edge-list validation): salted too.
_SALTED_GRAPH_FILES = ("csr.py", "edgelist.py", "keys.py", "sharded.py")


@functools.lru_cache(maxsize=1)
def code_version() -> str:
    """Hash of every source file a cached byte depends on: the salt.

    Any edit to a generator (or to this cache module, or to the graph
    builders) changes the salt, which changes every key, which orphans
    stale entries instead of serving data a different implementation
    would no longer produce.
    """
    here = Path(__file__).parent
    digest = hashlib.sha256()
    for path in sorted(here.glob("*.py")) + [
            here.parent / "graph" / name for name in _SALTED_GRAPH_FILES]:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _normalize(value):
    """Canonical JSON-safe form of one generator parameter."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [_normalize(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _normalize(val) for key, val in value.items()}
    if hasattr(value, "__dataclass_fields__"):   # e.g. RMATParams
        return {name: _normalize(getattr(value, name))
                for name in sorted(value.__dataclass_fields__)}
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    raise TypeError(
        f"cannot derive a cache key from parameter of type "
        f"{type(value).__name__}"
    )


def entry_key(generator: str, params: dict) -> str:
    """Content address of one cache entry (hex digest)."""
    canonical = json.dumps(
        {"generator": generator, "params": _normalize(params),
         "version": code_version()},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:24]


def freeze_dataset(data):
    """Make a dataset's arrays immutable in place; returns it.

    Cached datasets are shared across cells (and, via the page cache,
    across worker processes); a writable array here is the aliasing
    hazard this module exists to close.
    """
    for array in _arrays_of(data).values():
        if isinstance(array, np.ndarray) and array.flags.writeable:
            array.setflags(write=False)
    return data


# -- (de)serialization -------------------------------------------------------

def _arrays_of(data) -> dict:
    from ..graph import CSRGraph, RatingsMatrix

    if isinstance(data, CSRGraph):
        arrays = {"offsets": data.offsets, "targets": data.targets}
        if data.edge_weights is not None:
            arrays["edge_weights"] = data.edge_weights
        return arrays
    if isinstance(data, RatingsMatrix):
        return {"users": data.users, "items": data.items,
                "ratings": data.ratings}
    raise TypeError(f"cannot cache dataset of type {type(data).__name__}")


def _scalars_of(data) -> dict:
    from ..graph import CSRGraph

    if isinstance(data, CSRGraph):
        return {"kind": "csr", "num_vertices": data.num_vertices,
                "symmetric": data.symmetric}
    return {"kind": "ratings", "num_users": data.num_users,
            "num_items": data.num_items}


def _materialize(meta: dict, arrays: dict):
    from ..graph import CSRGraph, RatingsMatrix

    if meta["kind"] == "csr":
        return CSRGraph(meta["num_vertices"], arrays["offsets"],
                        arrays["targets"], arrays.get("edge_weights"),
                        symmetric=meta.get("symmetric", False))
    return RatingsMatrix(meta["num_users"], meta["num_items"],
                         arrays["users"], arrays["items"],
                         arrays["ratings"])


def _write_meta(tmp, meta: dict, generator: str, params: dict) -> None:
    """Stamp an entry with its identity; the last file a build writes."""
    meta = {**meta, "generator": generator, "params": _normalize(params),
            "version": code_version()}
    (Path(tmp) / _META_NAME).write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n")


def _read_meta(entry: Path) -> dict:
    meta = json.loads((entry / _META_NAME).read_text())
    if not isinstance(meta, dict):
        raise ValueError(f"{entry / _META_NAME} is not a JSON object")
    return meta


#: What loading a damaged entry raises: unreadable or invalid
#: ``meta.json``, a missing or torn array file, a failed graph open.
_CORRUPT = (OSError, ValueError, KeyError, GraphFormatError)


def _load(entry: Path):
    meta = _read_meta(entry)
    if meta.get("kind") == "sharded-csr":
        # Shard files are mapped read-only by construction: nothing to
        # freeze.
        return ShardedCSRGraph(entry)
    arrays = {
        path.stem: np.load(path, mmap_mode="r")
        for path in sorted(entry.glob("*.npy"))
    }
    return freeze_dataset(_materialize(meta, arrays))


def _lookup(generator: str, params: dict, build, save, root):
    """The cache's one lifecycle; every lookup is a caller of this.

    resident hit -> cache disabled -> disk hit -> miss -> ``build()`` ->
    publish (``save(tmp, data)`` fills the entry's temp directory) ->
    store -> load -> held when inside :func:`pinning`. Cold and warm
    runs hand out the same *loaded* object. ``root`` is where entries
    live, None for none at all. An entry that cannot be loaded is
    removed and is a miss; one that cannot be published falls back to
    the frozen in-memory build, when there is one (read-only filesystem).
    """
    key = entry_key(generator, params)
    with _PINS_LOCK:
        held = _PINS.get(key)
        if held is not None:
            held["hits"] += 1
    if held is not None:
        _TRACER.instant("dataset-cache-hit", generator=generator, key=key,
                        pinned=True)
        return held["data"]
    if root is None:
        return _maybe_pin(key, generator, freeze_dataset(build()))
    tracer = _TRACER if cache_enabled() else NULL_TRACER
    entry = Path(root) / key
    if entry.is_dir():
        try:
            data = _load(entry)
        except _CORRUPT:
            shutil.rmtree(entry, ignore_errors=True)
        else:
            tracer.instant("dataset-cache-hit", generator=generator, key=key)
            return _maybe_pin(key, generator, data)
    tracer.instant("dataset-cache-miss", generator=generator, key=key)
    data = build()
    try:
        publish_dir(entry, lambda tmp: save(tmp, data))
    except OSError:
        if data is None:
            raise
        return _maybe_pin(key, generator, freeze_dataset(data))
    tracer.instant("dataset-cache-store", generator=generator, key=key)
    return _maybe_pin(key, generator, _load(entry))


def get_or_build(generator: str, params: dict, build):
    """Array-shaped entries: load the dataset or build + publish it.

    Returns the *loaded* (memory-mapped, immutable) dataset on both
    paths. With caching disabled the build stays in memory, frozen.
    Resident entries (see :func:`pinning`) short-circuit everything:
    the held object is returned directly, with a ``pinned=true`` hit
    instant as proof.
    """
    def save(tmp, data):
        for name, array in _arrays_of(data).items():
            np.save(Path(tmp) / f"{name}.npy", np.ascontiguousarray(array))
        _write_meta(tmp, _scalars_of(data), generator, params)

    return _lookup(generator, params, build, save,
                   cache_root() if cache_enabled() else None)


def get_or_build_dir(generator: str, params: dict, build_into):
    """Directory-shaped cache entries (the sharded-CSR manifests).

    ``build_into(tmpdir)`` must write a complete sharded graph directory
    (shard files plus a ``meta.json`` manifest) into ``tmpdir``; the
    cache stamps the manifest with its generator/params/version identity
    and publishes it exactly like array entries. A hit hands back a
    :class:`~repro.graph.ShardedCSRGraph` over the published directory —
    loading costs one manifest read plus the lazy mmaps, so pinning the
    result pins the *manifest*, not the edge bytes. With caching
    disabled, builds land in a process-lifetime temp directory (sharded
    graphs need a disk home regardless).
    """
    def save(tmp, _data):
        build_into(tmp)
        _write_meta(tmp, _read_meta(Path(tmp)), generator, params)

    return _lookup(generator, params, lambda: None, save,
                   cache_root() if cache_enabled() else _scratch_root())


@functools.lru_cache(maxsize=1)
def _scratch_root() -> str:
    """Process-lifetime home for cache-disabled sharded builds."""
    import atexit

    root = tempfile.mkdtemp(prefix="repro-ooc-")
    atexit.register(shutil.rmtree, root, ignore_errors=True)
    return root


def disk_cached(generator: str):
    """Decorator wiring one dataset generator through the disk cache.

    The cache key binds the call's full signature (defaults applied),
    so ``rmat_graph(10)`` and ``rmat_graph(scale=10, edge_factor=16)``
    share one entry. The undecorated function stays reachable as
    ``fn.__wrapped__`` for tests that need a fresh, writable build.
    """

    def wrap(fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def inner(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return get_or_build(generator, dict(bound.arguments),
                                lambda: fn(*args, **kwargs))

        return inner

    return wrap


# -- the resident set ---------------------------------------------------------

#: key -> {"generator", "data", "hits"}; guarded by the lock (the server
#: touches this from its event loop and sweep threads).
_PINS = {}
_PINS_LOCK = threading.Lock()

#: Depth of active :func:`pinning` blocks (>0 = hold every lookup).
_PINNING_DEPTH = [0]


def _maybe_pin(key: str, generator: str, data):
    """Hold a freshly loaded dataset inside a :func:`pinning` block."""
    with _PINS_LOCK:
        if _PINNING_DEPTH[0] > 0:
            # First holder wins, so one key is only ever one object.
            data = _PINS.setdefault(
                key, {"generator": generator, "data": data, "hits": 0})["data"]
    return data


@contextmanager
def pinning():
    """Hold every dataset looked up inside the block in the resident set.

    Afterwards the datasets live in the process as strong references,
    and every later lookup of the same content — from any caller —
    is handed the same object without touching the filesystem.
    """
    with _PINS_LOCK:
        _PINNING_DEPTH[0] += 1
    try:
        yield
    finally:
        with _PINS_LOCK:
            _PINNING_DEPTH[0] -= 1


def pinned() -> list:
    """The resident entries: key, generator, pinned-hit count."""
    with _PINS_LOCK:
        return [{"key": key, "generator": held["generator"],
                 "hits": held["hits"]}
                for key, held in sorted(_PINS.items())]


def clear_pins() -> int:
    """Empty the resident set; returns how many entries it held."""
    with _PINS_LOCK:
        count = len(_PINS)
        _PINS.clear()
        return count


# -- management (the ``repro cache`` subcommand) -----------------------------

def pinned_memory() -> dict:
    """Virtual vs resident footprint of the pinned warm set.

    ``virtual_bytes`` sums ``nbytes()`` (what the address space holds,
    shard files included); ``resident_bytes`` sums ``resident_nbytes()``
    (anonymous memory actually held — mmap-backed arrays count zero).
    Memory admission budgets against the resident number.
    """
    with _PINS_LOCK:
        held = [item["data"] for item in _PINS.values()]
    virtual = resident = 0
    for data in held:
        nbytes = getattr(data, "nbytes", None)
        if callable(nbytes):
            virtual += int(nbytes())
        resident_fn = getattr(data, "resident_nbytes", None)
        if callable(resident_fn):
            resident += int(resident_fn())
        elif callable(nbytes):
            resident += int(nbytes())
    return {"virtual_bytes": virtual, "resident_bytes": resident}


def pinned_stats() -> dict:
    """The resident set's counters; touches no file (``GET /stats``)."""
    held = pinned()
    return {"entries": len(held),
            "hits": sum(item["hits"] for item in held),
            "keys": held,
            "memory": pinned_memory()}


def entries(root=None) -> list:
    """All cache entries as dicts: key, generator, kind, size, files."""
    root = Path(root) if root is not None else cache_root()
    if not root.exists():
        return []
    out = []
    for entry in sorted(root.iterdir()):
        if not entry.is_dir() or not (entry / _META_NAME).exists():
            continue
        try:
            meta = _read_meta(entry)
        except (OSError, ValueError):
            # Swept by ``clear --stale``; a lookup would rebuild it.
            meta = {"kind": "corrupt"}
        # Recursive walk: sharded entries nest shard files (and possibly
        # a reverse/ transpose directory) below the entry root.
        size = sum(path.stat().st_size
                   for path in entry.rglob("*") if path.is_file())
        item = {
            "key": entry.name,
            "generator": meta.get("generator", "?"),
            "kind": meta.get("kind", "?"),
            "params": meta.get("params", {}),
            "version": meta.get("version", "?"),
            "bytes": size,
            "stale": meta.get("version") != code_version(),
        }
        if meta.get("kind") == "sharded-csr":
            sharded = meta.get("sharded", {})
            item["partitions"] = len(sharded.get("partitions", []))
            item["num_edges"] = sharded.get("num_edges")
        out.append(item)
    return out


def stats(root=None) -> dict:
    """Aggregate cache statistics (for ``repro cache stats``)."""
    root = Path(root) if root is not None else cache_root()
    listed = entries(root)
    by_generator = {}
    by_kind = {}
    for item in listed:
        bucket = by_generator.setdefault(
            item["generator"], {"entries": 0, "bytes": 0})
        bucket["entries"] += 1
        bucket["bytes"] += item["bytes"]
        kind = by_kind.setdefault(item["kind"], {"entries": 0, "bytes": 0})
        kind["entries"] += 1
        kind["bytes"] += item["bytes"]
    sharded = [item for item in listed if item["kind"] == "sharded-csr"]
    return {
        "root": str(root),
        "enabled": cache_enabled(),
        "entries": len(listed),
        "bytes": sum(item["bytes"] for item in listed),
        "stale_entries": sum(1 for item in listed if item["stale"]),
        "by_generator": by_generator,
        "by_kind": by_kind,
        "shards": {
            "sharded_graphs": len(sharded),
            "partitions": sum(item.get("partitions", 0) for item in sharded),
            "bytes": sum(item["bytes"] for item in sharded),
        },
        "pinned": pinned_stats(),
    }


def clear_report(root=None, stale_only: bool = False) -> dict:
    """Delete cache entries; reports per-kind counts and reclaimed bytes."""
    root = Path(root) if root is not None else cache_root()
    removed = 0
    reclaimed = 0
    by_kind = {}
    for item in entries(root):
        if stale_only and not item["stale"]:
            continue
        shutil.rmtree(root / item["key"], ignore_errors=True)
        removed += 1
        reclaimed += item["bytes"]
        kind = by_kind.setdefault(item["kind"], {"entries": 0, "bytes": 0})
        kind["entries"] += 1
        kind["bytes"] += item["bytes"]
    return {"removed": removed, "reclaimed_bytes": reclaimed,
            "by_kind": by_kind}


def clear(root=None, stale_only: bool = False) -> int:
    """Delete cache entries; returns how many were removed."""
    return clear_report(root, stale_only=stale_only)["removed"]
