"""Partitioned on-disk CSR: graphs larger than RAM behind the CSRGraph API.

The monolithic :class:`~repro.graph.csr.CSRGraph` holds ``offsets`` and
``targets`` as one pair of in-memory arrays, so peak RSS caps the scale
any engine can touch. This module stores the same CSR as a *sharded*
directory::

    <root>/
      meta.json            # manifest: vertex ranges, edge counts, sha256s
      offsets.npy          # global offsets, num_vertices + 1 int64
      targets_0000.npy     # targets of partition 0 (vertex range [lo, hi))
      targets_0001.npy
      ...

Partitions are contiguous **vertex ranges** (R-MAT ids are permuted
uniformly, so equal ranges are balanced in expectation). Each
``targets_*.npy`` is opened lazily as a read-only ``np.memmap`` slice;
:class:`ShardedCSRGraph` keeps an LRU of open slices under a
``memory_budget_mb`` working-set cap and evicts clean mappings (madvise
``DONTNEED`` + munmap) between partitions, so the resident set of a
superstep is one partition plus O(vertices) state.

Bit-identity contract: :func:`build_sharded_csr` produces, per source
vertex, the sorted unique target list — exactly what
``CSRGraph.from_edges(edges, deduplicate=True)`` produces, from the
same sorted edge keys (:mod:`repro.graph.keys`) — so the concatenated
shards are byte-identical to the monolithic build regardless of chunk
size or partition count (:func:`graph_digests` proves it).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from collections import OrderedDict

import numpy as np

from ..errors import GraphFormatError
from ..observability import NULL_TRACER
from .csr import CSRGraph, edge_slots
from .edgelist import EdgeList
from .keys import csr_rows, prepared_keys, sort_unique

MANIFEST_NAME = "meta.json"
OFFSETS_FILE = "offsets.npy"

#: The tracer shard load/evict/materialize instants land on; swapped per
#: cell alongside the dataset cache's tracer (see ``harness.sweep``).
_TRACER = NULL_TRACER


@contextlib.contextmanager
def use_tracer(tracer):
    """Route shard instants to ``tracer`` for the duration of the block."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer if tracer is not None else NULL_TRACER
    try:
        yield
    finally:
        _TRACER = previous


def partition_bounds(num_vertices: int, num_partitions: int) -> np.ndarray:
    """Vertex-range bounds: partition i owns ``[bounds[i], bounds[i+1])``."""
    if not 1 <= num_partitions <= num_vertices:
        raise GraphFormatError(
            f"num_partitions must be in [1, {num_vertices}], got {num_partitions}")
    return (np.arange(num_partitions + 1, dtype=np.int64)
            * num_vertices // num_partitions)


def targets_file(index: int) -> str:
    return f"targets_{index:04d}.npy"


def _sha256_of(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).data).hexdigest()


def publish_dir(final, fill) -> None:
    """Create directory ``final`` atomically from what ``fill(tmp)`` writes.

    ``fill`` gets a fresh temp directory next to ``final``; one
    ``os.replace`` publishes it, so readers see all of the directory or
    none of it. Concurrent publishers race benignly: the first replace
    wins and a loser discards its own copy. Any other failure re-raises;
    no temp directory is left behind either way.
    """
    final = os.fspath(final)
    parent = os.path.dirname(final)
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=parent,
                           prefix=os.path.basename(final) + ".tmp.")
    try:
        fill(tmp)
        os.replace(tmp, final)
    except OSError:
        if not os.path.isdir(final):
            raise
    finally:
        # Gone already when the replace went through.
        shutil.rmtree(tmp, ignore_errors=True)


def _check_npy_size(path: str, count: int) -> None:
    """Typed error unless ``path`` is as long as an int64 ``.npy`` of
    ``count`` items: a torn shard must fail at open, not as a raw mmap
    ``ValueError`` in the middle of a superstep. No read, no hashing."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": "<i8", "fortran_order": False, "shape": (count,)})
    expected = header.tell() + 8 * count
    size = os.path.getsize(path) if os.path.isfile(path) else None
    if size != expected:
        raise GraphFormatError(
            f"{path}: {size} bytes on disk, its manifest implies {expected}")


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


class CSRPartition:
    """Handle to one vertex-range shard of a :class:`ShardedCSRGraph`.

    Lightweight: holds only the range metadata; ``targets`` maps the
    shard file on access (through the owner's budgeted LRU).
    """

    __slots__ = ("index", "lo", "hi", "num_edges", "_owner")

    def __init__(self, owner, index, lo, hi, num_edges):
        self._owner = owner
        self.index = int(index)
        self.lo = int(lo)
        self.hi = int(hi)
        self.num_edges = int(num_edges)

    @property
    def num_vertices(self) -> int:
        return self.hi - self.lo

    @property
    def targets(self) -> np.ndarray:
        return self._owner._targets_of(self.index)

    def local_offsets(self) -> np.ndarray:
        """Offsets into :attr:`targets` for rows ``lo..hi`` (starts at 0)."""
        span = np.asarray(self._owner.offsets[self.lo:self.hi + 1])
        return span - span[0]

    def out_degrees(self) -> np.ndarray:
        return np.diff(self._owner.offsets[self.lo:self.hi + 1])

    def release(self) -> None:
        self._owner.release(self.index)

    def __repr__(self) -> str:
        return (f"CSRPartition(index={self.index}, range=[{self.lo}, "
                f"{self.hi}), num_edges={self.num_edges})")


class ShardedCSRGraph:
    """Read-only partitioned CSR over mmap'd shard files.

    Quacks like :class:`CSRGraph` — ``offsets``/``targets``,
    ``neighbors``/``neighbors_of_many``/``out_degrees``/``has_edge``/
    ``sources``/``reverse`` — plus partition iteration under a working-set
    budget. Engines that only need partition-local access never fault in
    more than ``memory_budget_mb`` of target pages; legacy flat accesses
    (``.targets``, ``.sources()``) still work but materialize the whole
    edge array (announced with a ``sharded-materialize`` instant).
    """

    def __init__(self, root, memory_budget_mb: float = None):
        self.root = str(root)
        manifest_path = os.path.join(self.root, MANIFEST_NAME)
        with open(manifest_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        sharded = meta.get("sharded", meta)
        if sharded.get("kind", meta.get("kind")) != "sharded-csr":
            raise GraphFormatError(f"{manifest_path} is not a sharded-csr manifest")
        self.num_vertices = int(sharded["num_vertices"])
        self._num_edges = int(sharded["num_edges"])
        self._partition_meta = sharded["partitions"]
        self.bounds = np.array(
            [p["lo"] for p in self._partition_meta]
            + [self._partition_meta[-1]["hi"]], dtype=np.int64)
        _check_npy_size(os.path.join(self.root, OFFSETS_FILE),
                        self.num_vertices + 1)
        for part in self._partition_meta:
            _check_npy_size(os.path.join(self.root, part["file"]),
                            part["edges"])
        # Plain-ndarray views of the mappings: a gather indexes them
        # without ``np.memmap.__getitem__``'s per-call wrapping.
        self.offsets = np.load(os.path.join(self.root, OFFSETS_FILE),
                               mmap_mode="r").view(np.ndarray)
        if self.offsets.shape != (self.num_vertices + 1,):
            raise GraphFormatError("offsets must have num_vertices + 1 entries")
        self._edge_bounds = self.offsets[self.bounds]
        self.edge_weights = None
        self.symmetric = bool(sharded.get("symmetric", False))
        self.memory_budget_mb = memory_budget_mb
        self._loaded = OrderedDict()  # partition index -> mapped targets
        self._flat_targets = None
        self._in_view = None

    # -- partition management ------------------------------------------------

    @property
    def num_partitions(self) -> int:
        return len(self._partition_meta)

    def partition(self, index: int) -> CSRPartition:
        meta = self._partition_meta[index]
        return CSRPartition(self, index, meta["lo"], meta["hi"], meta["edges"])

    def partitions(self):
        """Iterate partitions in vertex order (the superstep scan order)."""
        for index in range(self.num_partitions):
            yield self.partition(index)

    def partition_ids(self, vertices: np.ndarray) -> np.ndarray:
        """Owning partition index of each vertex."""
        return np.searchsorted(self.bounds, vertices, side="right") - 1

    def _budget_bytes(self):
        if self.memory_budget_mb is None:
            return None
        return int(self.memory_budget_mb * (1 << 20))

    def _targets_of(self, index: int) -> np.ndarray:
        loaded = self._loaded
        if index in loaded:
            loaded.move_to_end(index)
            return loaded[index]
        path = os.path.join(self.root, self._partition_meta[index]["file"])
        incoming = self._partition_meta[index]["edges"] * 8
        budget = self._budget_bytes()
        if budget is not None:
            while loaded and self.mapped_nbytes() + incoming > budget:
                self._evict(next(iter(loaded)))
        array = np.load(path, mmap_mode="r").view(np.ndarray)
        loaded[index] = array
        _TRACER.instant("partition-load", partition=index,
                        nbytes=int(array.nbytes))
        return array

    def _evict(self, index: int) -> None:
        array = self._loaded.pop(index)
        nbytes = int(array.nbytes)
        # The mapping is clean (read-only), so DONTNEED releases the
        # resident pages immediately; dropping the last reference unmaps.
        base = array
        while getattr(base, "base", None) is not None:
            base = base.base
        with contextlib.suppress(AttributeError, BufferError, OSError):
            base.madvise(4)  # mmap.MADV_DONTNEED
        _TRACER.instant("partition-evict", partition=index, nbytes=nbytes)

    def release(self, index: int = None) -> None:
        """Drop open shard mappings (all of them when ``index`` is None)."""
        indices = list(self._loaded) if index is None else (
            [index] if index in self._loaded else [])
        for i in indices:
            self._evict(i)

    def mapped_nbytes(self) -> int:
        """Bytes of shard files currently mapped (the budgeted working set)."""
        return sum(int(a.nbytes) for a in self._loaded.values())

    # -- CSRGraph API ----------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return self._num_edges

    # Read only ``offsets`` and ``neighbors``, so they are CSRGraph's own.
    out_degrees, degree = CSRGraph.out_degrees, CSRGraph.degree
    has_edge = CSRGraph.has_edge

    def neighbors(self, v: int) -> np.ndarray:
        v = int(v)
        if not 0 <= v < self.num_vertices:
            raise IndexError(f"vertex {v} out of range")
        pid = int(self.partition_ids(v))
        base = self._edge_bounds[pid]
        return self._targets_of(pid)[self.offsets[v] - base:
                                     self.offsets[v + 1] - base]

    def _runs(self, vertices, slots, lengths):
        """Yield ``(pid, output positions, partition-local slots)`` per
        partition with edges, ascending: ``slots`` cut at the partition
        bounds and shifted in place. The positions are a slice when the
        partitions of ``vertices`` ascend (every caller's case), else
        indices from a radix sort of the partition ids."""
        from ..kernels.segments import stable_order  # kernels import us

        pids = self.partition_ids(vertices)
        begins = np.concatenate(([0], np.cumsum(lengths)))
        order = None
        if np.any(pids[1:] < pids[:-1]):
            by_pid = stable_order(pids, self.num_partitions)
            # The output rows, partition-major: a gather over ``begins``.
            order, _ = edge_slots(begins, by_pid)
            pids = pids[by_pid]
            begins = np.concatenate(([0], np.cumsum(lengths[by_pid])))
        cuts = begins[np.searchsorted(
            pids, np.arange(self.num_partitions + 1))]
        for pid in np.flatnonzero(cuts[1:] > cuts[:-1]).tolist():
            at = slice(cuts[pid], cuts[pid + 1])
            if order is not None:
                at = order[at]
            local = slots[at]
            local -= self._edge_bounds[pid]
            yield pid, at, local

    def neighbors_of_many(self, vertices) -> "tuple[np.ndarray, np.ndarray]":
        """Concatenated adjacency in input order, gathered shard by shard.

        Identical output to ``CSRGraph.neighbors_of_many``; peak extra
        memory is one partition's gather plus the O(result) output.
        """
        slots, lengths = edge_slots(self.offsets, vertices)
        out = np.empty(slots.size, dtype=np.int64)
        for pid, at, local in self._runs(vertices, slots, lengths):
            out[at] = self._targets_of(pid)[local]
        return out, lengths

    def frontier_neighbors_unique(self, frontier) -> "tuple[np.ndarray, int]":
        """Sorted unique neighbors of ``frontier`` plus edges traversed.

        The distinct values of ``neighbors_of_many(frontier)[0]``, one
        partition's gather at a time:
        :func:`~repro.kernels.segments.distinct_union` marks them in a
        vertex mask (or sorts them, when few next to the vertex count),
        which keeps BFS supersteps inside the memory budget.
        """
        from ..kernels.segments import distinct_union

        slots, lengths = edge_slots(self.offsets, frontier)
        gathers = (self._targets_of(pid)[local]
                   for pid, _, local in self._runs(frontier, slots, lengths))
        return (distinct_union(gathers, self.num_vertices, slots.size),
                slots.size)

    def sources(self) -> np.ndarray:
        """Per-edge source vertex — materializes O(num_edges) memory."""
        _TRACER.instant("sharded-materialize", what="sources",
                        nbytes=self._num_edges * 8)
        return np.repeat(np.arange(self.num_vertices, dtype=np.int64),
                         np.diff(self.offsets))

    @property
    def targets(self) -> np.ndarray:
        """Flat concatenated targets — compat escape hatch for engines
        that index the global edge array; materializes the whole thing
        (once; cached) and defeats the memory budget."""
        if self._flat_targets is None:
            _TRACER.instant("sharded-materialize", what="targets",
                            nbytes=self._num_edges * 8)
            self._flat_targets = np.concatenate(
                [targets for *_, targets in iter_csr_blocks(self)])
        return self._flat_targets

    def reverse(self):
        """Sharded CSR of the transposed graph, built on disk next to
        this one (``<root>/reverse``, atomically published, reused on
        later calls) — or ``self``, when the manifest says the build
        symmetrized the edges."""
        if self.symmetric:
            return self
        if self._in_view is None:
            reverse_root = os.path.join(self.root, "reverse")
            if not os.path.isdir(reverse_root):
                transposed_blocks = (
                    EdgeList(self.num_vertices, targets, np.repeat(
                        np.arange(lo, hi, dtype=np.int64), np.diff(offsets)))
                    for lo, hi, offsets, targets in iter_csr_blocks(self))
                publish_dir(reverse_root, lambda staging: build_sharded_csr(
                    transposed_blocks, self.num_vertices, staging,
                    num_partitions=self.num_partitions,
                    drop_self_loops=False))
            self._in_view = ShardedCSRGraph(
                reverse_root, memory_budget_mb=self.memory_budget_mb)
        return self._in_view

    def to_csr(self) -> CSRGraph:
        """Fully materialized monolithic copy (tests / small graphs)."""
        _TRACER.instant("sharded-materialize", what="csr",
                        nbytes=self.nbytes())
        return CSRGraph(self.num_vertices, np.asarray(self.offsets),
                        self.targets, symmetric=self.symmetric)

    # -- sizes and digests -----------------------------------------------------

    def nbytes(self) -> int:
        """Virtual size: every shard file plus the offsets map."""
        return (self.num_vertices + 1) * 8 + self._num_edges * 8

    def resident_nbytes(self) -> int:
        """Bytes of anonymous (actually held) memory: mmap-backed shards
        count zero; only materialized flat copies count."""
        total = 0
        if self._flat_targets is not None:
            total += int(self._flat_targets.nbytes)
        if self._in_view is not None:
            total += self._in_view.resident_nbytes()
        return total

    def digests(self) -> dict:
        """sha256 of the offsets array and of each partition's targets."""
        return {"offsets": _sha256_of(self.offsets),
                "partitions": [_sha256_of(targets) for *_, targets
                               in iter_csr_blocks(self)]}

    def __repr__(self) -> str:
        return (f"ShardedCSRGraph(num_vertices={self.num_vertices}, "
                f"num_edges={self._num_edges}, "
                f"num_partitions={self.num_partitions}, "
                f"memory_budget_mb={self.memory_budget_mb})")


# ---------------------------------------------------------------------------
# Building (external partition/sort)
# ---------------------------------------------------------------------------


def build_sharded_csr(blocks, num_vertices: int, out_dir, *,
                      num_partitions: int = 8,
                      drop_self_loops: bool = True,
                      symmetrize: bool = False,
                      orient_by_id: bool = False) -> dict:
    """Two-pass external build: cut each block's sorted edge keys into
    per-partition spill files, then sort/dedup each partition alone.

    ``blocks`` is any iterable of :class:`EdgeList` chunks (duplicates
    and self loops welcome — this pass owns the paper's Section 4.1.2
    preprocessing, applied per block: ``drop_self_loops``, ``symmetrize``
    for BFS inputs, ``orient_by_id`` for triangle inputs). Peak memory is
    one block plus one partition's spill, never the whole edge list.

    A spill holds int64 keys ``src * num_vertices + dst``
    (:mod:`repro.graph.keys`), 8 bytes an edge: partition ``i`` owns the
    key range ``[bounds[i] * V, bounds[i+1] * V)``, so a sorted block
    splits at ``searchsorted`` cuts with no per-edge routing. The
    finalize pass sorts a partition's keys once and keeps the first of
    every run — the sorted unique adjacency ``CSRGraph.from_edges``
    produces from the same keys, so shard bytes are independent of
    block size, block order and partition count. Writes shard files
    plus ``meta.json`` into ``out_dir`` and returns the manifest dict;
    its ``symmetric`` records ``symmetrize`` (the graph is then its own
    transpose).
    """
    bounds = partition_bounds(num_vertices, num_partitions)
    os.makedirs(out_dir, exist_ok=True)
    spill_dir = os.path.join(out_dir, "spill")
    os.makedirs(spill_dir, exist_ok=True)
    spill_paths = [os.path.join(spill_dir, f"part_{i:04d}.bin")
                   for i in range(num_partitions)]
    spills = [open(path, "wb") for path in spill_paths]
    raw_edges = 0
    try:
        for block in blocks:
            if getattr(block, "weights", None) is not None:
                raise GraphFormatError(
                    "sharded CSR does not support edge weights")
            raw_edges += block.src.size
            keys, _ = prepared_keys(
                block.src, block.dst, num_vertices,
                drop_self_loops=drop_self_loops, symmetrize=symmetrize,
                orient_by_id=orient_by_id)
            keys = sort_unique(keys)
            cuts = np.searchsorted(keys, bounds * num_vertices)
            for pid in range(num_partitions):
                if cuts[pid + 1] > cuts[pid]:
                    spills[pid].write(keys[cuts[pid]:cuts[pid + 1]].data)
    finally:
        for handle in spills:
            handle.close()

    degrees = np.zeros(num_vertices, dtype=np.int64)
    partitions = []
    for pid in range(num_partitions):
        lo, hi = int(bounds[pid]), int(bounds[pid + 1])
        keys = np.fromfile(spill_paths[pid], dtype=np.int64)
        os.unlink(spill_paths[pid])
        degrees[lo:hi], targets, _ = csr_rows(keys, num_vertices, lo, hi,
                                              unique=True)
        del keys
        file_name = targets_file(pid)
        np.save(os.path.join(out_dir, file_name), targets)
        partitions.append({
            "index": pid, "lo": lo, "hi": hi,
            "edges": int(targets.size), "file": file_name,
            "sha256": _sha256_of(targets),
        })
    shutil.rmtree(spill_dir, ignore_errors=True)

    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    np.save(os.path.join(out_dir, OFFSETS_FILE), offsets)
    manifest = {
        "kind": "sharded-csr",
        "num_vertices": int(num_vertices),
        "num_edges": int(offsets[-1]),
        "raw_edges": int(raw_edges),
        "symmetric": bool(symmetrize),
        "offsets_sha256": _sha256_of(offsets),
        "partitions": partitions,
    }
    manifest_path = os.path.join(out_dir, MANIFEST_NAME)
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump({"kind": "sharded-csr", "sharded": manifest}, handle,
                  indent=2, sort_keys=True)
    return manifest


def iter_csr_blocks(graph):
    """Yield ``(lo, hi, local_offsets, targets)`` blocks of any CSR graph.

    For :class:`ShardedCSRGraph` each block is one partition (released
    after the consumer advances); for a monolithic :class:`CSRGraph` a
    single block spans the whole graph. Lets O(E) validation and scan
    passes run partition-at-a-time without caring about the storage.
    """
    if isinstance(graph, ShardedCSRGraph):
        for part in graph.partitions():
            yield part.lo, part.hi, part.local_offsets(), part.targets
            part.release()
    else:
        yield 0, graph.num_vertices, graph.offsets, graph.targets


def graph_digests(graph, num_partitions: int = None) -> dict:
    """Partition digests of any CSR graph, for cross-path equivalence.

    For a monolithic graph, ``num_partitions`` slices its flat targets
    at the same vertex-range bounds a sharded build would use, so the
    two storage layouts hash identically when (and only when) the bytes
    match.
    """
    if isinstance(graph, ShardedCSRGraph):
        return graph.digests()
    if num_partitions is None:
        num_partitions = 1
    bounds = partition_bounds(graph.num_vertices, num_partitions)
    parts = []
    for pid in range(num_partitions):
        lo = int(graph.offsets[bounds[pid]])
        hi = int(graph.offsets[bounds[pid + 1]])
        parts.append(_sha256_of(graph.targets[lo:hi]))
    return {"offsets": _sha256_of(np.asarray(graph.offsets, dtype=np.int64)),
            "partitions": parts}
