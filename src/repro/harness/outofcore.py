"""The out-of-core headline demonstration: OOM -> ok under one cap.

The tentpole claim of the streaming pipeline is a *transition*: a
Graph500 run at a scale whose monolithic in-memory build dies under an
``RLIMIT_AS`` cap completes through the streamed sharded path, with
bounded peak RSS, on the same machine and the same cap. This module
stages exactly that as a two-cell supervised sweep so the evidence lands
in a durable sweep journal:

* cell ``{"mode": "in-memory"}`` builds the dense CSR **fresh** (the
  disk cache is bypassed on purpose — a cached graph would mmap instead
  of allocate, which is the streamed pipeline's trick, not the
  monolithic baseline's). Under the cap the allocation blow-up raises
  ``MemoryError``, which the sweep's typed-failure taxonomy records as
  the paper's ``out-of-memory`` status.
* cell ``{"mode": "streamed"}`` builds the identical graph through
  :func:`~repro.datagen.rmat_graph_sharded` and runs the same Graph500
  protocol partition-at-a-time under ``memory_budget_mb``, completing
  with status ``ok`` and its peak RSS in the journaled value.

Both cells run in supervised worker processes with the same
``memory_limit_mb`` (anonymous headroom); ``mapped_allowance_mb`` grants
extra *address space* for the streamed cell's read-only shard maps —
``RLIMIT_AS`` counts file-backed pages too, and mapped clean pages are
reclaimable, which is the whole point of the sharded layout.
"""

from __future__ import annotations

from ..datagen import DEFAULT_CHUNK_EDGES, rmat_graph, rmat_graph_sharded
from ..datagen.rmat import check_shard_args
from ..errors import STATUS_OK, STATUS_OOM
from ..graph.sharded import partition_bounds
from ..observability import reset_peak_rss
from .graph500 import check_graph500_args, graph500_protocol
from .sweep import Sweep

#: Sweep/journal name of the demonstration.
SWEEP_NAME = "graph500-outofcore"


class OutOfCoreCell:
    """Picklable sweep executor for one demonstration configuration.

    A plain value object (module-level class, primitive attributes) so
    the supervised pool can ship it to workers; ``__call__(key,
    budget_s=...)`` makes it a drop-in sweep ``execute``.
    """

    def __init__(self, scale: int, edge_factor: int = 16, seed: int = 1,
                 framework: str = "native", num_roots: int = 4,
                 chunk_edges: int = DEFAULT_CHUNK_EDGES,
                 num_partitions: int = None,
                 memory_budget_mb: float = None):
        self.scale = scale
        self.edge_factor = edge_factor
        self.seed = seed
        self.framework = framework
        self.num_roots = num_roots
        self.chunk_edges = chunk_edges
        self.num_partitions = num_partitions
        self.memory_budget_mb = memory_budget_mb

    def _build(self, mode: str):
        if mode == "streamed":
            return rmat_graph_sharded(
                self.scale, edge_factor=self.edge_factor, seed=self.seed,
                directed=False, chunk_edges=self.chunk_edges,
                num_partitions=self.num_partitions,
                memory_budget_mb=self.memory_budget_mb)
        # The undecorated dense builder: no disk cache, no mmap — the
        # honest monolithic baseline that must hold the whole edge list
        # and its dedup sort in anonymous memory at once.
        return rmat_graph.__wrapped__(
            self.scale, edge_factor=self.edge_factor, seed=self.seed,
            directed=False)

    def __call__(self, key: dict, budget_s: float = None) -> dict:
        # Both modes share one long-lived worker; rewind the kernel's
        # peak-RSS counter so each cell journals *its own* high water,
        # not the earlier in-memory cell's dying allocation spike.
        reset_peak_rss()
        graph = self._build(key["mode"])
        result = graph500_protocol(
            graph, scale=self.scale, framework=self.framework,
            num_roots=self.num_roots, streamed=key["mode"] == "streamed")
        return {
            "runtime_s": result.mean_time_s,
            "harmonic_mean_teps": result.harmonic_mean_teps,
            "num_edges": result.num_edges,
            "num_roots": result.num_roots,
            "all_valid": result.all_valid,
            "peak_rss_mb": round(result.peak_rss_mb, 2),
        }


def run_outofcore_demo(scale: int = 18, edge_factor: int = 16,
                       memory_limit_mb: float = 64.0,
                       mapped_allowance_mb: float = None,
                       memory_budget_mb: float = 64.0,
                       chunk_edges: int = DEFAULT_CHUNK_EDGES,
                       num_partitions: int = None, num_roots: int = 4,
                       framework: str = "native", seed: int = 1,
                       journal=None, tracer=None) -> dict:
    """Run the two-cell demonstration; return the transition record.

    ``memory_limit_mb`` is the per-worker anonymous headroom
    (``RLIMIT_AS`` above the interpreter's footprint at fork);
    ``mapped_allowance_mb`` defaults to twice the graph's on-disk CSR
    size so shard maps never eat the anonymous budget;
    ``memory_budget_mb`` caps the streamed cell's resident shard working
    set. ``journal`` (a path) makes the evidence durable.

    The returned dict carries both cell records plus ``transition`` —
    True exactly when the in-memory cell recorded ``out-of-memory`` and
    the streamed cell recorded ``ok``. Arguments either build would
    refuse are refused first, before any cell runs.
    """
    check_graph500_args(scale, num_roots)
    check_shard_args(chunk_edges, memory_budget_mb)
    num_vertices = 1 << scale
    if num_partitions is not None:
        partition_bounds(num_vertices, num_partitions)
    directed_edges = 2 * edge_factor * num_vertices  # symmetrized
    if mapped_allowance_mb is None:
        csr_bytes = 8 * (num_vertices + 1) + 8 * directed_edges
        mapped_allowance_mb = max(64.0, 2.0 * csr_bytes / 2**20)
    execute = OutOfCoreCell(scale, edge_factor=edge_factor, seed=seed,
                            framework=framework, num_roots=num_roots,
                            chunk_edges=chunk_edges,
                            num_partitions=num_partitions,
                            memory_budget_mb=memory_budget_mb)
    cells = [{"mode": "in-memory", "scale": scale},
             {"mode": "streamed", "scale": scale}]
    sweep = Sweep(SWEEP_NAME, journal=journal, jobs=1, max_retries=0,
                  memory_limit_mb=memory_limit_mb,
                  mapped_allowance_mb=mapped_allowance_mb, tracer=tracer)
    result = sweep.run(cells, execute)
    records = {record.key["mode"]: record
               for record in result.records.values()}
    in_memory = records["in-memory"]
    streamed = records["streamed"]
    return {
        "sweep": SWEEP_NAME,
        "scale": scale,
        "edge_factor": edge_factor,
        "memory_limit_mb": memory_limit_mb,
        "mapped_allowance_mb": round(mapped_allowance_mb, 2),
        "memory_budget_mb": memory_budget_mb,
        "chunk_edges": chunk_edges,
        "in_memory": {"status": in_memory.status,
                      "failure": in_memory.failure,
                      "value": in_memory.value},
        "streamed": {"status": streamed.status,
                     "failure": streamed.failure,
                     "value": streamed.value},
        "transition": (in_memory.status == STATUS_OOM
                       and streamed.status == STATUS_OK),
    }
