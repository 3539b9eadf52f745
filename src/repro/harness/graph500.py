"""Graph500-style BFS benchmark harness (the paper's reference [23]).

"This algorithm is part of the Graph500 benchmark" (Section 2). The
official benchmark prescribes: generate an RMAT graph at a given scale,
pick 64 search keys uniformly from the vertices with at least one edge,
run one BFS per key, *validate* every output tree, and report the
harmonic mean of TEPS (traversed edges per second) with its quantiles.

This module reproduces that protocol on the simulated cluster for any of
the package's frameworks; TEPS here are simulated-time TEPS at the
configured extrapolation factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..algorithms.bfs import UNREACHED, validate_distances
from ..datagen import rmat_graph, rmat_graph_sharded
from ..errors import ReproError, SpecError
from ..observability import peak_rss_bytes
from .runner import run
from .spec import ExperimentSpec


class SearchDidNotFinish(ReproError):
    """A search's BFS cell ended with a DNF status (the paper's dash)."""

    def __init__(self, status: str, failure: str):
        super().__init__(status, failure)
        self.status, self.failure = status, failure

    def __str__(self) -> str:
        return f"{self.status} ({self.failure})"


@dataclass
class Graph500Result:
    """The statistics the official benchmark reports."""

    scale: int
    num_edges: int
    num_roots: int
    harmonic_mean_teps: float
    min_teps: float
    median_teps: float
    max_teps: float
    mean_time_s: float
    all_valid: bool
    streamed: bool = False
    peak_rss_mb: float = 0.0

    def __repr__(self) -> str:
        return (
            f"Graph500Result(scale={self.scale}, "
            f"harmonic_mean_teps={self.harmonic_mean_teps:.3e}, "
            f"valid={self.all_valid})"
        )


def choose_search_keys(graph, num_roots: int, seed: int = 2) -> np.ndarray:
    """Sample roots uniformly from vertices with degree >= 1 (spec 2.4)."""
    degrees = graph.out_degrees()
    candidates = np.nonzero(degrees > 0)[0]
    if candidates.size == 0:
        raise ValueError("graph has no vertices with edges")
    rng = np.random.default_rng(seed)
    count = min(num_roots, candidates.size)
    return rng.choice(candidates, size=count, replace=False)


def traversed_edges(graph, distances) -> float:
    """Edges with at least one endpoint reached, counted once.

    The Graph500 TEPS numerator: input edges "traversed" by the search.
    On our symmetrized graphs each undirected edge is stored twice, so
    halve the directed count. Counted from degrees — identical to
    masking an expanded per-edge source array, but O(V) memory, which
    the out-of-core runs rely on.
    """
    reached = distances != UNREACHED
    return float((graph.out_degrees() * reached).sum()) / 2.0


def check_graph500_args(scale: int, num_roots: int) -> None:
    """Refuse a scale or root count the protocol cannot run."""
    if scale < 1:
        raise SpecError(f"scale must be >= 1, got {scale}")
    if num_roots < 1:
        raise SpecError(f"roots must be >= 1, got {num_roots}")


def run_graph500(scale: int = 12, edge_factor: int = 16, nodes: int = 1,
                 framework: str = "native", num_roots: int = 16,
                 scale_factor: float = 1.0, seed: int = 1,
                 streamed: bool = False, memory_budget_mb: float = None,
                 chunk_edges: int = 1 << 18,
                 num_partitions: int = None) -> Graph500Result:
    """Run the Graph500 BFS protocol and return its statistics.

    ``num_roots`` defaults to 16 (the official 64 at laptop scale just
    repeats similar searches; tests use fewer still). ``streamed=True``
    builds the graph through the out-of-core pipeline (byte-identical
    dataset, bounded peak RSS) with shard working sets capped at
    ``memory_budget_mb``.
    """
    check_graph500_args(scale, num_roots)
    if streamed:
        graph = rmat_graph_sharded(
            scale, edge_factor=edge_factor, seed=seed, directed=False,
            chunk_edges=chunk_edges, num_partitions=num_partitions,
            memory_budget_mb=memory_budget_mb)
    else:
        graph = rmat_graph(scale, edge_factor=edge_factor, seed=seed,
                           directed=False)
    return graph500_protocol(graph, scale=scale, framework=framework,
                             nodes=nodes, num_roots=num_roots,
                             scale_factor=scale_factor, streamed=streamed)


def graph500_protocol(graph, scale: int, framework: str = "native",
                      nodes: int = 1, num_roots: int = 16,
                      scale_factor: float = 1.0,
                      streamed: bool = False) -> Graph500Result:
    """The Graph500 measurement loop on an already-built graph.

    Split from :func:`run_graph500` so the out-of-core demonstration can
    run the identical protocol against graphs it builds itself (a fresh
    in-memory build versus a streamed sharded one) under one memory cap.
    """
    roots = choose_search_keys(graph, num_roots)

    teps = []
    times = []
    all_valid = True
    for root in roots:
        cell = run(ExperimentSpec("bfs", framework, graph, nodes=nodes,
                                  scale_factor=scale_factor,
                                  params={"source": int(root)}))
        if not cell.ok:
            raise SearchDidNotFinish(cell.status, cell.failure)
        distances = cell.result.values
        all_valid &= validate_distances(graph, int(root), distances)
        edges = traversed_edges(graph, distances) * scale_factor
        seconds = cell.runtime()
        times.append(seconds)
        teps.append(edges / seconds if seconds > 0 else 0.0)

    teps = np.asarray(teps)
    return Graph500Result(
        scale=scale,
        num_edges=graph.num_edges // 2,
        num_roots=len(roots),
        harmonic_mean_teps=float(len(teps) / np.sum(1.0 / teps)),
        min_teps=float(teps.min()),
        median_teps=float(np.median(teps)),
        max_teps=float(teps.max()),
        mean_time_s=float(np.mean(times)),
        all_valid=bool(all_valid),
        streamed=streamed,
        peak_rss_mb=peak_rss_bytes() / (1 << 20),
    )
