"""Non-skewed graph generators, for the skew ablation.

The paper's premise is that "real-world graph data follows a pattern of
sparsity that is not uniform but highly skewed towards a few items" and
that this skew is what makes scalable implementation hard (abstract,
Section 1). These generators produce the *counterfactual* — same vertex
and edge counts, but uniform or ring-lattice degree structure — so the
skew ablation can measure how much of each framework's trouble is skew
versus volume.
"""

from __future__ import annotations

import numpy as np

from ..graph import CSRGraph, EdgeList


def erdos_renyi_edges(num_vertices: int, num_edges: int,
                      seed: int = 0) -> EdgeList:
    """Uniform random directed edges (G(n, m) with replacement).

    Duplicates/self-loops are possible, mirroring the RMAT generator's
    raw output contract; callers clean up with the usual pipeline.
    """
    if num_vertices < 1 or num_edges < 0:
        raise ValueError("need at least one vertex and non-negative edges")
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_vertices, size=num_edges)
    dst = rng.integers(0, num_vertices, size=num_edges)
    return EdgeList(num_vertices, src, dst)


def erdos_renyi_graph(num_vertices: int, num_edges: int, seed: int = 0,
                      directed: bool = True) -> CSRGraph:
    """Cleaned uniform random graph with ~``num_edges`` edges."""
    return CSRGraph.from_edges(
        erdos_renyi_edges(num_vertices, num_edges, seed), deduplicate=True,
        drop_self_loops=True, symmetrize=not directed)


def ring_lattice_graph(num_vertices: int, degree: int = 8) -> CSRGraph:
    """Perfectly regular ring lattice: every vertex has exactly
    ``degree`` out-edges to its nearest higher-id neighbors (mod n).

    The zero-skew extreme: Gini coefficient 0.
    """
    if num_vertices < 2:
        raise ValueError("need at least two vertices")
    degree = min(degree, num_vertices - 1)
    src = np.repeat(np.arange(num_vertices, dtype=np.int64), degree)
    offsets = np.tile(np.arange(1, degree + 1, dtype=np.int64), num_vertices)
    dst = (src + offsets) % num_vertices
    return CSRGraph.from_edges(EdgeList(num_vertices, src, dst))


def watts_strogatz_graph(num_vertices: int, degree: int = 8,
                         rewire_probability: float = 0.1,
                         seed: int = 0) -> CSRGraph:
    """Small-world graph: ring lattice with random rewiring.

    Interpolates between the regular lattice (p=0) and uniform random
    structure (p=1) — mild clustering, still no degree skew to speak of.
    """
    if not 0.0 <= rewire_probability <= 1.0:
        raise ValueError("rewire_probability must be in [0, 1]")
    base = ring_lattice_graph(num_vertices, degree)
    rng = np.random.default_rng(seed)
    src = base.sources()
    dst = base.targets.copy()
    rewire = rng.random(dst.size) < rewire_probability
    dst[rewire] = rng.integers(0, num_vertices, size=int(rewire.sum()))
    return CSRGraph.from_edges(EdgeList(num_vertices, src, dst),
                               deduplicate=True, drop_self_loops=True)
