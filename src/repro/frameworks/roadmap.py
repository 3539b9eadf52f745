"""The Section 6.2 roadmap, implemented: what-if framework variants.

The paper's final contribution is a set of concrete recommendations for
each framework, with predicted outcomes:

* **CombBLAS** — "needs to use data structures such as bitvectors for
  compression in order to improve BFS performance";
* **GraphLab** — "incorporating MPI, or at least ... multiple sockets",
  plus compression/prefetch/overlap, "should allow GraphLab to be within
  5x of native performance";
* **Giraph** — "boosting network bandwidth by 10x should make Giraph
  very competitive", plus "run more workers per node, thereby improving
  CPU utilization" once message buffers shrink;
* **SociaLite** — after the multi-socket fix, "fixing this [remaining
  3-4x bandwidth gap] along with the use of data compression (for BFS)
  will help SociaLite to achieve performance within 5x of native".

This module *applies* those recommendations: each ``improved_*`` profile
is the stock profile with exactly the recommended changes, and
:func:`roadmap_outcomes` measures how far each change closes the gap —
the quantitative check that the paper's roadmap is self-consistent.
"""

from __future__ import annotations

from dataclasses import replace

from ..cluster import Cluster, paper_cluster
from ..cluster.network import MPI, CommLayer
from .base import COMBBLAS, GIRAPH, GRAPHLAB, SOCIALITE, FrameworkProfile

#: The recommended 10x-network Giraph stack: Netty tuned / RDMA-assisted.
NETTY_TUNED = CommLayer("netty-tuned", efficiency=0.8, latency_s=100e-6,
                        byte_overhead=0.10, sustained_fraction=0.9)

#: SociaLite's hypothetical final step: an MPI-class transport from Java.
JAVA_MPI = CommLayer("java-mpi", efficiency=0.85, latency_s=20e-6,
                     byte_overhead=0.02, sustained_fraction=0.6)


def improved_graphlab() -> FrameworkProfile:
    """GraphLab on MPI with prefetch + compression (Section 6.2)."""
    return replace(
        GRAPHLAB,
        name="graphlab-roadmap",
        display_name="GraphLab (roadmap)",
        comm_layer=MPI,
        prefetch=True,
        compresses_messages=True,
        notes="Section 6.2 applied: MPI transport, software prefetch, "
              "message compression.",
    )


def improved_giraph(workers_per_node: int = 16) -> FrameworkProfile:
    """Giraph with 10x network and more workers (Section 6.2).

    More workers become possible once message buffers shrink (the
    superstep-splitting fix), which is why the two recommendations are
    coupled in the paper.
    """
    return replace(
        GIRAPH,
        name="giraph-roadmap",
        display_name="Giraph (roadmap)",
        comm_layer=NETTY_TUNED,
        cores_fraction=workers_per_node / 24.0,
        per_message_ops=40.0,     # object pooling removes most per-message cost
        per_byte_ops=2.0,         # zero-copy serialization
        message_overhead_factor=1.5,
        superstep_overhead_s=0.2,  # lighter-weight superstep scheduling
        notes="Section 6.2 applied: 10x network, 16 workers/node, "
              "pooled message objects.",
    )


def improved_socialite() -> FrameworkProfile:
    """SociaLite with an MPI-class transport + compression (Section 6.2)."""
    return replace(
        SOCIALITE,
        name="socialite-roadmap",
        display_name="SociaLite (roadmap)",
        comm_layer=JAVA_MPI,
        compresses_messages=True,
        notes="Section 6.2 applied: MPI-class transport and BFS id "
              "compression on top of the multi-socket fix.",
    )


def improved_combblas() -> FrameworkProfile:
    """CombBLAS with bit-vector frontier compression (Section 6.2)."""
    return replace(
        COMBBLAS,
        name="combblas-roadmap",
        display_name="CombBLAS (roadmap)",
        compresses_messages=True,
        notes="Section 6.2 applied: bit-vector compression of sparse "
              "BFS frontiers.",
    )


ROADMAP_PROFILES = {
    "graphlab": improved_graphlab,
    "giraph": improved_giraph,
    "socialite": improved_socialite,
    "combblas": improved_combblas,
}

#: Paper-predicted post-roadmap gaps vs native ("within Nx of native").
PAPER_PREDICTED_GAP = {
    "graphlab": 5.0,
    "socialite": 5.0,
    # "very competitive with other frameworks" — read as within the
    # non-Giraph pack, i.e. single-digit multiples of native.
    "giraph": 12.0,
    "combblas": 4.0,
}


def _with_profile(algorithm: str, graph, cluster: Cluster,
                  profile: FrameworkProfile, **params):
    """A round program through the vertex engine under any profile."""
    from .rounds import run_program
    from .vertex.programs import VertexEngine

    mode = "vertex-cut" if "vertex-cut" in profile.partitioning else "1d"
    return run_program(algorithm, profile.name, VertexEngine, graph, cluster,
                       params, profile=profile, partition_mode=mode)


def roadmap_outcomes(nodes: int = 4) -> dict:
    """Measure the stock-vs-roadmap gap for each framework's PageRank.

    Returns ``{framework: {"stock": gap, "roadmap": gap, "predicted":
    paper bound}}`` where gaps are slowdowns vs native at ``nodes``
    nodes on the weak-scaling dataset. CombBLAS's recommendation targets
    BFS, so its row is measured on BFS.
    """
    from ..harness.datasets import experiment_dataset
    from ..harness.runner import default_params, run_cell

    out = {}
    for framework, factory in ROADMAP_PROFILES.items():
        algorithm = "bfs" if framework == "combblas" else "pagerank"
        data, factor = experiment_dataset(algorithm, nodes=nodes)
        params = default_params(algorithm, data)
        native, stock = (run_cell({"algorithm": algorithm, "nodes": nodes,
                                   "framework": name})
                         for name in ("native", framework))

        improved_profile = factory()
        cluster = Cluster(paper_cluster(nodes), scale_factor=factor,
                          enforce_memory=False)
        if framework == "combblas":
            # The CombBLAS recommendation is data compression of BFS
            # frontiers: model it by shipping compressed ids through the
            # stock engine (the sparse SpMV's traffic shrinks ~4x, the
            # typical adaptive-encoder ratio on frontier sets).
            improved_runtime = _combblas_bfs_compressed(data, nodes, factor,
                                                        params["source"])
        elif framework == "socialite":
            # SociaLite must run through its own Datalog engine for a
            # like-for-like comparison with its stock run.
            from .datalog.socialite import pagerank as socialite_pagerank

            result = socialite_pagerank(data, cluster, **params,
                                        profile_override=improved_profile)
            improved_runtime = result.runtime_for_comparison()
        else:
            result = _with_profile(algorithm, data, cluster,
                                   improved_profile, **params)
            improved_runtime = result.runtime_for_comparison()

        baseline = native.runtime()
        out[framework] = {
            "algorithm": algorithm,
            "stock": stock.runtime() / baseline,
            "roadmap": improved_runtime / baseline,
            "predicted": PAPER_PREDICTED_GAP[framework],
        }
    return out


def _combblas_bfs_compressed(graph, nodes: int, factor: float,
                             source: int) -> float:
    """CombBLAS BFS with bit-vector-compressed frontier exchanges."""
    from .matrix.combblas import MatrixEngine
    from .rounds import run_program

    class CompressedFrontiers(MatrixEngine):
        # Frontier ids ship at ~2 bytes/entry instead of 8 (the
        # adaptive-encoder ratio on dense frontiers).
        value_bytes = 2.0

    cluster = Cluster(paper_cluster(nodes), scale_factor=factor,
                      enforce_memory=False)
    return run_program("bfs", "combblas-roadmap", CompressedFrontiers, graph,
                       cluster, {"source": source}).total_time_s
