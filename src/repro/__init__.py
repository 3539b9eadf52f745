"""repro — reproduction of Satish et al., "Navigating the Maze of Graph
Analytics Frameworks using Massive Graph Datasets" (SIGMOD 2014).

The package re-implements, in pure Python/NumPy:

* the four workloads of the paper (PageRank, BFS, triangle counting,
  collaborative filtering) as hand-optimized *native* kernels;
* the five frameworks the paper studies, as faithful programming-model
  engines (vertex programs, sparse-matrix semirings, Datalog, task
  worklists) with per-framework cost profiles;
* the Graph500 RMAT and power-law ratings generators of Section 4;
* a simulated cluster with the paper's hardware constants, so the
  single-node and multi-node experiments (Tables 4-7, Figures 3-7) can
  be regenerated at laptop scale.

Quickstart::

    from repro import datagen
    from repro.harness import ExperimentSpec, run

    graph = datagen.rmat_graph(scale=14, seed=1)
    result = run(ExperimentSpec("pagerank", "native", graph, nodes=1))
    print(result.runtime())
"""

__version__ = "1.0.0"
