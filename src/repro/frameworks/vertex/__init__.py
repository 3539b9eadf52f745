"""Vertex-programming engine, the GPS and GraphX profiles and Giraph's
superstep splits.

GraphLab's and Giraph's profiles are in :mod:`repro.frameworks.base`;
which engine each vertex framework runs, and with what arguments, is
its row of :mod:`repro.algorithms.registry`.
"""

from . import giraph, gps, graphx
from .engine import (
    BSPEngine,
    ExchangeStats,
    VertexContext,
    VertexProgram,
    run_vertex_program,
)
from .programs import (
    BFSVertexProgram,
    PageRankVertexProgram,
    VertexEngine,
)

__all__ = [
    "BFSVertexProgram",
    "BSPEngine",
    "gps",
    "graphx",
    "ExchangeStats",
    "PageRankVertexProgram",
    "VertexContext",
    "VertexEngine",
    "VertexProgram",
    "giraph",
    "run_vertex_program",
]
