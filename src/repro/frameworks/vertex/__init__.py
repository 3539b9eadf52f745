"""Vertex-programming engine and the GraphLab / Giraph front-ends."""

from . import giraph, gps, graphlab, graphx
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
    "graphlab",
    "run_vertex_program",
]
