"""Vertex-programming engine and the GraphLab / Giraph front-ends."""

from . import giraph, gps, graphlab, graphx
from .async_engine import (
    AsyncScheduler,
    AsyncStats,
    pagerank_delta_async,
    pagerank_sync_to_tolerance,
)
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
    "AsyncScheduler",
    "AsyncStats",
    "BFSVertexProgram",
    "BSPEngine",
    "gps",
    "graphx",
    "pagerank_delta_async",
    "pagerank_sync_to_tolerance",
    "ExchangeStats",
    "PageRankVertexProgram",
    "VertexContext",
    "VertexEngine",
    "VertexProgram",
    "giraph",
    "graphlab",
    "run_vertex_program",
]
