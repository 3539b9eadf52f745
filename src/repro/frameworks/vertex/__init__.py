"""Vertex-programming engine and Giraph's superstep splits.

GraphLab's, Giraph's, GPS's and GraphX's profiles are in
:mod:`repro.frameworks.base`; which engine each vertex framework runs,
and with what arguments, is its row of :mod:`repro.algorithms.registry`.
"""

from .engine import BSPEngine, VertexProgram, run_vertex_program
from .programs import BFSVertexProgram, PageRankVertexProgram

__all__ = [
    "BFSVertexProgram",
    "BSPEngine",
    "PageRankVertexProgram",
    "VertexProgram",
    "run_vertex_program",
]
