"""Sparse-matrix semiring engine and the CombBLAS front-end."""

from .semiring import MIN_PLUS, OR_AND, PLUS_TIMES, semiring_spmv
from .spmat import DistSpMat, ProcessGrid

__all__ = [
    "MIN_PLUS",
    "OR_AND",
    "PLUS_TIMES",
    "DistSpMat",
    "ProcessGrid",
    "semiring_spmv",
]
