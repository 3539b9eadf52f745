"""Task engine and the Galois front-end."""

from . import galois

__all__ = ["galois"]
