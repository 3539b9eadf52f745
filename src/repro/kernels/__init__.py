"""Shared vectorized kernels behind a unified ``Kernel`` protocol.

The numeric hot loops of the four workloads — semiring SpMV/SpMSpV for
PageRank and BFS, masked ``nnz(A ∘ A²)`` for triangles, blocked SGD/GD
updates for CF — implemented once and parameterized by every framework
family's profile constants instead of being re-implemented per engine.

Backends (``REPRO_KERNELS=vectorized|interpreted``, see
:mod:`repro.kernels.backend`): the vectorized numpy/scipy fast path, and
a pure-Python interpreted oracle kept for differential testing. Counted
work is analytic either way, so simulated runtimes and baselines are
byte-identical across backends.

Engines resolve kernels through :mod:`repro.kernels.registry` by
``(algorithm, direction)``; the protocol itself is documented in
:mod:`repro.frameworks.base`.

:mod:`repro.kernels.segments` holds what the superstep loops around the
kernels share: ``distinct``, ``first_occurrence``, ``segment_mode``,
``pair_traffic`` and ``list_traffic`` over bounded integer ids. Dedups,
sender-side combining and label modes go through those instead of a
comparison sort of composite keys (a tier-1 test keeps it that way).
"""

from .backend import (
    BACKENDS,
    INTERPRETED,
    VECTORIZED,
    active_backend,
    use_backend,
)
from .registry import kernel
from .spmv import semiring_spmspv

__all__ = [
    "BACKENDS",
    "INTERPRETED",
    "VECTORIZED",
    "active_backend",
    "kernel",
    "semiring_spmspv",
    "use_backend",
]
