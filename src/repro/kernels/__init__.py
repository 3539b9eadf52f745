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

from . import registry
from .backend import (
    BACKENDS,
    ENV_VAR,
    INTERPRETED,
    VECTORIZED,
    active_backend,
    set_backend,
    use_backend,
)
from .base import Kernel, KernelWork
from .registry import kernel
from .sgd import gd_step, sgd_sweep, training_rmse
from .spmv import semiring_spmspv, semiring_spmv
from .triangles import aa_product, masked_sum

__all__ = [
    "BACKENDS",
    "ENV_VAR",
    "INTERPRETED",
    "Kernel",
    "KernelWork",
    "VECTORIZED",
    "aa_product",
    "active_backend",
    "gd_step",
    "kernel",
    "masked_sum",
    "registry",
    "semiring_spmspv",
    "semiring_spmv",
    "set_backend",
    "sgd_sweep",
    "training_rmse",
    "use_backend",
]
