"""Kernel backend selection: vectorized fast path vs interpreted oracle.

Every numeric primitive in :mod:`repro.kernels` has two implementations:

* ``vectorized`` — numpy/scipy-CSR bulk operations, the production fast
  path (GraphMat's lesson: vertex programs compiled down to SpMV close
  most of the gap to native);
* ``interpreted`` — pure-Python edge-at-a-time loops that replicate the
  vectorized accumulation *order*, kept as a differential-testing
  oracle. Deliberately slow; its only job is to agree bit-for-bit.

The active backend is process-global: the ``REPRO_KERNELS`` environment
variable sets the default, and :func:`use_backend` scopes an override to
a ``with`` block (``ExperimentSpec.kernels`` runs a cell under one). Counted
work, traffic and memory are analytic (derived from sizes and degrees,
never from loop trip counts), so the backend choice can change wall
clock only — simulated runtimes, BENCH baselines and sweep journals are
byte-identical under either.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from ..errors import KernelError

#: Environment variable consulted when no explicit override is set.
ENV_VAR = "REPRO_KERNELS"

VECTORIZED = "vectorized"
INTERPRETED = "interpreted"
BACKENDS = (VECTORIZED, INTERPRETED)

_override = None


def _validate(name: str) -> str:
    if name not in BACKENDS:
        raise KernelError(
            f"unknown kernel backend {name!r}; known: {', '.join(BACKENDS)}"
        )
    return name


def active_backend() -> str:
    """The backend every kernel primitive dispatches on right now."""
    if _override is not None:
        return _override
    env = os.environ.get(ENV_VAR)
    if env:
        return _validate(env)
    return VECTORIZED


@contextmanager
def use_backend(name):
    """Scope a backend override to a ``with`` block (re-entrant)."""
    global _override
    previous = _override
    _override = None if name is None else _validate(name)
    try:
        yield
    finally:
        _override = previous


def interpreted() -> bool:
    """True when the slow differential-oracle backend is active."""
    return active_backend() == INTERPRETED
