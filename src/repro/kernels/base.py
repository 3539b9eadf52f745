"""The ``Kernel`` protocol and the analytic work record kernels return.

A kernel is the numeric hot loop of one algorithm, shared by every
framework family. The protocol (documented for engine authors in
:mod:`repro.frameworks.base`) is::

    kernel = registry.kernel(algorithm, direction)(**algorithm_params)
    kernel.prepare(graph)                 # bind/cache per-graph state
    result, work = kernel.step(state)     # one superstep's numerics

``step`` returns the numerical result *plus* a :class:`KernelWork` of
analytic counts — edges touched, vertices touched, frontier size —
computed from array sizes and degrees rather than loop iterations.
Engines multiply those counts by their profile's efficiency/overhead
constants to build :class:`~repro.cluster.ComputeWork`, which is why the
interpreted and vectorized backends charge identical simulated work.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class KernelWork:
    """Analytic counts of what one kernel step touched.

    Derived from sizes/degrees (``frontier.size``, ``degrees[frontier]``
    sums, ``nnz``), never from backend loop trip counts — both backends
    report identical numbers by construction.
    """

    edges: float = 0.0      #: adjacency entries the step visited
    vertices: float = 0.0   #: vertices whose state the step read/wrote
    frontier: float = 0.0   #: active input vertices (sparse steps)
    #: The adjacency gather ``(targets, lengths)`` of the step's input
    #: vertices, when the step made one (:meth:`CSRGraph.neighbors_of_many`
    #: order): the engine's message accounting reads it instead of
    #: gathering the same rows again. It lives until the chunk of rounds
    #: holding it is charged, and is never memoised anywhere else.
    gather: tuple = field(default=None, compare=False, repr=False)


class Kernel:
    """Base class for the registered kernels (see module docstring).

    Subclasses set :attr:`algorithm` and :attr:`direction` (the registry
    key), implement :meth:`prepare` and :meth:`step`, and dispatch their
    numerics on :func:`repro.kernels.backend.active_backend`.
    """

    algorithm = None
    direction = None

    def prepare(self, graph):
        """Bind per-graph state; returns ``self`` for chaining."""
        raise NotImplementedError

    def step(self, *args, **kwargs):
        """Run one superstep; returns ``(result, KernelWork)``."""
        raise NotImplementedError
