"""Round programs: the eight workloads, each defined once.

The paper runs the *same* algorithm on every framework; what differs is
partitioning, message routing and runtime overhead. This module is the
"same algorithm" half. Each of pagerank, bfs, wcc, sssp, k_core,
label_propagation, triangle_counting and collaborative_filtering is one
class holding the workload's state machine:

* construction validates the parameters (:func:`check_params`) or the
  input, binds the workload's kernel — the only kernel lookup outside
  :mod:`repro.kernels` — and builds the initial state;
* ``round`` applies one ``Kernel.step`` (a CF iteration: one per SGD
  block) and reports what changed plus the step's analytic
  :class:`~repro.kernels.base.KernelWork`;
* ``values`` / ``extras()`` are the answer and its diagnostics.

Two loops drive them. :func:`run_frontier` (bfs, wcc, sssp and k_core's
cascade waves) repeats rounds over the active set until it is empty;
:func:`run_dense` (pagerank, label_propagation, triangle counting's one
round and CF's factorization iterations) sweeps every vertex a fixed
number of times. Neither loop knows a framework: an
:class:`Engine` — one subclass per engine family (native, vertex, task,
matrix) — owns allocation, partition/owner routing, the spans around a
round, and turning each round's counts into ``ComputeWork`` and traffic
from its per-algorithm row of cost constants (triangle counting and CF
have a small engine per family instead). :func:`run_program` ties a
program, an engine and a cluster into an :class:`AlgorithmResult`; which
engine runs each (algorithm, framework) is one row of
:mod:`repro.algorithms.registry`.
"""

from __future__ import annotations

import contextlib
from types import SimpleNamespace

import numpy as np

from ..algorithms.bfs import UNREACHED
from ..algorithms.labelprop import initial_labels
from ..algorithms.triangles import require_oriented
from ..errors import SpecError
from ..graph.csr import derived
from ..kernels import registry as kernel_registry
from ..kernels.backend import active_backend
from ..kernels.segments import distinct, stable_order
from .base import cf_density_correction
from .results import AlgorithmResult

#: Paper value: "the probability of a random jump (we use 0.3)".
DEFAULT_DAMPING = 0.3


def check_params(num_vertices: int = None, *, iterations=None,
                 hidden_dim=None, source=None, damping=None, method=None,
                 **_engine):
    """The range checks on workload parameters, in one place.

    Called with just the parameters when an ``ExperimentSpec`` is built
    (so a served or CLI spec fails before any work is queued) and again
    with the dataset's vertex count when a workload starts, which is the
    first moment ``source`` can be checked against the graph. Raises
    :class:`~repro.errors.SpecError`.
    """
    if iterations is not None and iterations < 1:
        raise SpecError(f"iterations must be >= 1, got {iterations}")
    if hidden_dim is not None and hidden_dim < 1:
        raise SpecError(f"hidden_dim must be >= 1, got {hidden_dim}")
    if damping is not None and not 0 < damping < 1:
        raise SpecError(f"damping must be in (0, 1), got {damping}")
    if method is not None and method not in ("sgd", "gd"):
        raise SpecError(f"method must be 'sgd' or 'gd', got {method!r}")
    if source is not None and (
            source < 0 or (num_vertices is not None
                           and source >= num_vertices)):
        raise SpecError(f"source {source} out of range")


def _kernel(algorithm: str, direction: str, graph, *args):
    return kernel_registry.kernel(algorithm, direction)(*args).prepare(graph)


# ---------------------------------------------------------------------------
# Frontier-delta programs: a round touches only the active set.
# ---------------------------------------------------------------------------


class FrontierProgram:
    """Shared shape of bfs / wcc / sssp (k_core overrides most of it).

    ``propose(active)`` runs the kernel over any subset of the active
    set without committing — engines that partition the frontier call
    it once per owner to see what each node would send — and
    ``commit(proposals)`` merges the proposals into the state and
    returns the next active set. ``round`` is the one-partition case.
    """

    shape = "frontier"
    span = "round"
    PARAMS = ()

    def seeds(self):
        """Initial active set of each level (one level unless k_core)."""
        yield self._seed

    def span_attrs(self, index: int, active) -> dict:
        return {"index": index, "frontier": int(active.size)}

    def round(self, active):
        proposal, improved, work = self.propose(active)
        return self.commit([(proposal, improved)]), work


class BFS(FrontierProgram):
    """Level-synchronous BFS; int32 hop distances, INT32_MAX unreached."""

    algorithm = "bfs"
    span = "level"
    PARAMS = ("source",)

    def __init__(self, graph, source: int = 0):
        check_params(graph.num_vertices, source=source)
        self._expand = _kernel("bfs", "push", graph)
        self.values = np.full(graph.num_vertices, UNREACHED, dtype=np.int32)
        self.values[source] = 0
        self._seed = np.array([source], dtype=np.int64)
        self._level = 0
        self._frontier_sizes = [1]
        self._edges = 0.0

    def propose(self, active):
        candidates, work = self._expand.step(active)
        self._edges += work.edges
        fresh = candidates[self.values[candidates] == UNREACHED]
        return fresh, fresh, work

    def commit(self, proposals):
        self._level += 1
        fresh = proposals[0][0] if len(proposals) == 1 else distinct(
            np.concatenate([found for found, _ in proposals]),
            self.values.size)
        self.values[fresh] = self._level
        self._frontier_sizes.append(int(fresh.size))
        return fresh

    def extras(self) -> dict:
        return {"frontier_sizes": self._frontier_sizes,
                "edges_examined": self._edges,
                "reached": int((self.values != UNREACHED).sum())}


class _MinFixpoint(FrontierProgram):
    """Delta rounds of a min-reduction: only just-improved vertices push."""

    def propose(self, active):
        (proposal, improved), work = self._push.step(self.values, active)
        self._edges += work.edges
        return proposal, improved, work

    def commit(self, proposals):
        self._rounds += 1
        if len(proposals) == 1:
            self.values, changed = proposals[0]
            return changed
        merged = proposals[0][0]
        for proposal, _ in proposals[1:]:
            merged = np.minimum(merged, proposal)
        changed = np.flatnonzero(merged < self.values)
        self.values = merged
        return changed


class WCC(_MinFixpoint):
    """Min-label flooding on a symmetrized graph; int64 component ids."""

    algorithm = "wcc"

    def __init__(self, graph):
        self._push = _kernel("wcc", "propagate", graph)
        self.values = np.arange(graph.num_vertices, dtype=np.int64)
        self._seed = np.arange(graph.num_vertices, dtype=np.int64)
        self._rounds = 0
        self._edges = 0.0

    def extras(self) -> dict:
        return {"components": int(distinct(self.values,
                                           self.values.size).size)}


class SSSP(_MinFixpoint):
    """Bellman-Ford delta rounds over the study's hash edge weights."""

    algorithm = "sssp"
    PARAMS = ("source",)

    def __init__(self, graph, source: int = 0):
        check_params(graph.num_vertices, source=source)
        self._push = _kernel("sssp", "relax", graph)
        self.values = np.full(graph.num_vertices, np.inf, dtype=np.float64)
        self.values[source] = 0.0
        self._seed = np.array([source], dtype=np.int64)
        self._rounds = 0
        self._edges = 0.0

    def extras(self) -> dict:
        return {"relaxations": self._edges,
                "frontier_rounds": self._rounds,
                "reached": int(np.isfinite(self.values).sum())}


class KCore(FrontierProgram):
    """Ascending-k peeling; each level's delete cascade is a fixpoint.

    The peel kernel both *finds* the sub-threshold vertices and
    decrements their neighbors in one step, so the program runs it one
    step ahead: ``seeds`` / ``round`` return the wave the last step
    found, and ``round(wave)`` commits that wave before looking for the
    next — among the neighbors the committed wave just decremented, the
    only vertices that can have dropped under ``k``. The kernel is
    called exactly once per wave plus once per level (the empty scan
    that ends it), and only the call that opens a level reads every
    vertex.
    """

    algorithm = "k_core"
    span = "wave"

    def __init__(self, graph):
        self._peel = _kernel("k_core", "peel", graph)
        self._degrees = graph.out_degrees().astype(np.int64)
        self.values = np.zeros(graph.num_vertices, dtype=np.int64)
        self.alive = np.ones(graph.num_vertices, dtype=bool)
        self._live = graph.num_vertices
        self.k = 1
        self._waves = 0

    def seeds(self):
        while self._live:
            yield self._scan(None)
            self.k += 1

    def _scan(self, touched):
        wave, self._work = self._peel.step(
            self._degrees, self.alive, self.k, self._live, touched)
        return wave

    def round(self, active):
        self.values[active] = self.k - 1
        self.alive[active] = False
        self._live -= active.size
        self._waves += 1
        work = self._work
        return self._scan(work.gather[0]), work

    def span_attrs(self, index: int, active) -> dict:
        return {"k": self.k, "removed": int(active.size)}

    def level_attrs(self) -> dict:
        return {"k": self.k, "alive": self._live}

    def extras(self) -> dict:
        return {"max_core": int(self.values.max()) if self.values.size
                else 0,
                "cascade_waves": self._waves}


# ---------------------------------------------------------------------------
# Dense programs: every vertex, a fixed number of sweeps.
# ---------------------------------------------------------------------------


class PageRank:
    """Unnormalized equation-1 PageRank; optional max-delta early stop."""

    algorithm = "pagerank"
    shape = "dense"
    PARAMS = ("iterations", "damping", "tolerance")

    def __init__(self, graph, iterations: int = 10,
                 damping: float = DEFAULT_DAMPING, tolerance: float = None):
        check_params(iterations=iterations, damping=damping)
        self.iterations = iterations
        self._tolerance = tolerance
        self._pull = _kernel("pagerank", "pull", graph, damping)
        self.values = np.full(graph.num_vertices, 1.0)

    def round(self) -> bool:
        """One sweep; True once the tolerance (if any) is met."""
        ranks, _ = self._pull.step(self.values)
        converged = self._tolerance is not None and \
            float(np.abs(ranks - self.values).max()) < self._tolerance
        self.values = ranks
        return converged

    def extras(self) -> dict:
        return {}


class LabelPropagation:
    """Seeded synchronous label propagation (CDLP); int64 labels."""

    algorithm = "label_propagation"
    shape = "dense"
    PARAMS = ("iterations", "seed")

    def __init__(self, graph, iterations: int = 3, seed: int = 0):
        check_params(iterations=iterations)
        self.iterations = int(iterations)
        self._sync = _kernel("label_propagation", "sync", graph)
        self.values = initial_labels(graph.num_vertices, seed)

    def round(self) -> bool:
        self.values, _ = self._sync.step(self.values)
        return False

    def extras(self) -> dict:
        return {"communities": int(distinct(self.values,
                                            self.values.size).size)}


def masked_triangles(graph) -> tuple:
    """``(count, overlap nnz)`` of the fused masked SpGEMM, derived once
    per graph and backend; the memo holds the two integers, no array."""
    def count():
        (total, overlap), _ = _kernel("triangle_counting", "masked-spgemm",
                                      graph).step()
        return SimpleNamespace(count=int(total), overlap_nnz=int(overlap.nnz))
    facts = derived(graph, ("triangles", active_backend()), count)
    return facts.count, facts.overlap_nnz


class TriangleCounting:
    """Equation 3 as one masked SpGEMM over the oriented CSR (GraphMat).

    One round of :func:`masked_triangles`. An engine whose own product
    is the count — CombBLAS's SUMMA, which cannot fuse the mask and
    materializes A² first (Section 6.2) — points ``count`` at it
    instead, so no cell counts twice. ``degrees`` (float64) size every
    family's neighbour lists and probes.
    """

    algorithm = "triangle_counting"
    shape = "dense"
    PARAMS = ()
    iterations = 1

    def __init__(self, graph):
        require_oriented(graph)
        self.graph = graph
        self.degrees = graph.out_degrees().astype(np.float64)
        self.count = masked_triangles

    def round(self) -> bool:
        self.values, self.overlap_nnz = self.count(self.graph)
        return True

    def extras(self) -> dict:
        return {}


def _chunks(ids, universe: int, grid: int):
    """Which of ``grid`` equal ranges of ``[0, universe)`` each id is in."""
    return np.minimum(ids * grid // max(universe, 1), grid - 1)


class CollaborativeFiltering:
    """Factorize ratings into user factors P and item factors Q (§3.2).

    ``method="sgd"`` is equations (5)-(8) on Gemulla's diagonal blocks,
    what native code and Galois run; ``"gd"`` is the full-gradient step
    (11)-(12) every other framework is limited to, and its ``gamma0``
    defaults lower. Users and items are each cut into ``grid`` ranges,
    one per node: ``blocks[s, u]`` counts the ratings of user range ``u``
    and item range ``(u + s) % grid``, which node ``u`` updates in
    sub-step ``s`` — a sub-step's blocks share no user or item, so the
    nodes update lock-free. SGD deals its rating permutation into that
    schedule once; a round runs one iteration's kernel steps, decays
    ``gamma`` and appends the training RMSE. ``density`` divides the
    vertex-proportional costs (:func:`~.base.cf_density_correction`).
    """

    algorithm = "collaborative_filtering"
    shape = "dense"
    #: ``run_program`` sets ``grid`` to the cluster's node count.
    dealt = True
    PARAMS = ("hidden_dim", "iterations", "method", "gamma0", "step_decay",
              "lambda_reg", "seed")

    # The paper's messages (Table 1: 8 KB a vertex) imply K near 1000;
    # the default is far lower so proxy-scale runs stay fast.
    def __init__(self, ratings, hidden_dim: int = 64, iterations: int = 10,
                 method: str = "sgd", gamma0: float = None,
                 step_decay: float = 0.95, lambda_reg: float = 0.05,
                 seed: int = 0, grid: int = 1):
        check_params(iterations=iterations, hidden_dim=hidden_dim,
                     method=method)
        self.iterations, self.hidden_dim, self.method = \
            iterations, hidden_dim, method
        if gamma0 is None:
            gamma0 = 0.003 if method == "sgd" else 0.002
        self._gamma, self._decay, self._lambda = gamma0, step_decay, \
            lambda_reg
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(hidden_dim)
        self.values = (rng.random((ratings.num_users, hidden_dim)) * scale,
                       rng.random((ratings.num_items, hidden_dim)) * scale)
        self.density = cf_density_correction(ratings)
        self._kernel = _kernel("collaborative_filtering", f"blocked-{method}",
                               ratings)
        users = _chunks(ratings.users, ratings.num_users, grid)
        slot = (_chunks(ratings.items, ratings.num_items, grid) - users) \
            % grid * grid + users
        self.blocks = np.bincount(slot, minlength=grid * grid).reshape(
            grid, grid)
        self.items_per_chunk = np.bincount(
            _chunks(np.arange(ratings.num_items), ratings.num_items, grid),
            minlength=grid)
        # A kernel step's leading arguments: GD steps once over every
        # rating, SGD once per non-empty block in schedule order.
        self._steps = [()]
        if method == "sgd":
            order = rng.permutation(ratings.num_ratings)
            order = order[stable_order(slot[order], grid * grid)]
            self._steps = [
                (ratings.users[block], ratings.items[block],
                 ratings.ratings[block])
                for block in np.split(order, np.cumsum(self.blocks)[:-1])
                if block.size]
        self.rmse_curve = []

    def round(self) -> bool:
        for leading in self._steps:
            self._kernel.step(*leading, *self.values, self._gamma,
                              self._lambda, self._lambda)
        self._gamma *= self._decay
        self.rmse_curve.append(self._kernel.rmse(*self.values))
        return False

    def extras(self) -> dict:
        return {"rmse_curve": self.rmse_curve, "method": self.method,
                "hidden_dim": self.hidden_dim}


PROGRAMS = {program.algorithm: program
            for program in (PageRank, BFS, WCC, SSSP, KCore,
                            LabelPropagation, TriangleCounting,
                            CollaborativeFiltering)}
#: The programs every family runs under its one ``Engine``; triangle
#: counting and CF get a small engine per family.
GRAPH_PROGRAMS = tuple(algorithm for algorithm in PROGRAMS
                       if algorithm not in (TriangleCounting.algorithm,
                                            CollaborativeFiltering.algorithm))


# ---------------------------------------------------------------------------
# What an engine family implements, and the two loops that drive it.
# ---------------------------------------------------------------------------


class Engine:
    """One family's side of a run: allocate, route, charge.

    ``cost`` is the family's row of constants for ``program.algorithm``;
    every row carries ``extras`` — the ordered diagnostic keys this
    engine reports, drawn from the program's and the engine's own (a CF
    or TC engine has no row: it reports all of the program's, then its own).
    Subclasses allocate in ``__init__`` and implement ``round`` (frontier
    programs: run the program's round over ``active``, charge one
    superstep, return the next active set) and/or ``sweep`` (dense
    programs: charge one all-vertex iteration).
    """

    #: k_core on engines that charge a whole k level at once: the
    #: engine's ``level()``, not each wave, marks the iteration.
    per_level = False

    @property
    def reports_levels(self) -> bool:
        """Whether ``iterations`` counts levels rather than rounds.

        The iterations an engine marks, unless it declares otherwise
        (CombBLAS marks k_core's levels but reports its waves).
        """
        return self.per_level

    def __init__(self, program, graph, cluster, cost=None):
        self.program = program
        self.graph = graph
        self.cluster = cluster
        self.cost = cost

    def iteration_span(self, index: int):
        """Span around one dense sweep."""
        return self.cluster.trace_span("iteration", index=index)

    def round_span(self, index: int, active):
        """Span around one frontier round (none inside a batched level)."""
        if self.per_level:
            return contextlib.nullcontext()
        return self.cluster.trace_span(
            self.program.span, **self.program.span_attrs(index, active))

    def level(self):
        """Context around one level's rounds (k_core's per-k charging)."""
        return contextlib.nullcontext()

    def round(self, active):
        raise NotImplementedError

    def sweep(self) -> None:
        raise NotImplementedError

    def diagnostics(self) -> dict:
        """Engine-side values ``cost.extras`` may name."""
        return {}


def run_frontier(program, engine, cluster) -> int:
    """Rounds over the active set until it is empty, level by level.

    ``frontier_size`` counts every round's active set, so its total is
    the number of vertex activations (for BFS: the vertices reached).
    Returns the rounds run, or the levels on engines that report those.
    """
    tracer = cluster.tracer
    rounds = levels = 0
    for active in program.seeds():
        levels += 1
        with engine.level():
            while active.size:
                rounds += 1
                tracer.count("frontier_size", int(active.size))
                with engine.round_span(rounds, active):
                    active = engine.round(active)
                    if not engine.per_level:
                        cluster.mark_iteration()
    return levels if engine.reports_levels else rounds


def run_dense(program, engine, cluster) -> int:
    """``program.iterations`` all-vertex sweeps, or fewer on convergence."""
    for index in range(program.iterations):
        with engine.iteration_span(index):
            converged = program.round()
            engine.sweep()
            cluster.mark_iteration()
        if converged:
            break
    return index + 1


_LOOPS = {"frontier": run_frontier, "dense": run_dense}


def run_program(algorithm: str, framework: str, engine_type, graph, cluster,
                params: dict, **engine_options) -> AlgorithmResult:
    """Run one round program under one engine; the shared back half.

    A program that deals its work over the nodes (CF's blocks) is told
    the cluster's node count as its ``grid``.
    """
    program_type = PROGRAMS[algorithm]
    if getattr(program_type, "dealt", False):
        params = {**params, "grid": cluster.num_nodes}
    program = program_type(graph, **params)
    engine = engine_type(program, graph, cluster, **engine_options)
    iterations = _LOOPS[program.shape](program, engine, cluster)
    known = {**program.extras(), **engine.diagnostics()}
    return AlgorithmResult(
        algorithm=algorithm, framework=framework, values=program.values,
        iterations=iterations, metrics=cluster.metrics(),
        extras=known if engine.cost is None
        else {key: known[key] for key in engine.cost.extras},
    )
