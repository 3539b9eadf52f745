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
cascade waves) charges the run's rounds a chunk at a time;
:func:`run_dense` (pagerank, label_propagation, triangle counting's one
round and CF's factorization iterations) sweeps every vertex a fixed
number of times. Neither loop knows a framework: an
:class:`Engine` — one subclass per engine family (native, vertex, task,
matrix) — owns allocation, partition/owner routing, and turning rounds
into ``ComputeWork`` and traffic from its per-algorithm row of cost
constants: ``charge`` makes all the superstep rows of a chunk of
:class:`Rounds` (and their spans) at once, with a few ``bincount`` calls
over (round, owner) keys, and hands them to
:meth:`~repro.cluster.Cluster.supersteps` in one call (triangle counting
and CF have a small engine per family instead). :func:`run_program`
ties a program, an engine and a cluster into an
:class:`AlgorithmResult`; which engine runs each (algorithm, framework)
is one row of :mod:`repro.algorithms.registry`.

A graph program's run depends only on (graph, algorithm, params, kernel
backend), so it runs once per resident graph: ``run_program`` records
the first run that completes on a dense ``CSRGraph`` (the active ids and
visited edge counts of every round, and the final values) and replays
the record to every later engine instead of calling the kernel.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from ..algorithms.bfs import UNREACHED
from ..algorithms.labelprop import initial_labels
from ..algorithms.triangles import require_oriented
from ..errors import SpecError
from ..graph.csr import CSRGraph, derived, held, held_keys
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
    ``extras()`` reads only ``values``, ``sizes`` (the size of the
    active set each round handed on) and ``edges`` (the edges its steps
    visited), which a replayed run (:class:`_Replay`) also carries.
    """

    shape = "frontier"
    span = "round"
    PARAMS = ()

    def __init__(self):
        self.sizes = []
        self.edges = 0.0

    def seeds(self):
        """Initial active set of each level (one level unless k_core)."""
        yield self._seed

    @staticmethod
    def span_attrs(index: int, size: int, k=None) -> dict:
        """Attributes of the span of round ``index`` over ``size`` ids
        (``k`` is its k_core level's)."""
        return {"index": index, "frontier": size}

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
        super().__init__()
        self._expand = _kernel("bfs", "push", graph)
        self.values = np.full(graph.num_vertices, UNREACHED, dtype=np.int32)
        self.values[source] = 0
        self._seed = np.array([source], dtype=np.int64)
        self._level = 0

    def propose(self, active):
        candidates, work = self._expand.step(active)
        self.edges += work.edges
        fresh = candidates[self.values[candidates] == UNREACHED]
        return fresh, fresh, work

    def commit(self, proposals):
        self._level += 1
        fresh = proposals[0][0] if len(proposals) == 1 else distinct(
            np.concatenate([found for found, _ in proposals]),
            self.values.size)
        self.values[fresh] = self._level
        self.sizes.append(int(fresh.size))
        return fresh

    def extras(self) -> dict:
        return {"frontier_sizes": [1, *self.sizes],
                "edges_examined": self.edges,
                "reached": int((self.values != UNREACHED).sum())}


class _MinFixpoint(FrontierProgram):
    """Delta rounds of a min-reduction: only just-improved vertices push."""

    def propose(self, active):
        (proposal, improved), work = self._push.step(self.values, active)
        self.edges += work.edges
        return proposal, improved, work

    def commit(self, proposals):
        if len(proposals) == 1:
            self.values, changed = proposals[0]
        else:
            merged = proposals[0][0]
            for proposal, _ in proposals[1:]:
                merged = np.minimum(merged, proposal)
            changed = np.flatnonzero(merged < self.values)
            self.values = merged
        self.sizes.append(int(changed.size))
        return changed


class WCC(_MinFixpoint):
    """Min-label flooding on a symmetrized graph; int64 component ids."""

    algorithm = "wcc"

    def __init__(self, graph):
        super().__init__()
        self._push = _kernel("wcc", "propagate", graph)
        self.values = np.arange(graph.num_vertices, dtype=np.int64)
        self._seed = np.arange(graph.num_vertices, dtype=np.int64)

    def extras(self) -> dict:
        return {"components": int(distinct(self.values,
                                           self.values.size).size)}


class SSSP(_MinFixpoint):
    """Bellman-Ford delta rounds over the study's hash edge weights."""

    algorithm = "sssp"
    PARAMS = ("source",)

    def __init__(self, graph, source: int = 0):
        check_params(graph.num_vertices, source=source)
        super().__init__()
        self._push = _kernel("sssp", "relax", graph)
        self.values = np.full(graph.num_vertices, np.inf, dtype=np.float64)
        self.values[source] = 0.0
        self._seed = np.array([source], dtype=np.int64)

    def extras(self) -> dict:
        return {"relaxations": self.edges,
                "frontier_rounds": len(self.sizes),
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
        super().__init__()
        self._peel = _kernel("k_core", "peel", graph)
        self._degrees = graph.out_degrees().astype(np.int64)
        self.values = np.zeros(graph.num_vertices, dtype=np.int64)
        self.alive = np.ones(graph.num_vertices, dtype=bool)
        self.live = graph.num_vertices
        self.k = 1

    def seeds(self):
        while self.live:
            yield self._scan(None)
            self.k += 1

    def _scan(self, touched):
        wave, self._work = self._peel.step(
            self._degrees, self.alive, self.k, self.live, touched)
        return wave

    def round(self, active):
        self.values[active] = self.k - 1
        self.alive[active] = False
        self.live -= active.size
        work = self._work
        wave = self._scan(work.gather[0])
        self.sizes.append(int(wave.size))
        return wave, work

    @staticmethod
    def span_attrs(index: int, size: int, k=None) -> dict:
        return {"k": k, "removed": size}

    @staticmethod
    def level_attrs(k: int, live: int) -> dict:
        return {"k": k, "alive": live}

    def extras(self) -> dict:
        return {"max_core": int(self.values.max()) if self.values.size
                else 0,
                "cascade_waves": len(self.sizes)}


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
    Subclasses allocate in ``__init__`` and implement ``charge`` (frontier
    programs: turn a chunk of :class:`Rounds` into all of its superstep
    rows, one :meth:`~repro.cluster.Cluster.supersteps` call) and/or
    ``sweep`` (dense programs: charge one all-vertex iteration).
    """

    #: k_core on engines that charge a whole k level at once: the
    #: level, not each wave, marks the iteration.
    per_level = False
    #: Whether ``charge`` reads the rounds' edges (:meth:`Rounds.gather`).
    reads_edges = False

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

    @classmethod
    def whole_rounds(cls, algorithm: str, cluster) -> bool:
        """Whether each round this engine runs takes the whole active
        set at once — what a recorded run can stand in for. An engine
        that proposes a round owner by owner (``owner_round``) needs the
        live program."""
        return True

    def iteration_span(self, index: int):
        """Span around one dense sweep."""
        return self.cluster.trace_span("iteration", index=index)

    def charge(self, rounds: "Rounds") -> None:
        raise NotImplementedError

    def sweep(self) -> None:
        raise NotImplementedError

    def diagnostics(self) -> dict:
        """Engine-side values ``cost.extras`` may name."""
        return {}


class Rounds:
    """Consecutive rounds of one frontier run, as arrays: what
    :meth:`Engine.charge` turns into superstep rows.

    Round ``s`` is round ``first + s + 1`` of the run: it ran over
    ``active[bounds[s]:bounds[s + 1]]``, visited ``edges[s]`` edges and
    handed ``handed[s]`` ids on (none after its level's last round).
    The run's levels start at rounds ``levels`` (k_core's ``k`` and live
    count in ``level_k`` / ``level_live``); only per-level engines read
    them, and only for k_core, whose whole peel visits every edge once
    and so is one chunk. ``rows`` are an engine's own per-round charges
    when it proposes rounds owner by owner. ``key`` is the recorded
    run's (:func:`run_program`) on a replay, else None.
    """

    def __init__(self, program_type, graph, first, active, bounds, edges,
                 handed, levels, level_k, level_live, gathers=None,
                 rows=None, key=None):
        self._type, self.graph, self.first = program_type, graph, first
        self.key = key
        self.active, self.bounds, self.edges = active, bounds, edges
        self.handed, self.levels = handed, levels
        self.level_k, self.level_live = level_k, level_live
        self._gathers, self.rows = gathers, rows
        self.sizes = np.diff(bounds)
        self.count = self.sizes.size

    def gather(self):
        """``(targets, lengths)`` of every active id's out-edges in
        order: the kernel's own gathers on a live run, one gather of the
        whole chunk on a replay."""
        if self._gathers is None:
            return self.graph.neighbors_of_many(self.active)
        if len(self._gathers) == 1:
            return self._gathers[0]
        targets, lengths = zip(*self._gathers)
        return np.concatenate(targets), np.concatenate(lengths)

    def census(self, cuts) -> np.ndarray:
        """``(count, len(cuts) - 1)``: each round's distinct out-edge
        targets in each band between consecutive ``cuts`` (ascending, 0
        to the vertex count): an SpMSpV's y entries per band, or with one
        band a combining vertex program's messages on one node. A replay
        holds it with the graph (:func:`derived`) per chunk and cut set,
        and a request whose cuts are among a held entry's sums its
        bands; a live run holds none, so one that raises leaves none."""
        cuts = tuple(int(cut) for cut in cuts)
        base = ("census", self.key, self.first)
        at = next((key[3] for key in held_keys(self.graph)
                   if key[:3] == base and set(cuts) <= set(key[3])), cuts)
        below = self._below(at) if self.key is None \
            else derived(self.graph, (*base, at), lambda: self._below(at))
        return np.diff(below[:, np.searchsorted(at, cuts)], axis=1)

    def _below(self, cuts: tuple) -> np.ndarray:
        """How many distinct targets each round has below each cut."""
        targets, lengths = self.gather()
        n, width = self.graph.num_vertices, len(cuts)
        present = distinct(self.round_of_edges(lengths) * np.int64(n)
                           + targets, self.count * n)
        return np.bincount(
            present // n * width + np.searchsorted(cuts, present % n,
                                                   "right"),
            minlength=self.count * width).reshape(
                self.count, width).cumsum(1)

    def round_of_ids(self) -> np.ndarray:
        return np.repeat(np.arange(self.count), self.sizes)

    def round_of_edges(self, lengths) -> np.ndarray:
        """The row of every edge of :meth:`gather` (of its ``lengths``)."""
        return np.repeat(np.arange(self.count), np.add.reduceat(
            lengths, self.bounds[:-1])) if self.count else _empty()

    def level_bounds(self) -> np.ndarray:
        return np.append(self.levels, self.count)

    def frames(self, name: str, body, **attrs) -> list:
        """A tracer's events for an engine that charges a row per round:
        each round's frontier count, then its span (``attrs`` first)
        around ``body(row)`` and the iteration mark."""
        events = []
        for row, size in enumerate(self.sizes.tolist()):
            events += [("count", "frontier_size", size),
                       ("open", name, {**attrs, **self.span_attrs(row)}),
                       *body(row), ("mark",), ("close",)]
        return events

    def span_attrs(self, row: int) -> dict:
        level = int(np.searchsorted(self.levels, row, "right")) - 1
        return self._type.span_attrs(
            self.first + row + 1, int(self.sizes[row]),
            None if self.level_k is None else int(self.level_k[level]))

    def level_frames(self, name: str, wave, tail) -> list:
        """A tracer's events for a per-level engine: each level's span
        around its waves (a frontier count, then ``wave(row)``), then
        ``tail(level)`` and the iteration mark."""
        events, bounds = [], self.level_bounds().tolist()
        for level, (k, live) in enumerate(zip(self.level_k.tolist(),
                                              self.level_live.tolist())):
            events.append(("open", name, self._type.level_attrs(k, live)))
            for row in range(bounds[level], bounds[level + 1]):
                events += [("count", "frontier_size", int(self.sizes[row])),
                           *wave(row)]
            events += [*tail(level), ("mark",), ("close",)]
        return events


def run_frontier(run, engine, cluster) -> int:
    """Charge a frontier run chunk by chunk, each chunk's rounds in one
    ``engine.charge``.

    The run is the recorded one (:class:`_Replay`) or the live program
    (:class:`_Live`), which runs alone round by round. A chunk is as
    many consecutive rounds as visit, together, at most the graph's
    edge count, and at least one round: that bounds the edges a chunk
    holds and how far a live run gets ahead of a deadline.
    ``frontier_size`` counts every round's active set, so its total is
    the number of vertex activations (for BFS: the vertices reached).
    Returns the rounds run, or the levels on engines that report those.
    """
    for rounds in run.chunks(engine):
        if rounds.count or rounds.levels.size:
            engine.charge(rounds)
    return run.level_count if engine.reports_levels else run.rounds


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


# ---------------------------------------------------------------------------
# One run per resident graph: recorded live, replayed for every engine.
# ---------------------------------------------------------------------------


def _empty():
    return np.zeros(0, dtype=np.int64)


def _bounds(active: list) -> np.ndarray:
    return np.cumsum([0, *(ids.size for ids in active)], dtype=np.int64)


class _Live:
    """The live frontier program, run round by round and handed on a
    chunk at a time; with ``keep`` it writes the run down as it goes.

    Every other attribute is the program's. Per round it keeps the
    active ids and the edges visited — not the gather, which would pin
    every round's edges; per level, the round it starts at and (k_core)
    its ``k`` and live count.
    """

    def __init__(self, program, graph, keep: bool):
        self._program, self._graph, self._keep = program, graph, keep
        self._active, self._edges, self._levels, self._level_attrs = \
            [], [], [], []
        self.rounds = 0

    def __getattr__(self, name):
        return getattr(self._program, name)

    @property
    def level_count(self) -> int:
        return len(self._levels)

    def _level_columns(self) -> tuple:
        if not isinstance(self._program, KCore):
            return None, None
        return np.array(self._level_attrs, dtype=np.int64).reshape(-1, 2).T

    def chunks(self, engine):
        program, limit = self._program, self._graph.num_edges
        owners = not engine.whole_rounds(program.algorithm, engine.cluster)
        total, pending = 0.0, ([], [], [], [], [])

        def chunk():
            active, edges, handed, gathers, rows = pending
            return Rounds(
                type(program), self._graph, self.rounds - len(active),
                np.concatenate(active) if active else _empty(),
                _bounds(active), np.array(edges), np.array(handed),
                np.array(self._levels) - (self.rounds - len(active)),
                *self._level_columns(),
                None if not engine.reads_edges or None in gathers
                else gathers, rows if owners else None)

        for seed in program.seeds():
            self._levels.append(self.rounds)
            if isinstance(program, KCore):
                self._level_attrs.append((program.k, program.live))
            active = seed
            while active.size:
                if owners:
                    following, work, row = engine.owner_round(active)
                else:
                    (following, work), row = program.round(active), None
                if pending[0] and total + work.edges > limit:
                    yield chunk()
                    total, pending = 0.0, ([], [], [], [], [])
                for column, value in zip(pending, (
                        active, work.edges, following.size, work.gather, row)):
                    column.append(value)
                total += work.edges
                self.rounds += 1
                if self._keep:
                    self._active.append(active)
                    self._edges.append(work.edges)
                active = following
        yield chunk()

    def record(self) -> SimpleNamespace:
        """The run as plain arrays."""
        k, live = self._level_columns()
        return SimpleNamespace(
            values=self._program.values.copy(),
            active=np.concatenate(self._active) if self._active
            else _empty(), bounds=_bounds(self._active),
            edges=np.array(self._edges, dtype=np.float64),
            levels=np.array([*self._levels, self.rounds], dtype=np.int64),
            level_k=k, level_live=live)


class _Replay:
    """A recorded frontier run, handed to the engine in the chunks the
    live run makes.

    It answers the program's own ``extras`` from the attributes they
    read, kept as the live program keeps them (``values``, ``sizes``
    and ``edges``). A chunk carries no gather: an engine that reads
    edges gathers the chunk once.
    """

    shape = "frontier"

    def __init__(self, program_type, record, graph, key):
        self._type, self._record, self._graph = program_type, record, graph
        self._key = key
        self.algorithm, self.span = program_type.algorithm, program_type.span
        self.values = record.values.copy()
        sizes, starts = np.diff(record.bounds), record.levels[:-1]
        self._handed = np.append(sizes[1:], 0)
        self._handed[record.levels[1:][record.levels[1:] > starts] - 1] = 0
        self.sizes = self._handed.tolist()
        self.edges = sum(record.edges.tolist(), 0.0)
        self.rounds, self.level_count = sizes.size, starts.size

    def chunks(self, engine):
        record, cum = self._record, np.cumsum(self._record.edges)
        first = 0
        while True:
            end = min(self.rounds, max(first + 1, int(np.searchsorted(
                cum, (cum[first - 1] if first else 0.0)
                + self._graph.num_edges, "right"))))
            lo, hi = record.bounds[first], record.bounds[end]
            yield Rounds(self._type, self._graph, first,
                         record.active[lo:hi],
                         record.bounds[first:end + 1] - lo,
                         record.edges[first:end], self._handed[first:end],
                         record.levels[:-1] - first, record.level_k,
                         record.level_live, key=self._key)
            if end == self.rounds:
                return
            first = end

    def extras(self) -> dict:
        return self._type.extras(self)


class _Swept:
    """A recorded dense run: how many sweeps it took, and its values."""

    shape = "dense"

    def __init__(self, program_type, record):
        self._type = program_type
        self.algorithm = program_type.algorithm
        self.iterations = record.sweeps
        self.values = record.values.copy()

    def round(self) -> bool:
        return False

    def extras(self) -> dict:
        return self._type.extras(self)


def _nbytes(record) -> int:
    return sum(field.nbytes for field in vars(record).values()
               if isinstance(field, np.ndarray))


def _trajectory_key(algorithm: str, params: dict) -> tuple:
    # ``repr`` keeps apart values that compare equal but run differently
    # (``True`` and ``1`` as a source).
    return ("trajectory", algorithm,
            tuple(sorted((name, repr(value))
                         for name, value in params.items())),
            active_backend())


def run_program(algorithm: str, framework: str, engine_type, graph, cluster,
                params: dict, **engine_options) -> AlgorithmResult:
    """Run one round program under one engine; the shared back half.

    A program that deals its work over the nodes (CF's blocks) is told
    the cluster's node count as its ``grid``.

    A graph program's run depends only on (graph, algorithm, params,
    kernel backend), so on a dense :class:`CSRGraph` the first run that
    completes is recorded (:func:`~repro.graph.csr.derived`) and every
    later run replays the record instead of calling the kernel; engines
    cannot tell the two apart. A record larger than the graph's own
    arrays is not kept, a run that raises keeps nothing, and an engine
    that splits rounds by owner (:meth:`Engine.whole_rounds`) runs live.
    """
    program_type = PROGRAMS[algorithm]
    if getattr(program_type, "dealt", False):
        params = {**params, "grid": cluster.num_nodes}
    memo = record = None
    if algorithm in GRAPH_PROGRAMS and isinstance(graph, CSRGraph) \
            and engine_type.whole_rounds(algorithm, cluster):
        memo = _trajectory_key(algorithm, params)
        record = held(graph, memo)
    if record is not None:
        program = _Replay(program_type, record, graph, memo) \
            if program_type.shape == "frontier" \
            else _Swept(program_type, record)
    else:
        program = program_type(graph, **params)
        if program.shape == "frontier":
            program = _Live(program, graph, keep=memo is not None)
    engine = engine_type(program, graph, cluster, **engine_options)
    iterations = _LOOPS[program.shape](program, engine, cluster)
    if memo is not None and record is None:
        record = program.record() if program.shape == "frontier" \
            else SimpleNamespace(values=program.values.copy(),
                                 sweeps=iterations)
        if _nbytes(record) <= graph.nbytes():
            derived(graph, memo, lambda: record)
    known = {**program.extras(), **engine.diagnostics()}
    return AlgorithmResult(
        algorithm=algorithm, framework=framework, values=program.values,
        iterations=iterations, metrics=cluster.metrics(),
        extras=known if engine.cost is None
        else {key: known[key] for key in engine.cost.extras},
    )
