"""Hand-optimized native collaborative filtering (paper Sections 2, 3.2, 6.1).

The native code implements **Stochastic Gradient Descent** with the
Gemulla et al. diagonal parallelization: "For n processors, the ratings
matrix is divided into n^2 2-D chunks. Each iteration involves n
sub-steps where a subset of the updates (on n chunks) are applied" —
blocks on a diagonal share no users or items, so nodes update lock-free.
Gradient Descent (the fallback the other frameworks are limited to) is
also available, both as ``method="gd"`` and for the SGD-vs-GD
convergence comparison the paper reports (~40x fewer iterations on
Netflix).

The factorization itself — factor draw, block schedule, kernel steps,
step decay, RMSE curve — is the shared round program
:class:`~repro.frameworks.rounds.CollaborativeFiltering`; this module is
what the native code *charges* for an iteration
(:class:`NativeCFEngine`), and the convergence study, which needs only
the program's curve.
"""

from __future__ import annotations

import numpy as np

from ...cluster import ComputeWork
from ...errors import ConvergenceError
from ..rounds import CollaborativeFiltering, Engine
from .options import NativeOptions

class NativeCFEngine(Engine):
    """Each node holds its user-factor chunk, one item-factor chunk at a
    time and its ratings share (vertex-proportional sizes carry the
    program's density correction). An SGD iteration is one superstep per
    sub-step, after which every node passes its item chunk to the next
    diagonal owner; a GD iteration is one superstep whose item factors
    are aggregated all-to-all.
    """

    def __init__(self, program, ratings, cluster, options: NativeOptions = None):
        super().__init__(program, ratings, cluster)
        self.options = options or NativeOptions()
        nodes, k, density = cluster.num_nodes, program.hidden_dim, \
            program.density
        per_node = program.blocks.sum(axis=0)
        items_per_chunk = program.items_per_chunk
        for node in range(nodes):
            cluster.allocate(node, "user-factors",
                             8 * k * ratings.num_users / nodes / density)
            cluster.allocate(node, "item-factors",
                             8 * k * items_per_chunk.max() / density)
            cluster.allocate(node, "ratings", 16 * per_node[node])
        if program.method == "gd":
            traffic = np.full((nodes, nodes), 8.0 * k * ratings.num_items
                              / max(nodes, 1) / density)
            np.fill_diagonal(traffic, 0.0)
            self._steps = [(self._work(per_node), traffic)]
            return
        self._steps = []
        for sub, counts in enumerate(program.blocks):
            traffic = np.zeros((nodes, nodes))
            if nodes > 1:
                for node in range(nodes):
                    traffic[node, (node - 1) % nodes] = 8.0 * k \
                        * items_per_chunk[(node + sub) % nodes] / density
            self._steps.append((self._work(counts), traffic))

    def _work(self, ratings) -> ComputeWork:
        """The sub-step's work from each node's rating count."""
        k = self.program.hidden_dim
        total = 4.0 * k * 8.0 * ratings     # read + write both factor rows
        return ComputeWork(streamed_bytes=0.75 * total + 16 * ratings,
                           random_bytes=0.25 * total, ops=8.0 * k * ratings,
                           prefetch=self.options.prefetch)

    def iteration_span(self, index: int):
        return self.cluster.trace_span("iteration", index=index,
                                       method=self.program.method)

    def sweep(self) -> None:
        for work, traffic in self._steps:
            self.cluster.superstep(work, traffic, overlap=self.options.overlap)


def rmse_curve(ratings, iterations: int, **params) -> list:
    """The study's curve: the program's training RMSE per iteration at
    step decay 0.99. Nothing is charged, so no cluster is needed."""
    program = CollaborativeFiltering(ratings, iterations=iterations,
                                     step_decay=0.99, **params)
    for _iteration in range(iterations):
        program.round()
    return program.rmse_curve


def iterations_to_rmse(ratings, target_rmse: float, method: str,
                       hidden_dim: int = 16, max_iterations: int = 400,
                       gamma0: float = None, seed: int = 0) -> int:
    """Iterations needed to reach ``target_rmse`` (SGD-vs-GD study).

    The paper: "given a fixed convergence criterion, SGD converges in
    about 40x fewer iterations than GD", after "a coarse sweep over
    these parameters to obtain best convergence" — we likewise pick
    per-method defaults tuned coarsely. SGD is the one-node schedule.
    """
    if gamma0 is None:
        gamma0 = 0.02 if method == "sgd" else 0.002
    # A too-aggressive learning rate makes GD diverge on some datasets;
    # halve and retry — the coarse parameter sweep the paper describes.
    # The whole curve is run: a later divergence still counts.
    for _attempt in range(4):
        try:
            curve = rmse_curve(ratings, max_iterations, hidden_dim=hidden_dim,
                               method=method, gamma0=gamma0, seed=seed)
            break
        except ConvergenceError:
            tried, gamma0 = gamma0, gamma0 / 2.0
    else:
        raise ConvergenceError(f"{method} diverged even at gamma0={tried}")
    for i, rmse in enumerate(curve):
        if rmse <= target_rmse:
            return i + 1
    raise ConvergenceError(
        f"{method} did not reach RMSE {target_rmse} in {max_iterations} "
        f"iterations (best {min(curve):.4f})"
    )
