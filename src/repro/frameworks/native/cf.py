"""Hand-optimized native collaborative filtering (paper Sections 2, 3.2, 6.1).

The native code implements **Stochastic Gradient Descent** with the
Gemulla et al. diagonal parallelization: "For n processors, the ratings
matrix is divided into n^2 2-D chunks. Each iteration involves n
sub-steps where a subset of the updates (on n chunks) are applied" —
blocks on a diagonal share no users or items, so nodes update lock-free.
Gradient Descent (the fallback the other frameworks are limited to) is
also provided, both for the framework engines and for the SGD-vs-GD
convergence comparison the paper reports (~40x fewer iterations on
Netflix).

The update math itself lives in :mod:`repro.kernels.sgd` (re-exported
here for compatibility): mini-batch vectorized sweeps rather than
rating-at-a-time Python (reads within a batch see slightly stale
factors, a standard Hogwild-style relaxation that preserves SGD's
convergence behaviour). DESIGN.md records this substitution; the
``REPRO_KERNELS=interpreted`` oracle runs the per-rating loops.
"""

from __future__ import annotations

import numpy as np

from ...cluster import Cluster, ComputeWork
from ...errors import ConvergenceError
from ...graph import RatingsMatrix
from ...kernels import registry as kernel_registry
from ...kernels.sgd import (  # noqa: F401  (re-exported compatibility names)
    _SGD_BATCH,
    gd_step,
    sgd_sweep,
    training_rmse,
)
from ..results import AlgorithmResult
from ..rounds import check_params
from .options import NativeOptions

#: Default hidden dimension. The paper's message sizes (Table 1: 8 KB per
#: vertex message) imply K near 1000; we default far lower so proxy-scale
#: runs stay fast, and the Table 1 bench overrides it.
DEFAULT_K = 64


def collaborative_filtering(ratings: RatingsMatrix, cluster: Cluster,
                            hidden_dim: int = DEFAULT_K, iterations: int = 10,
                            method: str = "sgd", gamma0: float = 0.003,
                            step_decay: float = 0.95,
                            lambda_reg: float = 0.05, seed: int = 0,
                            options: NativeOptions = None) -> AlgorithmResult:
    """Factorize ``ratings`` into P (users) and Q (items) on the cluster.

    ``method`` is ``"sgd"`` (native default, Gemulla diagonal blocks) or
    ``"gd"`` (the frameworks' fallback). Returns ``(P, Q)`` in ``values``
    and the per-iteration training RMSE in ``extras["rmse_curve"]``.
    """
    check_params(iterations=iterations, hidden_dim=hidden_dim, method=method)
    options = options or NativeOptions()
    rng = np.random.default_rng(seed)

    num_nodes = cluster.num_nodes
    k = hidden_dim
    scale = 1.0 / np.sqrt(k)
    p_factors = rng.random((ratings.num_users, k)) * scale
    q_factors = rng.random((ratings.num_items, k)) * scale

    # Gemulla grid: users and items each cut into ``num_nodes`` chunks.
    user_chunk = np.minimum(
        (ratings.users * num_nodes) // max(ratings.num_users, 1), num_nodes - 1
    )
    item_chunk = np.minimum(
        (ratings.items * num_nodes) // max(ratings.num_items, 1), num_nodes - 1
    )
    items_per_chunk = np.bincount(
        np.minimum(np.arange(ratings.num_items) * num_nodes
                   // max(ratings.num_items, 1), num_nodes - 1),
        minlength=num_nodes,
    )

    # Memory: each node holds its user-factor chunk, one item-factor
    # chunk at a time, and its ratings share. Vertex-proportional sizes
    # carry the density correction (see cf_density_correction).
    from ..base import cf_density_correction
    density = cf_density_correction(ratings)
    ratings_per_user_chunk = np.bincount(user_chunk, minlength=num_nodes)
    for node in range(num_nodes):
        cluster.allocate(node, "user-factors",
                         8 * k * ratings.num_users / num_nodes / density)
        cluster.allocate(node, "item-factors",
                         8 * k * items_per_chunk.max() / density)
        cluster.allocate(node, "ratings", 16 * ratings_per_user_chunk[node])

    direction = "blocked-sgd" if method == "sgd" else "blocked-gd"
    kern = kernel_registry.kernel("collaborative_filtering",
                                  direction)().prepare(ratings)

    order = rng.permutation(ratings.num_ratings)
    users = ratings.users[order]
    items = ratings.items[order]
    values = ratings.ratings[order]
    block_of = user_chunk[order] * num_nodes + item_chunk[order]

    rmse_curve = []
    gamma = gamma0
    factor_bytes_per_rating = 4.0 * k * 8.0   # read + write both rows

    def _work_for(num_ratings_node: float) -> ComputeWork:
        total = factor_bytes_per_rating * num_ratings_node
        return ComputeWork(
            streamed_bytes=0.75 * total + 16 * num_ratings_node,
            random_bytes=0.25 * total,
            ops=8.0 * k * num_ratings_node,
            prefetch=options.prefetch,
        )

    for iteration in range(iterations):
        with cluster.trace_span("iteration", index=iteration,
                                method=method):
            if method == "sgd":
                for sub in range(num_nodes):
                    works = []
                    traffic = np.zeros((num_nodes, num_nodes))
                    for node in range(num_nodes):
                        chunk = (node + sub) % num_nodes
                        mask = block_of == node * num_nodes + chunk
                        count = int(mask.sum())
                        if count:
                            kern.step(users[mask], items[mask], values[mask],
                                      p_factors, q_factors, gamma,
                                      lambda_reg, lambda_reg)
                        works.append(_work_for(count))
                        # Rotate the item chunk to the next diagonal owner
                        # (vertex-proportional: density-corrected).
                        if num_nodes > 1:
                            succ = (node - 1) % num_nodes
                            traffic[node, succ] = (8.0 * k
                                                   * items_per_chunk[chunk]
                                                   / density)
                    cluster.superstep(works, traffic,
                                      overlap=options.overlap)
            else:
                kern.step(p_factors, q_factors, gamma, lambda_reg, lambda_reg)
                works = [_work_for(ratings_per_user_chunk[node])
                         for node in range(num_nodes)]
                # GD: item factors are aggregated across every node that
                # rated the item — an all-to-all of the full Q matrix
                # (vertex-proportional: density-corrected).
                traffic = np.full((num_nodes, num_nodes),
                                  8.0 * k * ratings.num_items
                                  / max(num_nodes, 1) / density)
                np.fill_diagonal(traffic, 0.0)
                cluster.superstep(works, traffic, overlap=options.overlap)

            cluster.mark_iteration()
        gamma *= step_decay
        rmse_curve.append(kern.rmse(p_factors, q_factors))

    metrics = cluster.metrics()
    return AlgorithmResult(
        algorithm="collaborative_filtering", framework="native",
        values=(p_factors, q_factors), iterations=iterations, metrics=metrics,
        extras={"rmse_curve": rmse_curve, "method": method, "hidden_dim": k},
    )


def iterations_to_rmse(ratings: RatingsMatrix, target_rmse: float,
                       method: str, hidden_dim: int = 16,
                       max_iterations: int = 400, gamma0: float = None,
                       seed: int = 0) -> int:
    """Iterations needed to reach ``target_rmse`` (SGD-vs-GD study).

    The paper: "given a fixed convergence criterion, SGD converges in
    about 40x fewer iterations than GD", after "a coarse sweep over
    these parameters to obtain best convergence" — we likewise pick
    per-method defaults tuned coarsely.
    """
    from ...cluster import paper_cluster

    if gamma0 is None:
        gamma0 = 0.02 if method == "sgd" else 0.002
    # A too-aggressive learning rate makes GD diverge on some datasets;
    # halve and retry — the coarse parameter sweep the paper describes.
    curve = None
    for _attempt in range(4):
        cluster = Cluster(paper_cluster(1), enforce_memory=False)
        try:
            result = collaborative_filtering(
                ratings, cluster, hidden_dim=hidden_dim,
                iterations=max_iterations, method=method, gamma0=gamma0,
                step_decay=0.99, seed=seed,
            )
        except ConvergenceError:
            gamma0 /= 2.0
            continue
        curve = result.extras["rmse_curve"]
        break
    if curve is None:
        raise ConvergenceError(f"{method} diverged even at gamma0={gamma0}")
    for i, rmse in enumerate(curve):
        if rmse <= target_rmse:
            return i + 1
    raise ConvergenceError(
        f"{method} did not reach RMSE {target_rmse} in {max_iterations} "
        f"iterations (best {min(curve):.4f})"
    )
