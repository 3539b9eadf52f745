"""Collaborative-filtering objective and convergence utilities.

The paper's objective (equation 4)::

    min_{p,q} sum_{(u,v) in R} (R_uv - p_u . q_v)^2
              + lambda_p ||p_u||^2 + lambda_q ||q_v||^2

This module provides the loss/RMSE oracles the engines are validated
against, and the SGD-vs-GD convergence study of Section 3.2 ("SGD
converges in about 40x fewer iterations than GD").
"""

from __future__ import annotations

import numpy as np

from ..graph import RatingsMatrix


def predictions(ratings: RatingsMatrix, p_factors: np.ndarray,
                q_factors: np.ndarray) -> np.ndarray:
    """Model scores for every observed (user, item) pair."""
    return np.einsum("ij,ij->i",
                     p_factors[ratings.users], q_factors[ratings.items])


def rmse(ratings: RatingsMatrix, p_factors: np.ndarray,
         q_factors: np.ndarray) -> float:
    """Root-mean-square error over the observed ratings."""
    residual = ratings.ratings - predictions(ratings, p_factors, q_factors)
    return float(np.sqrt(np.mean(residual ** 2)))


def regularized_loss(ratings: RatingsMatrix, p_factors: np.ndarray,
                     q_factors: np.ndarray, lambda_p: float = 0.05,
                     lambda_q: float = 0.05) -> float:
    """The full equation-(4) objective (per-rating regularization)."""
    residual = ratings.ratings - predictions(ratings, p_factors, q_factors)
    reg = (lambda_p * (p_factors[ratings.users] ** 2).sum(axis=1)
           + lambda_q * (q_factors[ratings.items] ** 2).sum(axis=1))
    return float((residual ** 2 + reg).sum())


def sgd_vs_gd_iterations(ratings: RatingsMatrix, target_rmse: float = None,
                         hidden_dim: int = 16, max_iterations: int = 400,
                         seed: int = 0) -> dict:
    """Iterations each method needs to reach a fixed RMSE target.

    If ``target_rmse`` is omitted, it is set to the RMSE SGD reaches
    after 3 iterations — a fixed, achievable criterion. Returns
    ``{"sgd": n_sgd, "gd": n_gd, "ratio": n_gd / n_sgd}``; the paper's
    ratio on Netflix is ~40x.
    """
    from ..frameworks.native.cf import iterations_to_rmse, rmse_curve

    if target_rmse is None:
        target_rmse = rmse_curve(ratings, 3, hidden_dim=hidden_dim,
                                 method="sgd", gamma0=0.02,
                                 seed=seed)[-1] * 1.001

    n_sgd = iterations_to_rmse(ratings, target_rmse, "sgd",
                               hidden_dim=hidden_dim,
                               max_iterations=max_iterations, seed=seed)
    n_gd = iterations_to_rmse(ratings, target_rmse, "gd",
                              hidden_dim=hidden_dim,
                              max_iterations=max_iterations, seed=seed)
    return {"sgd": n_sgd, "gd": n_gd, "ratio": n_gd / n_sgd,
            "target_rmse": target_rmse}
