"""Blocked SGD / GD factor-update kernels for collaborative filtering.

The numeric core of collaborative filtering: equations (5)-(8) as
mini-batch SGD sweeps and equations (11)-(12) as full gradient-descent
steps. Their one caller is the CF round program
(:class:`repro.frameworks.rounds.CollaborativeFiltering`), which every
framework runs.

The interpreted backend processes the same mini-batches rating by
rating with scalar loops. It preserves the vectorized accumulation
order for the gather/scatter structure, but per-rating K-vector dot
products round differently at the last ulp than ``einsum``, so CF
factors agree to ~1e-12 rather than bit-for-bit; counted work depends
only on rating counts and degrees, which is why simulated metrics stay
byte-identical anyway.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConvergenceError
from .backend import interpreted
from .base import Kernel, KernelWork

_SGD_BATCH = 1024


def training_rmse(ratings, p_factors, q_factors) -> float:
    """RMSE over the observed ratings; inf when training has diverged."""
    if interpreted():
        total = 0.0
        users = ratings.users.tolist()
        items = ratings.items.tolist()
        values = ratings.ratings.tolist()
        for i in range(len(values)):
            predicted = float(np.dot(p_factors[users[i]],
                                     q_factors[items[i]]))
            error = values[i] - predicted
            total += error * error
        return float(np.sqrt(total / max(len(values), 1)))
    with np.errstate(over="ignore", invalid="ignore"):
        predicted = np.einsum(
            "ij,ij->i", p_factors[ratings.users], q_factors[ratings.items]
        )
        return float(np.sqrt(np.mean((ratings.ratings - predicted) ** 2)))


def sgd_sweep(users, items, values, p_factors, q_factors, gamma,
              lambda_p, lambda_q, batch=_SGD_BATCH):
    """One pass over the given ratings in order, mini-batch vectorized.

    Implements equations (5)-(8): e = R - p.q; p += gamma(e q - lp p);
    q += gamma(e p - lq q), with both updates applied per rating.
    Within a batch, reads see the factors from before the batch (a
    Hogwild-style staleness both backends share).
    """
    if interpreted():
        _sgd_sweep_interpreted(users, items, values, p_factors, q_factors,
                               gamma, lambda_p, lambda_q, batch)
        return
    for start in range(0, users.size, batch):
        u = users[start:start + batch]
        v = items[start:start + batch]
        r = values[start:start + batch]
        pu = p_factors[u]
        qv = q_factors[v]
        err = r - np.einsum("ij,ij->i", pu, qv)
        dp = gamma * (err[:, None] * qv - lambda_p * pu)
        dq = gamma * (err[:, None] * pu - lambda_q * qv)
        np.add.at(p_factors, u, dp)
        np.add.at(q_factors, v, dq)


def _sgd_sweep_interpreted(users, items, values, p_factors, q_factors,
                           gamma, lambda_p, lambda_q, batch):
    """Rating-at-a-time oracle with the same per-batch staleness."""
    for start in range(0, users.size, batch):
        u = users[start:start + batch]
        v = items[start:start + batch]
        r = values[start:start + batch]
        pu = p_factors[u].copy()
        qv = q_factors[v].copy()
        for i in range(u.size):
            err = float(r[i]) - float(np.dot(pu[i], qv[i]))
            dp = gamma * (err * qv[i] - lambda_p * pu[i])
            dq = gamma * (err * pu[i] - lambda_q * qv[i])
            p_factors[u[i]] += dp
            q_factors[v[i]] += dq


def gd_step(ratings_csr, ratings_csr_t, user_degrees, item_degrees,
            p_factors, q_factors, gamma, lambda_p, lambda_q):
    """One full Gradient Descent step (equations 11-12), simultaneous."""
    if interpreted():
        _gd_step_interpreted(ratings_csr, user_degrees, item_degrees,
                             p_factors, q_factors, gamma, lambda_p, lambda_q)
        return
    errors = ratings_csr.copy()
    predicted = np.einsum(
        "ij,ij->i",
        p_factors[_row_index(ratings_csr)], q_factors[ratings_csr.indices]
    )
    errors.data = ratings_csr.data - predicted
    grad_p = errors @ q_factors - lambda_p * user_degrees[:, None] * p_factors
    errors_t = errors.T.tocsr()
    grad_q = errors_t @ p_factors - lambda_q * item_degrees[:, None] * q_factors
    p_factors += gamma * grad_p
    q_factors += gamma * grad_q


def _gd_step_interpreted(ratings_csr, user_degrees, item_degrees,
                         p_factors, q_factors, gamma, lambda_p, lambda_q):
    """Rating-at-a-time gradient accumulation in CSR order."""
    indptr = ratings_csr.indptr.tolist()
    indices = ratings_csr.indices.tolist()
    data = ratings_csr.data.tolist()
    grad_p = np.zeros_like(p_factors)
    grad_q = np.zeros_like(q_factors)
    for u in range(ratings_csr.shape[0]):
        for e in range(indptr[u], indptr[u + 1]):
            v = indices[e]
            error = data[e] - float(np.dot(p_factors[u], q_factors[v]))
            grad_p[u] += error * q_factors[v]
            grad_q[v] += error * p_factors[u]
    grad_p -= lambda_p * user_degrees[:, None] * p_factors
    grad_q -= lambda_q * item_degrees[:, None] * q_factors
    p_factors += gamma * grad_p
    q_factors += gamma * grad_q


def _row_index(csr_matrix) -> np.ndarray:
    return np.repeat(np.arange(csr_matrix.shape[0]), np.diff(csr_matrix.indptr))


class _CFKernel(Kernel):
    algorithm = "collaborative_filtering"

    def rmse(self, p_factors, q_factors) -> float:
        """Training RMSE; the CF program calls this once an iteration."""
        value = training_rmse(self.ratings, p_factors, q_factors)
        if not math.isfinite(value):
            raise ConvergenceError(
                f"{self.direction} diverged (training RMSE {value}): "
                "lower gamma0")
        return value


class CFBlockedGD(_CFKernel):
    """Full-gradient CF updates over a prepared ratings matrix."""

    direction = "blocked-gd"

    def prepare(self, ratings):
        from scipy import sparse

        self.ratings = ratings
        self.csr = sparse.csr_matrix(
            (ratings.ratings, (ratings.users, ratings.items)),
            shape=(ratings.num_users, ratings.num_items),
        )
        self.csr_t = self.csr.T.tocsr()
        self.user_degrees = ratings.user_degrees().astype(np.float64)
        self.item_degrees = ratings.item_degrees().astype(np.float64)
        return self

    def step(self, p_factors, q_factors, gamma, lambda_p, lambda_q):
        gd_step(self.csr, self.csr_t, self.user_degrees, self.item_degrees,
                p_factors, q_factors, gamma, lambda_p, lambda_q)
        work = KernelWork(edges=float(self.ratings.num_ratings),
                          vertices=float(self.ratings.num_users
                                         + self.ratings.num_items))
        return (p_factors, q_factors), work


class CFBlockedSGD(_CFKernel):
    """Mini-batch SGD sweeps (the Gemulla diagonal-block inner loop)."""

    direction = "blocked-sgd"

    def __init__(self, batch: int = _SGD_BATCH):
        self.batch = batch

    def prepare(self, ratings):
        self.ratings = ratings
        return self

    def step(self, users, items, values, p_factors, q_factors, gamma,
             lambda_p, lambda_q):
        sgd_sweep(users, items, values, p_factors, q_factors, gamma,
                  lambda_p, lambda_q, batch=self.batch)
        work = KernelWork(edges=float(users.size))
        return (p_factors, q_factors), work
