"""Blocked SGD / GD factor-update kernels for collaborative filtering.

The numeric core of collaborative filtering: equations (5)-(8) as
mini-batch SGD sweeps and equations (11)-(12) as full gradient-descent
steps. Their one caller is the CF round program
(:class:`repro.frameworks.rounds.CollaborativeFiltering`), which every
framework runs.

The vectorized backend keeps its inner loops on numpy's fast paths
(flat row scatters, a GD transpose prepared once, predictions in
cache-sized blocks) without moving a bit of any factor;
``tests/test_cf_kernels.py`` holds the plain expressions as the oracle.

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
from scipy import sparse

from ..errors import ConvergenceError
from .backend import interpreted
from .base import Kernel, KernelWork

_SGD_BATCH = 1024
#: Bytes of each factor gather in a prediction pass: both gathers of a
#: block stay in a core's L2 cache, where gathering every rating at once
#: streams two ratings x K arrays through memory.
_GATHER_BYTES = 256 * 1024


def _predict(p_factors, q_factors, rows, cols) -> np.ndarray:
    """``p_factors[rows[i]] . q_factors[cols[i]]`` for every i.

    Gathered ``_GATHER_BYTES`` of factor rows at a time; a row's dot
    product does not depend on the block it is in, so the result is
    bitwise one ``einsum`` over all the ratings.
    """
    out = np.empty(rows.size)
    block = max(1, _GATHER_BYTES // (p_factors.shape[1]
                                     * p_factors.itemsize))
    for start in range(0, rows.size, block):
        stop = start + block
        np.einsum("ij,ij->i", p_factors[rows[start:stop]],
                  q_factors[cols[start:stop]], out=out[start:stop])
    return out


def _scatter_add(factors, rows, deltas) -> None:
    """``np.add.at(factors, rows, deltas)`` through the 1-D loop.

    numpy's ``ufunc.at`` has a fast loop only for a 1-D operand and
    index; a row index into a 2-D array takes the generic one, several
    times slower. The flat element index visits each element's addends
    in the same order, so every sum is bitwise the 2-D form's.
    ``factors`` must have a flat C-order view (a copying reshape would
    drop the updates, so it raises ``ValueError`` instead).
    """
    width = factors.shape[1]
    flat = (rows * width)[:, None] + np.arange(width)
    np.add.at(np.reshape(factors, -1, copy=False), flat.reshape(-1),
              deltas.reshape(-1))


def training_rmse(ratings, p_factors, q_factors) -> float:
    """RMSE over the observed ratings; inf when training has diverged.

    No ratings is an RMSE of 0, as the interpreted loop computes it.
    """
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
    if not ratings.num_ratings:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        predicted = _predict(p_factors, q_factors, ratings.users,
                             ratings.items)
        return float(np.sqrt(np.mean((ratings.ratings - predicted) ** 2)))


def sgd_sweep(users, items, values, p_factors, q_factors, gamma,
              lambda_p, lambda_q):
    """One pass over the given ratings in order, mini-batch vectorized.

    Implements equations (5)-(8): e = R - p.q; p += gamma(e q - lp p);
    q += gamma(e p - lq q), with both updates applied per rating.
    Within a batch, reads see the factors from before the batch (a
    Hogwild-style staleness both backends share).
    """
    if interpreted():
        _sgd_sweep_interpreted(users, items, values, p_factors, q_factors,
                               gamma, lambda_p, lambda_q)
        return
    for start in range(0, users.size, _SGD_BATCH):
        u = users[start:start + _SGD_BATCH]
        v = items[start:start + _SGD_BATCH]
        r = values[start:start + _SGD_BATCH]
        pu = p_factors[u]
        qv = q_factors[v]
        err = r - np.einsum("ij,ij->i", pu, qv)
        dp = gamma * (err[:, None] * qv - lambda_p * pu)
        dq = gamma * (err[:, None] * pu - lambda_q * qv)
        _scatter_add(p_factors, u, dp)
        _scatter_add(q_factors, v, dq)


def _sgd_sweep_interpreted(users, items, values, p_factors, q_factors,
                           gamma, lambda_p, lambda_q):
    """Rating-at-a-time oracle with the same per-batch staleness."""
    for start in range(0, users.size, _SGD_BATCH):
        u = users[start:start + _SGD_BATCH]
        v = items[start:start + _SGD_BATCH]
        r = values[start:start + _SGD_BATCH]
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
    """One full Gradient Descent step (equations 11-12), simultaneous.

    ``ratings_csr_t`` is :func:`transpose_positions` of ``ratings_csr``.
    """
    if interpreted():
        _gd_step_interpreted(ratings_csr, user_degrees, item_degrees,
                             p_factors, q_factors, gamma, lambda_p, lambda_q)
        return
    errors = ratings_csr.data - _predict(
        p_factors, q_factors, _row_index(ratings_csr), ratings_csr.indices)
    grad_p = _with_data(ratings_csr, errors) @ q_factors \
        - lambda_p * user_degrees[:, None] * p_factors
    grad_q = _with_data(ratings_csr_t, errors[ratings_csr_t.data]) \
        @ p_factors - lambda_q * item_degrees[:, None] * q_factors
    p_factors += gamma * grad_p
    q_factors += gamma * grad_q


def transpose_positions(ratings_csr):
    """The transpose of ``ratings_csr``, valued by position in it.

    Entry ``(v, u)`` holds the index of ``(u, v)`` in ``ratings_csr.data``.
    A GD step's errors share ``ratings_csr``'s structure, so their
    transpose is this structure over ``errors[positions]``: one gather a
    step in place of a CSR -> CSC conversion, and the same matrix.
    """
    return _with_data(ratings_csr, np.arange(ratings_csr.nnz)).T.tocsr()


def _with_data(structure, data):
    """A CSR matrix with ``structure``'s sparsity and ``data`` as values."""
    return sparse.csr_matrix((data, structure.indices, structure.indptr),
                             shape=structure.shape)


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
        self.ratings = ratings
        self.csr = sparse.csr_matrix(
            (ratings.ratings, (ratings.users, ratings.items)),
            shape=(ratings.num_users, ratings.num_items),
        )
        self.csr_t = transpose_positions(self.csr)
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

    def prepare(self, ratings):
        self.ratings = ratings
        return self

    def step(self, users, items, values, p_factors, q_factors, gamma,
             lambda_p, lambda_q):
        sgd_sweep(users, items, values, p_factors, q_factors, gamma,
                  lambda_p, lambda_q)
        work = KernelWork(edges=float(users.size))
        return (p_factors, q_factors), work
