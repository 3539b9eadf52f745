"""CF's vectorized kernels are bitwise the plain numpy expressions.

The SGD sweep scatters factor rows through numpy's 1-D ``ufunc.at``
loop, the GD step permutes its errors into a transpose structure
prepared once, and predictions are gathered a cache-sized block at a
time. None of that may move a bit of any factor, so this file keeps the
plain expressions — a 2-D ``np.add.at`` per batch, one ``einsum`` over
every rating, ``errors.T.tocsr()`` every step — as the oracle and
compares bytes.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.algorithms.registry import runner
from repro.cluster import Cluster, paper_cluster
from repro.graph.bipartite import RatingsMatrix
from repro.kernels import kernel, sgd
from repro.kernels.backend import BACKENDS, use_backend

GAMMAS = (0.003, 0.0027)
LAMBDA = 0.05


def ratings_of(num_users, num_items, count, seed=0):
    """``count`` random ratings, each (user, item) pair at most once."""
    rng = np.random.default_rng(seed)
    pairs = rng.choice(num_users * num_items, size=count, replace=False)
    return RatingsMatrix(num_users, num_items, pairs // num_items,
                         pairs % num_items, 1.0 + 4.0 * rng.random(count))


def factors_of(ratings, hidden_dim, seed=1):
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(hidden_dim)
    return (rng.random((ratings.num_users, hidden_dim)) * scale,
            rng.random((ratings.num_items, hidden_dim)) * scale)


def oracle_sgd(users, items, values, p_factors, q_factors, gamma):
    for start in range(0, users.size, 1024):
        u, v, r = (column[start:start + 1024]
                   for column in (users, items, values))
        pu, qv = p_factors[u], q_factors[v]
        err = r - np.einsum("ij,ij->i", pu, qv)
        np.add.at(p_factors, u, gamma * (err[:, None] * qv - LAMBDA * pu))
        np.add.at(q_factors, v, gamma * (err[:, None] * pu - LAMBDA * qv))


def oracle_gd(ratings, p_factors, q_factors, gamma):
    csr = sparse.csr_matrix((ratings.ratings, (ratings.users, ratings.items)),
                            shape=(ratings.num_users, ratings.num_items))
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    errors = csr.copy()
    errors.data = csr.data - np.einsum("ij,ij->i", p_factors[rows],
                                       q_factors[csr.indices])
    user_degrees = ratings.user_degrees().astype(np.float64)
    item_degrees = ratings.item_degrees().astype(np.float64)
    grad_p = errors @ q_factors - LAMBDA * user_degrees[:, None] * p_factors
    grad_q = errors.T.tocsr() @ p_factors \
        - LAMBDA * item_degrees[:, None] * q_factors
    p_factors += gamma * grad_p
    q_factors += gamma * grad_q


def oracle_rmse(ratings, p_factors, q_factors) -> float:
    predicted = np.einsum("ij,ij->i", p_factors[ratings.users],
                          q_factors[ratings.items])
    return float(np.sqrt(np.mean((ratings.ratings - predicted) ** 2)))


def assert_same_bytes(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


# (users, items, ratings, K): every batch repeats rows many times; three
# batches with a partial last one; K = 1.
CASES = [(40, 7, 250, 6), (3000, 50, 2600, 64), (5, 3, 15, 1)]


@pytest.mark.parametrize("num_users, num_items, count, hidden_dim", CASES)
def test_sgd_sweep_is_the_row_scatter(num_users, num_items, count,
                                      hidden_dim):
    ratings = ratings_of(num_users, num_items, count)
    fast = factors_of(ratings, hidden_dim)
    slow = tuple(factor.copy() for factor in fast)
    step = kernel("collaborative_filtering", "blocked-sgd")().prepare(ratings)
    columns = (ratings.users, ratings.items, ratings.ratings)
    with use_backend("vectorized"):
        for gamma in GAMMAS:
            step.step(*columns, *fast, gamma, LAMBDA, LAMBDA)
            oracle_sgd(*columns, *slow, gamma)
    assert_same_bytes(fast, slow)


@pytest.mark.parametrize("num_users, num_items, count, hidden_dim", CASES)
def test_gd_step_is_the_per_step_transpose(num_users, num_items, count,
                                           hidden_dim):
    # Sparse enough that some users and items have no rating at all.
    ratings = ratings_of(num_users + 3, num_items + 2, count)
    fast = factors_of(ratings, hidden_dim)
    slow = tuple(factor.copy() for factor in fast)
    step = kernel("collaborative_filtering", "blocked-gd")().prepare(ratings)
    with use_backend("vectorized"):
        for gamma in GAMMAS:
            step.step(*fast, gamma, LAMBDA, LAMBDA)
            oracle_gd(ratings, *slow, gamma)
    assert_same_bytes(fast, slow)


def test_transpose_positions_is_the_transpose():
    ratings = ratings_of(30, 9, 120)
    csr = sparse.csr_matrix((ratings.ratings, (ratings.users, ratings.items)),
                            shape=(30, 9))
    transpose, positions = csr.T.tocsr(), sgd.transpose_positions(csr)
    assert np.array_equal(positions.indptr, transpose.indptr)
    assert np.array_equal(positions.indices, transpose.indices)
    assert csr.data[positions.data].tobytes() == transpose.data.tobytes()


@pytest.mark.parametrize("hidden_dim", [64, 3])
def test_chunked_predictions_are_one_einsum(hidden_dim):
    block = sgd._GATHER_BYTES // (8 * hidden_dim)
    ratings = ratings_of(4 * block, 40, 3 * block + 1)
    p_factors, q_factors = factors_of(ratings, hidden_dim)
    for size in (1, block - 1, block, block + 1, 3 * block + 1):
        users, items = ratings.users[:size], ratings.items[:size]
        got = sgd._predict(p_factors, q_factors, users, items)
        want = np.einsum("ij,ij->i", p_factors[users], q_factors[items])
        assert got.tobytes() == want.tobytes(), size
    with use_backend("vectorized"):
        assert sgd.training_rmse(ratings, p_factors, q_factors) \
            == oracle_rmse(ratings, p_factors, q_factors)


def test_scatter_refuses_a_copying_reshape():
    """A view with no flat form would be updated through a copy: refused."""
    factors = np.zeros((4, 6))
    with pytest.raises(ValueError):
        sgd._scatter_add(factors[:, :3], np.array([1, 1]), np.ones((2, 3)))
    assert not factors.any()


@pytest.mark.parametrize("framework", ["native", "combblas"])
def test_no_ratings_is_rmse_zero_on_both_backends(framework):
    """An empty ratings matrix trains to RMSE 0 under either backend (the
    vectorized mean of no errors was nan, reported as a divergence)."""
    empty = RatingsMatrix(4, 3, [], [], [])
    answers = []
    for backend in BACKENDS:
        with use_backend(backend):
            result = runner("collaborative_filtering", framework)(
                empty, Cluster(paper_cluster(1), enforce_memory=False),
                hidden_dim=2, iterations=2)
        assert result.extras["rmse_curve"] == [0.0, 0.0], backend
        answers.append(result.values)
    assert_same_bytes(*answers)
