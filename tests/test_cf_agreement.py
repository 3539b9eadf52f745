"""Collaborative filtering is one program: every framework's answer agrees.

The paper runs the same factorization on every framework — Gemulla's
diagonal-block SGD on native code and Galois, K-vector gradient descent
everywhere else (Section 3.2) — and the frameworks differ only in what
an iteration costs. So with a common ``gamma0`` and ``seed`` every GD
runner must return native GD's factors and RMSE curve bit for bit at any
node count, Galois must return native SGD's one-node answer, native SGD
must be the literal n x n block schedule, and the interpreted kernel
backend must agree with the vectorized one to rounding.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.registry import runner
from repro.cluster import Cluster, paper_cluster
from repro.datagen import netflix_like_ratings
from repro.kernels import registry as kernel_registry
from repro.kernels.backend import use_backend

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
NODES = (1, 2, 4)
GD_FRAMEWORKS = ("combblas", "kdt", "socialite", "socialite-published",
                 "giraph", "graphlab", "gps", "graphx")
PARAMS = {"hidden_dim": 6, "iterations": 3, "gamma0": 0.002, "seed": 11}


@pytest.fixture(scope="module")
def ratings():
    return netflix_like_ratings(scale=8, num_items=32, seed=41)


def factorize(framework, ratings, nodes=1, **params):
    cluster = Cluster(paper_cluster(nodes), enforce_memory=False)
    return runner("collaborative_filtering", framework)(
        ratings, cluster, **{**PARAMS, **params})


def answer(result) -> list:
    p_factors, q_factors = result.values
    return [p_factors, q_factors, np.array(result.extras["rmse_curve"])]


def assert_bitwise(result, expected) -> None:
    for got, want in zip(answer(result), answer(expected)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("nodes", NODES)
def test_every_gd_runner_returns_native_gd(ratings, nodes):
    native = factorize("native", ratings, nodes, method="gd")
    assert native.extras["method"] == "gd"
    for framework in GD_FRAMEWORKS:
        result = factorize(framework, ratings, nodes)
        assert result.extras["method"] == "gd", framework
        assert_bitwise(result, native)


def test_galois_is_native_sgd_on_one_node(ratings):
    native = factorize("native", ratings, method="sgd")
    galois = factorize("galois", ratings)
    assert galois.extras["method"] == "sgd"
    assert_bitwise(galois, native)


def schedule_oracle(ratings, nodes, hidden_dim, iterations, gamma0, seed,
                    step_decay=0.95, lambda_reg=0.05):
    """Native SGD as first written: n^2 boolean block masks per sub-step."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(hidden_dim)
    p_factors = rng.random((ratings.num_users, hidden_dim)) * scale
    q_factors = rng.random((ratings.num_items, hidden_dim)) * scale
    user_chunk = np.minimum(ratings.users * nodes // ratings.num_users,
                            nodes - 1)
    item_chunk = np.minimum(ratings.items * nodes // ratings.num_items,
                            nodes - 1)
    kernel = kernel_registry.kernel("collaborative_filtering",
                                    "blocked-sgd")().prepare(ratings)
    order = rng.permutation(ratings.num_ratings)
    columns = (ratings.users[order], ratings.items[order],
               ratings.ratings[order])
    block_of = user_chunk[order] * nodes + item_chunk[order]
    curve, gamma = [], gamma0
    for _iteration in range(iterations):
        for sub in range(nodes):
            for node in range(nodes):
                mask = block_of == node * nodes + (node + sub) % nodes
                if mask.any():
                    kernel.step(*(column[mask] for column in columns),
                                p_factors, q_factors, gamma, lambda_reg,
                                lambda_reg)
        gamma *= step_decay
        curve.append(kernel.rmse(p_factors, q_factors))
    return [p_factors, q_factors, np.array(curve)]


@pytest.mark.parametrize("nodes", NODES)
def test_native_sgd_is_the_block_schedule(ratings, nodes):
    result = factorize("native", ratings, nodes, method="sgd")
    expected = schedule_oracle(ratings, nodes, **PARAMS)
    for got, want in zip(answer(result), expected):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("framework, nodes, params", [
    ("native", 1, {"method": "gd"}),
    ("native", 4, {"method": "sgd"}),
    ("galois", 1, {}),
    ("combblas", 2, {}),
    ("giraph", 2, {}),
    ("graphlab", 4, {}),
])
def test_interpreted_backend_agrees(ratings, framework, nodes, params):
    with use_backend("vectorized"):
        fast = factorize(framework, ratings, nodes, **params)
    with use_backend("interpreted"):
        slow = factorize(framework, ratings, nodes, **params)
    assert slow.metrics.total_time_s == fast.metrics.total_time_s
    for got, want in zip(answer(slow), answer(fast)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# Keep the per-framework CF drivers from coming back (mirrored in the CI
# lint job).
# ---------------------------------------------------------------------------

CF_KERNEL_LOOKUP = re.compile(r"blocked-|kernel\(\s*[\"']collaborative")
DENSITY_CALL = re.compile(r"\bcf_density_correction\(")


def sites(pattern) -> list:
    return [f"{path.relative_to(SRC).as_posix()}:{number}"
            for path in sorted((SRC / "frameworks").rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line) and not line.startswith("def ")]


def test_cf_is_defined_once():
    """One CF kernel lookup and one density correction, both in the
    round program; Galois runs it on its own cluster, no shadow one."""
    lookups, corrections = sites(CF_KERNEL_LOOKUP), sites(DENSITY_CALL)
    assert len(lookups) == 1 and lookups[0].startswith("frameworks/rounds.py:")
    assert len(corrections) == 1 \
        and corrections[0].startswith("frameworks/rounds.py:")
    galois = (SRC / "frameworks" / "task" / "galois.py").read_text()
    assert not re.search(r"\bCluster\(", galois)
