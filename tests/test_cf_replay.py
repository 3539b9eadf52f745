"""A CF run is recorded on its ratings matrix once, then replayed.

Collaborative filtering is one program on every framework (Section
3.2), so its run depends only on (ratings, params, kernel backend). The
first run that completes on a resident ``RatingsMatrix`` is recorded on
it (``graph.csr.derived``): the factors, the RMSE curve and the sweep
count. Every later run of the same key replays the record, building
only the block layout the engines charge from. These tests hold the
replay to the live run on every CF engine family: same factors,
iterations, extras, ``RunMetrics`` and traced spans. A run that
diverges or is cut by a deadline records nothing, each record is at
most the ratings' own bytes and is counted by ``resident_nbytes``, and
a second matrix with equal arrays runs live.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.algorithms.registry import runner
from repro.cluster import Cluster, paper_cluster
from repro.datagen import netflix_like_ratings
from repro.errors import ConvergenceError, DeadlineExceeded
from repro.frameworks import rounds
from repro.graph import RatingsMatrix, bipartite_graph
from repro.kernels import BACKENDS, active_backend, sgd, use_backend
from repro.observability import Tracer

PARAMS = {"hidden_dim": 6, "iterations": 3, "gamma0": 0.002, "seed": 11}
GD_FRAMEWORKS = ("graphlab", "giraph", "combblas", "socialite")
#: (framework, nodes, params): every CF engine family, SGD and GD.
CASES = [*((framework, nodes, {}) for framework in GD_FRAMEWORKS
           for nodes in (1, 4)),
         *(("native", nodes, {"method": method}) for method in ("sgd", "gd")
           for nodes in (1, 4)),
         ("galois", 1, {})]
IDS = [f"{framework}-{nodes}-{params.get('method', '')}".rstrip("-")
       for framework, nodes, params in CASES]


@pytest.fixture(scope="module")
def built():
    return netflix_like_ratings(scale=8, num_items=32, seed=41)


def fresh(ratings) -> RatingsMatrix:
    """The same ratings as a new object: nothing recorded, no view."""
    return RatingsMatrix(ratings.num_users, ratings.num_items,
                         ratings.users, ratings.items, ratings.ratings)


def records(ratings) -> dict:
    return {key: value for key, value in ratings._derived.items()
            if key[0] == "trajectory"}


def nbytes(record) -> int:
    return sum(field.nbytes for field in vars(record).values()
               if isinstance(field, np.ndarray))


def method_of(framework, params) -> str:
    return params.get("method", "sgd" if framework == "galois" else "gd")


def run_on(ratings, framework, nodes, deadline_s=None, **params):
    tracer = Tracer()
    cluster = Cluster(paper_cluster(nodes), enforce_memory=False,
                      tracer=tracer, deadline_s=deadline_s)
    result = runner("collaborative_filtering", framework)(
        ratings, cluster, **{**PARAMS, **params})
    return result, tracer


def record_on(ratings, framework, nodes, params):
    """Record the case's run with native code, the one framework that
    runs both methods: a replay must serve every engine of its key."""
    run_on(ratings, "native", nodes, method=method_of(framework, params))


def plain(value):
    """Arrays, dataclasses and containers as comparable Python values."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if dataclasses.is_dataclass(value):
        return {name: plain(field) for name, field in vars(value).items()}
    if isinstance(value, dict):
        return {name: plain(field) for name, field in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(field) for field in value]
    return value


def spans(tracer) -> list:
    return [[span.name, span.depth, span.node, span.start_s, span.end_s,
             span.attrs] for span in tracer.spans]


def counters(tracer) -> dict:
    # peak-rss is the host's memory, not the simulated machine's.
    return {name: total for name, total in tracer.counters.items()
            if name != "peak-rss"}


def assert_same_run(one, other) -> None:
    (first, first_trace), (second, second_trace) = one, other
    for got, want in zip(first.values, second.values):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got.flags.writeable and want.flags.writeable
    assert first.iterations == second.iterations
    assert plain(first.extras) == plain(second.extras)
    assert list(first.extras) == list(second.extras)
    for result in (first, second):
        curve = result.extras["rmse_curve"]
        assert type(curve) is list
        assert all(type(value) is float for value in curve)
    assert plain(first.metrics) == plain(second.metrics)
    assert spans(first_trace) == spans(second_trace)
    assert counters(first_trace) == counters(second_trace)


def forbid_live_runs(monkeypatch) -> None:
    """A replay builds no program: no kernel, no factor draw, no
    schedule sort."""
    def forbidden(*_args, **_kwargs):
        raise AssertionError("a replay ran the CF program")

    monkeypatch.setattr(rounds.CollaborativeFiltering, "__init__", forbidden)
    monkeypatch.setattr(rounds, "_kernel", forbidden)
    monkeypatch.setattr(rounds, "stable_order", forbidden)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("framework, nodes, params", CASES, ids=IDS)
def test_a_replay_is_the_live_run(framework, nodes, params, backend, built,
                                  monkeypatch):
    with use_backend(backend):
        resident = fresh(built)
        record_on(resident, framework, nodes, params)
        (key, record), = records(resident).items()
        assert key[:2] == ("trajectory", "collaborative_filtering")
        assert key[-1] == backend
        live = run_on(fresh(built), framework, nodes, **params)
        with monkeypatch.context() as patched:
            forbid_live_runs(patched)
            replayed = run_on(resident, framework, nodes, **params)
    assert_same_run(live, replayed)
    assert records(resident) == {key: record}


def test_the_four_gd_frameworks_run_gd_once(built, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return step(*args)

    step = sgd.gd_step
    monkeypatch.setattr(sgd, "gd_step", counted)
    ratings = fresh(built)
    for framework in GD_FRAMEWORKS:
        run_on(ratings, framework, 4)
    assert len(calls) == PARAMS["iterations"]
    assert len(records(ratings)) == 1


def test_each_method_and_grid_keeps_its_own_record(built):
    """SGD and GD, or one grid and another, are different runs."""
    ratings = fresh(built)
    runs = [("native", 1, "sgd"), ("native", 1, "gd"), ("native", 4, "gd"),
            ("native", 4, "sgd")]
    for framework, nodes, method in runs:
        run_on(ratings, framework, nodes, method=method)
    assert len(records(ratings)) == len(runs)
    for framework, nodes, method in runs:
        assert_same_run(run_on(fresh(built), framework, nodes, method=method),
                        run_on(ratings, framework, nodes, method=method))


@pytest.mark.parametrize("framework, nodes, params", CASES, ids=IDS)
def test_a_deadline_leaves_no_record_and_the_replay_stops_at_its_row(
        framework, nodes, params, built):
    whole, _ = run_on(fresh(built), framework, nodes, **params)
    deadline = whole.metrics.total_time_s / 2
    ratings = fresh(built)
    with pytest.raises(DeadlineExceeded) as live:
        run_on(ratings, framework, nodes, deadline, **params)
    assert not records(ratings)
    record_on(ratings, framework, nodes, params)
    with pytest.raises(DeadlineExceeded) as replayed:
        run_on(ratings, framework, nodes, deadline, **params)
    assert (live.value.what, live.value.elapsed_s) == \
        (replayed.value.what, replayed.value.elapsed_s)


@pytest.mark.parametrize("framework", ["native", "galois", "graphlab"])
def test_a_diverging_run_leaves_no_record(framework, built):
    ratings = fresh(built)
    with np.errstate(all="ignore"):
        for _attempt in range(2):
            with pytest.raises(ConvergenceError):
                run_on(ratings, framework, 1, gamma0=5.0, iterations=12)
            assert not records(ratings)


def test_resident_nbytes_counts_the_view_and_each_record(built):
    ratings = fresh(built)
    alone = ratings.resident_nbytes()
    first, second = BACKENDS
    with use_backend(first):
        run_on(ratings, "graphlab", 4)
    view = bipartite_graph(ratings)
    assert bipartite_graph(ratings) is view
    (first_record,) = records(ratings).values()
    held, before = set(ratings._derived), ratings.resident_nbytes()
    assert before == alone + view.resident_nbytes() + nbytes(first_record)
    with use_backend(second):
        run_on(ratings, "graphlab", 4)
    (key, record), = ((key, value) for key, value in ratings._derived.items()
                      if key not in held)
    assert key[-1] == second
    assert ratings.resident_nbytes() == before + nbytes(record)
    for record in records(ratings).values():
        assert nbytes(record) <= ratings.nbytes()
    again = pickle.loads(pickle.dumps(ratings))
    assert not again._derived and again._bipartite is None


def test_a_record_larger_than_the_ratings_is_not_kept(built):
    # Wide factors: P and Q outweigh the ratings' own three columns.
    ratings = fresh(built)
    wide = {"hidden_dim": 64}
    first = run_on(ratings, "native", 1, **wide)
    assert nbytes(rounds.CollaborativeFiltering(
        ratings, **PARAMS | wide).record()) > ratings.nbytes()
    assert not records(ratings)
    assert_same_run(first, run_on(ratings, "native", 1, **wide))


def test_equal_ratings_in_another_object_run_live(built, monkeypatch):
    resident = fresh(built)
    run_on(resident, "giraph", 4)
    assert records(resident)
    calls = []

    def counted(*args):
        calls.append(1)
        return step(*args)

    step = sgd.gd_step
    monkeypatch.setattr(sgd, "gd_step", counted)
    other = fresh(built)
    assert_same_run(run_on(resident, "giraph", 4), run_on(other, "giraph", 4))
    assert len(calls) == PARAMS["iterations"]
    assert records(other).keys() == records(resident).keys()
    assert active_backend() in next(iter(records(other)))
