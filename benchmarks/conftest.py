"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures
exactly once (``rounds=1``): the interesting output is the regenerated
artifact printed to stdout (run with ``-s`` to see it) and the asserted
paper-shape invariants, with pytest-benchmark recording how long the
regeneration takes.
"""

import pytest


def json_equal(left, right) -> bool:
    """Whether two regenerated artifacts are the same once serialized.

    Table rows hold ``nan`` where nothing ran (the geomean of an
    all-``unsupported`` SociaLite row) and ``nan != nan``, so identical
    regenerations compare unequal as Python objects; their JSON-safe
    forms map every non-finite float to ``null``.
    """
    from repro.harness.persistence import _jsonable

    return _jsonable(left) == _jsonable(right)


@pytest.fixture
def regenerate(benchmark, capsys):
    """Run a regenerator once under pytest-benchmark and return its value."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return _run


@pytest.fixture
def regenerate_resilient(regenerate, tmp_path):
    """Like ``regenerate``, but through a journaled resilient sweep.

    The producer must accept ``sweep=`` (table5/table6, figure3-5). The
    fixture journals every cell, checks the completeness accounting,
    then resumes from the journal and asserts the replayed regeneration
    recomputes nothing and reproduces identical data — the durability
    contract every benchmarked sweep now ships with.
    """
    from repro.harness.sweep import Sweep

    def _run(fn, *args, **kwargs):
        journal = tmp_path / f"{fn.__name__}.jsonl"
        engine = Sweep(fn.__name__, journal=journal)
        data = regenerate(fn, *args, sweep=engine, **kwargs)
        report = engine.last.completeness()
        assert report["cells"] == report["executed"]
        assert not report["quarantined"]

        resumed = Sweep(fn.__name__, journal=journal, resume=True)
        replay = fn(*args, sweep=resumed, **kwargs)
        assert resumed.last.executed == 0
        assert resumed.last.replayed == report["cells"]
        assert json_equal(replay, data)
        return data

    return _run
