"""One request grammar: ``repro`` and ``repro serve`` refuse alike.

A cell (``ExperimentSpec``), a sweep (``SweepRequest``) and a perf
analysis (``AnalysisRequest``) are each declared once and checked in
their constructor; the CLI builds its flags from the declarations and
the daemon maps the constructor's ``SpecError`` to a 400.

* ``TestProbes`` — inputs that used to end in a traceback, a dropped
  connection, a silently journaled bad value or a quarantined sweep:
  each is now one ``error:`` line and exit 1, or a 400 ``bad-request``.
* ``TestParity`` — the same request through ``main([...])`` and through
  the HTTP parsers: both accept (and build equal values) or both refuse
  with the same message.
* ``TestBoundaryFuzz`` — every field of the three request bodies,
  varied: a parser returns or raises a 400, never anything else.
"""

import json
import math
import socket

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cli import main
from repro.serve.api import (
    ApiError,
    parse_experiment_request,
    parse_perf_request,
    parse_sweep_request,
)

SPEC = {"algorithm": "bfs", "framework": "native", "dataset": "rmat_mini"}


def _refused(parse, body) -> str:
    with pytest.raises(ApiError) as refusal:
        parse(body)
    assert (refusal.value.status, refusal.value.code) == (400, "bad-request")
    return str(refusal.value)


def _cli_error(argv, capsys) -> str:
    """``main(argv)`` must exit 1 with exactly one ``error:`` line."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    return captured.err[len("error: "):-1]


class TestProbes:
    @pytest.mark.parametrize("field, value", [
        ("scale_factor", "x"), ("faults", 5), ("nodes", True),
        ("fault_seed", "x"), ("fault_seed", -1), ("recovery", 1),
        ("params", {"source": "x"}), ("params", []),
        ("scale_factor", math.nan), ("scale_factor", math.inf),
        ("deadline_s", "soon"),
    ])
    def test_a_bad_spec_field_is_a_400(self, field, value):
        message = _refused(parse_experiment_request,
                           {"spec": {**SPEC, field: value}})
        assert message.startswith(field)

    @pytest.mark.parametrize("gate", [
        {"algorithm": "bfs", "framework": "native", "nodes": True},
        {"algorithm": "bfs", "framework": "native", "node": 4},
        {"algorithm": 5, "framework": "native"},
        {"framework": "native"},
        "bfs",
    ])
    def test_a_bad_gate_cell_is_a_400(self, gate):
        _refused(parse_experiment_request, {"gate": gate})

    @pytest.mark.parametrize("body", [
        {"target": "table5", "algorithms": ["nosuch"]},
        {"target": "table5", "frameworks": ["nosuch"]},
        {"target": "table5", "sim_deadline_s": -1},
        {"target": "table5", "max_retries": True},
        {"target": "table5", "bogus": 1},
        {"target": 5},
        {},
    ])
    def test_a_bad_sweep_is_a_400(self, body):
        _refused(parse_sweep_request, body)

    @pytest.mark.parametrize("argv", [
        ["run", "bfs", "native", "--iterations", "2"],
        ["run", "pagerank", "native", "--hidden-dim", "4"],
        ["run", "bfs", "native", "--fault-seed", "-1", "--faults",
         "drop(p=0.1)"],
        ["run", "bfs", "native", "--scale-factor", "inf"],
        ["sweep", "table5", "--algorithms", "nosuch"],
        ["sweep", "table5", "--frameworks", "nosuch"],
        ["sweep", "figure5", "--algorithms", "bfs"],
        ["perf", "analyze", "--algorithms", "nosuch"],
        ["perf", "analyze", "--nodes", "0"],
        ["perf", "analyze", "--nodes", "x"],
        ["perf", "advise", "bfs", "--nodes", "0"],
        ["graph500", "--scale", "0"],
        ["graph500", "--scale", "6", "--roots", "0"],
        ["graph500", "--scale", "8", "--streamed", "--chunk-edges", "0"],
        ["graph500", "--scale", "8", "--streamed", "--memory-budget-mb",
         "nan"],
        ["graph500", "--scale", "8", "--streamed", "--memory-budget-mb",
         "-5"],
        # Refused before the demo's in-memory cell runs.
        ["outofcore", "demo", "--scale", "10", "--chunk-edges", "0"],
        ["outofcore", "demo", "--scale", "10", "--memory-budget-mb", "nan"],
        ["outofcore", "demo", "--scale", "10", "--partitions", "0"],
        ["outofcore", "demo", "--scale", "10", "--roots", "0"],
        ["outofcore", "demo", "--scale", "0"],
        # A supervisor limit must be a finite number.
        ["outofcore", "demo", "--scale", "10", "--memory-limit-mb", "nan"],
        ["outofcore", "demo", "--scale", "10", "--mapped-allowance-mb",
         "nan"],
        ["sweep", "table5", "--algorithms", "bfs", "--frameworks", "native",
         "--memory-limit-mb", "inf"],
        ["sweep", "table5", "--algorithms", "bfs", "--frameworks", "native",
         "--wall-deadline", "nan"],
        # A load run refuses what could not measure anything before its
        # first request (no server needs to be listening).
        ["loadgen", "--requests", "0"],
        ["loadgen", "--requests", "-1"],
        ["loadgen", "--concurrency", "0"],
        ["loadgen", "--concurrency", "-1"],
        ["loadgen", "--timeout", "nan"],
        ["loadgen", "--port", "99999"],
    ])
    def test_a_bad_command_is_one_error_line(self, argv, capsys):
        _cli_error(argv, capsys)

    def test_loadgen_without_a_server_is_one_error_line(self, capsys):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        message = _cli_error(["loadgen", "--port", str(port)], capsys)
        assert f"127.0.0.1:{port}" in message

    def test_numpy_scalars_from_internal_callers_still_pass(self):
        from repro.harness import ExperimentSpec

        spec = ExperimentSpec("pagerank", "native", "rmat_mini",
                              nodes=np.int64(2), scale_factor=np.float32(2),
                              fault_seed=np.int64(1),
                              params={"iterations": np.int64(3),
                                      "damping": np.float64(0.5)})
        assert spec.nodes == 2 and spec.params["iterations"] == 3
        # An int is a float; a bool is not an int.
        assert ExperimentSpec("bfs", "native", "rmat_mini",
                              scale_factor=2).scale_factor == 2


def _accepting(monkeypatch):
    """Stub every request's run: an accepted request raises ``Accepted``
    carrying the value the CLI built, instead of running it."""
    from repro.harness import runner
    from repro.harness.sweep import SweepRequest
    from repro.perf import AnalysisRequest

    class Accepted(Exception):
        pass

    def accept(value, *_args, **_kwargs):
        raise Accepted(value)

    monkeypatch.setattr(runner, "run", accept)
    monkeypatch.setattr(SweepRequest, "run", accept)
    monkeypatch.setattr(AnalysisRequest, "run", accept)
    return Accepted


def _fields(parsed) -> dict:
    return {key: value for key, value in parsed.items()
            if key not in ("kind", "wait", "deadline_s", "memory_mb")}


#: (argv, parser, body): one request spelled for both front ends.
PAIRS = [
    (["run", "bfs", "native", "--iterations", "2"], parse_experiment_request,
     {"spec": {**SPEC, "params": {"iterations": 2}}}),
    (["run", "pagerank", "galois", "--iterations", "0"],
     parse_experiment_request,
     {"spec": {**SPEC, "algorithm": "pagerank", "framework": "galois",
               "params": {"iterations": 0}}}),
    (["run", "bfs", "native", "--nodes", "0"], parse_experiment_request,
     {"spec": {**SPEC, "nodes": 0}}),
    (["run", "bfs", "native", "--scale-factor", "0"],
     parse_experiment_request, {"spec": {**SPEC, "scale_factor": 0.0}}),
    (["run", "bfs", "native", "--deadline", "-1"], parse_experiment_request,
     {"spec": {**SPEC, "deadline_s": -1.0}}),
    (["run", "bfs", "native", "--deadline", "nan"], parse_experiment_request,
     {"spec": {**SPEC, "deadline_s": math.nan}}),
    (["run", "bfs", "native", "--dataset", "netflix"],
     parse_experiment_request, {"spec": {**SPEC, "dataset": "netflix"}}),
    (["run", "bfs", "native", "--faults", "bogus("],
     parse_experiment_request, {"spec": {**SPEC, "faults": "bogus("}}),
    (["run", "bfs", "native", "--nodes", "2", "--faults",
      "crash(node=9, superstep=1)"], parse_experiment_request,
     {"spec": {**SPEC, "nodes": 2, "faults": "crash(node=9, superstep=1)"}}),
    (["run", "bfs", "native", "--nodes", "2", "--faults",
      "straggler(node=0, factor=-3)"], parse_experiment_request,
     {"spec": {**SPEC, "nodes": 2,
               "faults": "straggler(node=0, factor=-3)"}}),
    (["run", "bfs", "native", "--nodes", "4", "--kernels", "interpreted",
      "--faults", "drop(p=0.1)", "--fault-seed", "3", "--deadline", "2"],
     parse_experiment_request,
     {"spec": {**SPEC, "nodes": 4, "kernels": "interpreted",
               "faults": "drop(p=0.1)", "fault_seed": 3,
               "deadline_s": 2.0}}),
    (["run", "collaborative_filtering", "native", "--dataset", "netflix",
      "--iterations", "2", "--hidden-dim", "4"], parse_experiment_request,
     {"spec": {"algorithm": "collaborative_filtering", "framework": "native",
               "dataset": "netflix",
               "params": {"iterations": 2, "hidden_dim": 4}}}),
    (["sweep", "table5", "--algorithms", "nosuch"], parse_sweep_request,
     {"target": "table5", "algorithms": ["nosuch"]}),
    (["sweep", "table5", "--frameworks", "native,nosuch"],
     parse_sweep_request,
     {"target": "table5", "frameworks": ["native", "nosuch"]}),
    (["sweep", "figure5", "--algorithms", "bfs"], parse_sweep_request,
     {"target": "figure5", "algorithms": ["bfs"]}),
    (["sweep", "table5", "--max-retries", "-1"], parse_sweep_request,
     {"target": "table5", "max_retries": -1}),
    (["sweep", "table5", "--deadline", "0"], parse_sweep_request,
     {"target": "table5", "sim_deadline_s": 0.0}),
    (["sweep", "table5", "--algorithms", "pagerank,bfs", "--frameworks",
      "native", "--journal", "j.jsonl", "--resume", "--deadline", "5",
      "--max-retries", "1"], parse_sweep_request,
     {"target": "table5", "algorithms": ["pagerank", "bfs"],
      "frameworks": ["native"], "journal": "j.jsonl", "resume": True,
      "sim_deadline_s": 5.0, "max_retries": 1}),
    (["sweep", "figure5"], parse_sweep_request, {"target": "figure5"}),
    (["perf", "analyze", "--algorithms", "nosuch"], parse_perf_request,
     {"algorithms": ["nosuch"], "node_counts": [1, 4]}),
    (["perf", "analyze", "--nodes", "0"], parse_perf_request,
     {"node_counts": [0]}),
    (["perf", "analyze", "--nodes", "1,x"], parse_perf_request,
     {"node_counts": [1, "x"]}),
    (["perf", "analyze", "--nodes", ","], parse_perf_request,
     {"node_counts": []}),
    (["perf", "analyze", "--framework", "giraph", "--algorithms",
      "pagerank,bfs"], parse_perf_request,
     {"framework": "giraph", "algorithms": ["pagerank", "bfs"],
      "node_counts": [1, 4]}),
]


class TestParity:
    @pytest.mark.parametrize("argv, parse, body", PAIRS,
                             ids=[" ".join(argv) for argv, _, _ in PAIRS])
    def test_both_front_ends_give_the_same_answer(self, argv, parse, body,
                                                  monkeypatch, capsys):
        accepted = _accepting(monkeypatch)
        try:
            served = parse(body)
        except ApiError as refusal:
            assert refusal.status == 400
            assert _cli_error(argv, capsys) == str(refusal)
            return
        with pytest.raises(accepted) as built:
            main(argv)
        value = built.value.args[0]
        if "spec" in served:
            assert value.to_dict() == served["spec"]
        else:
            from repro.serve.api import _json

            assert _json(value) == _fields(served)


JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "x", "nosuch", "bfs", "native", "giraph",
                     "rmat_mini", "netflix", "table5", "figure5",
                     "vectorized", "drop(p=0.1)"]),
    st.lists(st.one_of(st.integers(-1, 4), st.booleans(),
                       st.sampled_from(["bfs", "native", "x"])),
             max_size=3),
    st.dictionaries(
        st.sampled_from(["iterations", "source", "damping", "options",
                         "x"]),
        st.one_of(st.integers(-1, 3), st.floats(allow_nan=True),
                  st.text(max_size=2), st.none()), max_size=2),
)
FUZZ = settings(max_examples=120, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])
ENVELOPE_KEYS = st.sampled_from(["wait", "deadline_s", "memory_mb",
                                 "bogus"])


def _returns_or_400(parse, body) -> None:
    try:
        parsed = parse(body)
    except ApiError as refusal:
        assert (refusal.status, refusal.code) == (400, "bad-request"), body
    else:
        json.dumps(parsed)      # the job echoes it


class TestBoundaryFuzz:
    @FUZZ
    @given(st.dictionaries(
        st.sampled_from(["algorithm", "framework", "dataset", "nodes",
                         "scale_factor", "enforce_memory", "faults",
                         "fault_seed", "recovery", "deadline_s", "kernels",
                         "params", "bogus"]), JUNK, max_size=4),
        st.dictionaries(ENVELOPE_KEYS, JUNK, max_size=2))
    def test_spec_bodies(self, spec, envelope):
        _returns_or_400(parse_experiment_request,
                        {"spec": {**SPEC, **spec}, **envelope})

    @FUZZ
    @given(st.dictionaries(
        st.sampled_from(["algorithm", "framework", "nodes", "dataset"]),
        JUNK, max_size=3),
        st.dictionaries(ENVELOPE_KEYS, JUNK, max_size=2))
    def test_gate_bodies(self, gate, envelope):
        _returns_or_400(parse_experiment_request, {
            "gate": {"algorithm": "bfs", "framework": "native", **gate},
            **envelope})

    @FUZZ
    @given(st.dictionaries(
        st.sampled_from(["target", "algorithms", "frameworks", "journal",
                         "resume", "sim_deadline_s", "max_retries",
                         "wait", "deadline_s", "memory_mb", "bogus"]),
        JUNK, max_size=4))
    def test_sweep_bodies(self, fields):
        _returns_or_400(parse_sweep_request, {"target": "table5", **fields})

    @FUZZ
    @given(st.dictionaries(
        st.sampled_from(["framework", "algorithms", "node_counts", "wait",
                         "deadline_s", "memory_mb", "bogus"]),
        JUNK, max_size=4))
    def test_perf_bodies(self, fields):
        _returns_or_400(parse_perf_request, fields)
