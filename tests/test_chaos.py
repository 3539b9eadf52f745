"""The chaos subsystem: seeded fault injection + checkpoint/recovery.

The properties that make fault injection *measurement* rather than
noise: the same seed replays the same fault timeline bit-for-bit, each
probabilistic fault kind draws from its own RNG stream (enabling one
never perturbs another), recovery replays until the answers are exact,
and every second of chaos overhead is accounted — on the clock, in
``RunResult.recovery`` and in the trace. Plus the source audit that
keeps the whole package deterministic: no un-seeded random APIs
anywhere under ``src/repro``.
"""

import io
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import (
    BalloonMemory,
    FaultSchedule,
    HangCell,
    KillWorker,
    LatencySpike,
    MessageCorruption,
    MessageDrop,
    NetworkPartition,
    NodeCrash,
    RealFaultPlan,
    RetryPolicy,
    StragglerNode,
    checkpointing,
    policy_for_profile,
)
from repro.datagen import rmat_graph
from repro.errors import NodeFailure, ReproError, SimulationError, SpecError
from repro.frameworks.base import PROFILES
from repro.harness import ExperimentSpec, run
from repro.rng import derive, spawn_key

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(scale=8, edge_factor=6, seed=81, directed=False)


def giraph_bfs(graph, **spec_fields):
    result = run(ExperimentSpec("bfs", "giraph", graph, nodes=4,
                                **spec_fields))
    assert result.ok, result.failure
    return result


# ---------------------------------------------------------------------------
# Spec parsing


class TestSpecParsing:
    def test_full_grammar_round_trips(self):
        spec = ("crash(node=2, superstep=3); drop(p=0.01, at=0:20); "
                "latency(factor=8, at=4:6); straggler(node=1, factor=4, "
                "at=2:5); partition(nodes=0+1, at=2:3); corrupt(p=0.001)")
        schedule = FaultSchedule.from_spec(spec, seed=5)
        assert schedule.faults == (
            NodeCrash(node=2, superstep=3),
            MessageDrop(probability=0.01, window=(0, 20)),
            LatencySpike(factor=8.0, window=(4, 6)),
            StragglerNode(node=1, factor=4.0, window=(2, 5)),
            NetworkPartition(nodes=(0, 1), window=(2, 3)),
            MessageCorruption(probability=0.001, window=(0, None)),
        )
        reparsed = FaultSchedule.from_spec(schedule.spec(), seed=5)
        assert reparsed.faults == schedule.faults

    def test_window_forms(self):
        (fault,) = FaultSchedule.from_spec("latency(factor=2, at=3)").faults
        assert fault.window == (3, 4)
        (fault,) = FaultSchedule.from_spec("latency(factor=2, at=3:)").faults
        assert fault.window == (3, None)
        (fault,) = FaultSchedule.from_spec("latency(factor=2, at=:5)").faults
        assert fault.window == (0, 5)
        (fault,) = FaultSchedule.from_spec("crash(node=1, at=4)").faults
        assert fault == NodeCrash(node=1, superstep=4)

    @pytest.mark.parametrize("bad", (
        "explode(node=1)",                  # unknown fault
        "crash(node=1)",                    # missing superstep
        "crash node=1",                     # not a clause
        "drop(p=0)",                        # p out of range
        "drop(p=1.5)",
        "drop()",                           # missing p
        "latency(factor=2, at=5:3)",        # empty window
        "latency(factor=2, nodes=1)",       # stray key
        "straggler(node=x, factor=2)",      # not an int
        "straggler(node=0, factor=-3)",     # factor out of range
        "crash(node=0, superstep=-1)",      # would never fire
        "latency(factor=nan)",              # not finite
        "drop(probability=0.1)",            # the key is p
    ))
    def test_bad_specs_raise_typed_errors(self, bad):
        with pytest.raises(SimulationError):
            FaultSchedule.from_spec(bad)

    @pytest.mark.parametrize("build", (
        lambda: StragglerNode(node=0, factor=-3),
        lambda: NodeCrash(node=0, superstep=-1),
        lambda: LatencySpike(factor=float("nan")),
        lambda: MessageDrop(probability=1.5),
        lambda: NetworkPartition(nodes=()),
        lambda: HangCell(cell=0, seconds=0),
    ))
    def test_values_built_in_python_are_bounded_too(self, build):
        with pytest.raises(SimulationError):
            build()

    def test_floats_round_trip_exactly(self):
        for spec in ("straggler(node=0, factor=1.2345678)",
                     "latency(factor=0.1)"):
            assert FaultSchedule.from_spec(spec).spec() == spec
        plan = RealFaultPlan.from_spec("hang(cell=0, seconds=0.1234567)")
        assert plan.spec() == "hang(cell=0, seconds=0.1234567)"

    def test_the_grammar_table_names_every_key(self):
        """The module docstring's table lists each clause's keys in order."""
        import repro.chaos.faults as grammar

        rows = {line.split()[0]: line
                for line in grammar.__doc__.splitlines() if line.split()}
        for kind in FaultSchedule.KINDS + RealFaultPlan.KINDS:
            listed = re.sub(r" \(.*?\)", "", rows[kind.NAME][12:44]).strip()
            assert listed == ", ".join(
                key for _, _, key, _ in grammar._declared(kind)), kind.NAME

    def test_unknown_fault_object_rejected(self):
        with pytest.raises(SimulationError):
            FaultSchedule([object()])

    def test_validate_rejects_out_of_cluster_nodes(self, graph):
        with pytest.raises(SpecError, match="nodes 0..3"):
            giraph_bfs(graph, faults="crash(node=9, superstep=1)")


_windows = st.one_of(
    st.just((0, None)),
    st.tuples(st.integers(0, 10), st.just(None)),
    st.integers(0, 10).flatmap(
        lambda start: st.tuples(st.just(start), st.integers(start + 1, 14))),
)
_probabilities = st.floats(min_value=0.0, max_value=1.0,
                           exclude_min=True)
_factors = st.floats(min_value=0.0, max_value=1e6, exclude_min=True)
_cells = st.integers(0, 50)
_faults = st.one_of(
    st.builds(NodeCrash, node=st.integers(0, 3), superstep=st.integers(0, 12)),
    st.builds(StragglerNode, node=st.integers(0, 3), factor=_factors,
              window=_windows),
    st.builds(LatencySpike, factor=_factors, window=_windows),
    st.builds(MessageDrop, probability=_probabilities, window=_windows),
    st.builds(MessageCorruption, probability=_probabilities, window=_windows),
    st.builds(NetworkPartition,
              nodes=st.lists(st.integers(0, 3), min_size=1, max_size=3,
                             unique=True).map(tuple),
              window=_windows),
)
_real_faults = st.one_of(
    st.builds(KillWorker, cell=_cells, times=st.integers(1, 99)),
    st.builds(HangCell, cell=_cells,
              seconds=st.floats(min_value=0.0, max_value=1e4,
                                exclude_min=True)),
    st.builds(BalloonMemory, cell=_cells, mb=st.integers(1, 4096)),
)


def _edited(spec, edits):
    for where, cut, insert in edits:
        at = int(where * len(spec))
        spec = spec[:at] + insert + spec[at + cut:]
    return spec


#: Any text, or a valid spec of either language with a few edits (so the
#: fuzz reaches the key and value checks, not just the clause pattern).
_clause_text = st.text(max_size=30) | st.builds(
    _edited,
    st.one_of(
        st.lists(_faults, max_size=3).map(lambda f: FaultSchedule(f).spec()),
        st.lists(_real_faults, max_size=3).map(
            lambda f: RealFaultPlan(f).spec())),
    st.lists(st.tuples(
        st.floats(0, 1), st.integers(0, 3),
        st.one_of(st.sampled_from(
            ["-", "0", "9", ".5", "nan", "inf", "1e999", ":", "+", "=", ",",
             ";", "(", ")", "x", "at", "p", "probability", "kill", "crash"]),
            st.text(max_size=2))), max_size=2))

#: The fixed profile of the grammar's property tests (well under 3 s).
_GRAMMAR = settings(max_examples=200, deadline=None, derandomize=True)


class TestSpecProperties:
    @_GRAMMAR
    @given(faults=st.lists(_faults, max_size=6), seed=st.integers(0, 2**31))
    def test_any_schedule_round_trips_through_spec(self, faults, seed):
        schedule = FaultSchedule(faults, seed=seed)
        reparsed = FaultSchedule.from_spec(schedule.spec(), seed=seed)
        assert reparsed.faults == schedule.faults
        assert reparsed.spec() == schedule.spec()

    @_GRAMMAR
    @given(faults=st.lists(_real_faults, max_size=6))
    def test_any_real_plan_round_trips_through_spec(self, faults):
        plan = RealFaultPlan(faults)
        assert RealFaultPlan.from_spec(plan.spec()) == plan

    @_GRAMMAR
    @given(text=_clause_text)
    def test_any_text_parses_or_is_refused(self, text):
        for parse in (FaultSchedule.from_spec, RealFaultPlan.from_spec):
            try:
                parsed = parse(text)
            except SimulationError:
                continue
            assert parse(parsed.spec()).faults == parsed.faults

    @settings(max_examples=40, deadline=None)
    @given(faults=st.lists(_faults, max_size=6), seed=st.integers(0, 2**31),
           superstep=st.integers(0, 14))
    def test_fresh_schedules_resolve_identically(self, faults, seed,
                                                 superstep):
        first = FaultSchedule(faults, seed=seed)
        second = first.fresh()
        retry = RetryPolicy()
        a = first.at(superstep, 4, retry)
        b = second.at(superstep, 4, retry)
        assert a.crashes == b.crashes
        assert a.events == b.events
        assert (a.compute_factors is None) == (b.compute_factors is None)
        if a.compute_factors is not None:
            np.testing.assert_array_equal(a.compute_factors,
                                          b.compute_factors)
        assert (a.disruption is None) == (b.disruption is None)
        if a.disruption is not None:
            wire = np.full((4, 4), 1e6)
            np.fill_diagonal(wire, 0.0)
            wire_a, stall_a, info_a = a.disruption.apply(wire.copy())
            wire_b, stall_b, info_b = b.disruption.apply(wire.copy())
            np.testing.assert_array_equal(wire_a, wire_b)
            np.testing.assert_array_equal(stall_a, stall_b)
            assert info_a == info_b

    @settings(max_examples=40, deadline=None)
    @given(attempts=st.integers(1, 8),
           base=st.floats(0.001, 1.0, allow_nan=False),
           multiplier=st.floats(1.0, 4.0, allow_nan=False))
    def test_retry_backoff_math(self, attempts, base, multiplier):
        policy = RetryPolicy(max_attempts=attempts, base_backoff_s=base,
                             multiplier=multiplier)
        assert policy.backoff_s(1) == pytest.approx(base)
        total = sum(policy.backoff_s(i) for i in range(1, attempts + 1))
        assert policy.total_backoff_s() == pytest.approx(total)
        # Geometric growth: each retry waits at least as long as the last.
        waits = [policy.backoff_s(i) for i in range(1, attempts + 1)]
        assert all(b >= a for a, b in zip(waits, waits[1:]))


# ---------------------------------------------------------------------------
# Determinism


class TestDeterminism:
    def test_same_seed_same_timeline_twice(self, graph):
        spec = "crash(node=2, superstep=2); drop(p=0.05); corrupt(p=0.02)"
        runs = [giraph_bfs(graph, faults=spec, fault_seed=9)
                for _ in range(2)]
        first, second = runs
        assert first.result.metrics.total_time_s \
            == second.result.metrics.total_time_s
        assert first.recovery.to_dict() == second.recovery.to_dict()
        assert first.recovery.events == second.recovery.events
        np.testing.assert_array_equal(first.result.values,
                                      second.result.values)

    def test_different_seed_different_drops(self, graph):
        spec = "drop(p=0.2)"
        drops = {run(ExperimentSpec("pagerank", "giraph", graph, nodes=4,
                                    faults=spec, fault_seed=seed,
                                    params={"iterations": 4}))
                 .recovery.messages_dropped
                 for seed in range(6)}
        assert len(drops) > 1

    def test_schedule_object_is_freshened_per_run(self, graph):
        schedule = FaultSchedule.from_spec("drop(p=0.1)", seed=3)
        first = giraph_bfs(graph, faults=schedule)
        second = giraph_bfs(graph, faults=schedule)
        assert first.recovery.to_dict() == second.recovery.to_dict()
        assert first.result.metrics.total_time_s \
            == second.result.metrics.total_time_s

    def test_fault_streams_are_independent(self, graph):
        """Enabling corruption must not move the drop timeline."""
        alone = giraph_bfs(graph, faults="drop(p=0.1)", fault_seed=4)
        paired = giraph_bfs(graph, faults="drop(p=0.1); corrupt(p=0.1)",
                            fault_seed=4)
        assert alone.recovery.messages_dropped \
            == paired.recovery.messages_dropped

    def test_rng_streams_derive_per_component(self):
        assert spawn_key("chaos", "drop") != spawn_key("chaos", "corrupt")
        a = derive(7, "chaos", "drop").random(8)
        b = derive(7, "chaos", "drop").random(8)
        c = derive(7, "chaos", "corrupt").random(8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


UNSEEDED_NUMPY = re.compile(
    r"np\.random\.(?!default_rng|Generator|SeedSequence|PCG64)\w+")
BARE_RANDOM = re.compile(r"^\s*(import random\b|from random import)")


class TestNoUnseededRandomness:
    """Audit: all randomness under src/repro flows through seeded
    Generators (``repro.rng`` streams or explicit ``default_rng(seed)``);
    the legacy global ``np.random.*`` API and the stdlib ``random``
    module are banned outright."""

    @staticmethod
    def _code_lines(source: str):
        """Source lines with string/comment tokens blanked out, so
        docstrings may *mention* the banned APIs."""
        lines = source.splitlines()
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type not in (tokenize.STRING, tokenize.COMMENT):
                continue
            (start_row, start_col), (end_row, end_col) = \
                token.start, token.end
            for row in range(start_row - 1, end_row):
                line = lines[row]
                left = start_col if row == start_row - 1 else 0
                right = end_col if row == end_row - 1 else len(line)
                lines[row] = line[:left] + " " * (right - left) + line[right:]
        return lines

    @pytest.mark.parametrize(
        "path", sorted(SRC.rglob("*.py")),
        ids=lambda p: str(p.relative_to(SRC)))
    def test_no_unseeded_random_apis(self, path):
        for number, code in enumerate(self._code_lines(path.read_text()), 1):
            match = UNSEEDED_NUMPY.search(code) or BARE_RANDOM.search(code)
            assert not match, (
                f"{path.relative_to(SRC)}:{number} uses an un-seeded "
                f"random API: {code.strip()!r}")


# ---------------------------------------------------------------------------
# Checkpoint/recovery semantics


class TestCheckpointRecovery:
    def test_crash_at_every_superstep_bfs(self, graph):
        """Golden sweep: kill node 2 at each superstep in turn; Giraph
        must recover and still produce the golden-reference BFS tree."""
        from repro.algorithms import bfs_reference
        from repro.harness import default_params

        source = default_params("bfs", graph)["source"]
        golden = bfs_reference(graph, source)
        clean = giraph_bfs(graph)
        np.testing.assert_array_equal(clean.result.values, golden)
        steps = len(clean.result.metrics.steps)
        assert steps >= 3
        for superstep in range(steps):
            chaos = giraph_bfs(
                graph, faults=f"crash(node=2, superstep={superstep})")
            np.testing.assert_array_equal(chaos.result.values, golden)
            stats = chaos.recovery
            assert stats.crashes == 1 and stats.recoveries == 1
            assert stats.recovery_time_s > 0
            assert chaos.result.metrics.total_time_s \
                > clean.result.metrics.total_time_s

    def test_crash_at_every_superstep_pagerank(self, graph):
        from repro.algorithms import pagerank_reference

        golden = pagerank_reference(graph, 4)
        clean = run(ExperimentSpec("pagerank", "giraph", graph, nodes=4,
                                   params={"iterations": 4}))
        np.testing.assert_allclose(clean.result.values, golden, rtol=1e-9)
        steps = len(clean.result.metrics.steps)
        for superstep in range(steps):
            chaos = run(ExperimentSpec(
                "pagerank", "giraph", graph, nodes=4,
                faults=f"crash(node=2, superstep={superstep})",
                params={"iterations": 4}))
            assert chaos.ok, chaos.failure
            np.testing.assert_array_equal(chaos.result.values,
                                          clean.result.values)
            np.testing.assert_allclose(chaos.result.values, golden,
                                       rtol=1e-9)
            assert chaos.recovery.recoveries == 1
            assert chaos.recovery.recovery_time_s > 0

    def test_checkpoint_cadence_and_cost(self, graph):
        """Every-2-supersteps checkpoints: count them, and their cost is
        exactly the chaos run's runtime delta under a no-op schedule."""
        clean = run(ExperimentSpec("pagerank", "giraph", graph, nodes=4,
                                   params={"iterations": 4}))
        chaos = run(ExperimentSpec("pagerank", "giraph", graph, nodes=4,
                                   faults="straggler(node=0, factor=1)",
                                   params={"iterations": 4}))
        assert chaos.ok, chaos.failure
        steps = len(clean.result.metrics.steps)
        stats = chaos.recovery
        expected = len([k for k in range(steps) if k > 0 and k % 2 == 0])
        assert stats.checkpoints_written == expected
        assert stats.checkpoint_bytes > 0
        assert chaos.result.metrics.total_time_s == pytest.approx(
            clean.result.metrics.total_time_s + stats.checkpoint_time_s)
        np.testing.assert_array_equal(chaos.result.values,
                                      clean.result.values)

    def test_recovery_breakdown_sums(self, graph):
        chaos = giraph_bfs(graph, faults="crash(node=1, superstep=2)")
        stats = chaos.recovery
        policy = PROFILES["giraph"].recovery_policy()
        assert stats.recovery_time_s == pytest.approx(
            policy.detect_timeout_s + stats.restore_time_s
            + stats.replay_time_s)
        assert stats.total_overhead_s == pytest.approx(
            stats.checkpoint_time_s + stats.recovery_time_s
            + stats.retry_time_s)

    def test_transient_faults_cost_time_not_answers(self, graph):
        clean = giraph_bfs(graph)
        chaos = giraph_bfs(
            graph, faults="drop(p=0.1); latency(factor=8, at=1:3); "
                          "straggler(node=1, factor=4, at=0:2)",
            fault_seed=11)
        np.testing.assert_array_equal(chaos.result.values,
                                      clean.result.values)
        assert chaos.result.metrics.total_time_s \
            > clean.result.metrics.total_time_s
        assert chaos.recovery.crashes == 0

    def test_partition_stalls_cross_traffic(self, graph):
        clean = run(ExperimentSpec("pagerank", "giraph", graph, nodes=4,
                                   params={"iterations": 3}))
        chaos = run(ExperimentSpec("pagerank", "giraph", graph, nodes=4,
                                   faults="partition(nodes=0+1, at=1:2)",
                                   params={"iterations": 3}))
        assert chaos.ok, chaos.failure
        stats = chaos.recovery
        assert any(event["kind"] == "partition" for event in stats.events)
        backoff = RetryPolicy().total_backoff_s()
        assert chaos.result.metrics.total_time_s >= \
            clean.result.metrics.total_time_s + backoff - 1e-9

    def test_faults_off_is_byte_identical(self, graph):
        """The chaos subsystem must cost nothing when not asked for."""
        a = giraph_bfs(graph)
        b = giraph_bfs(graph)
        assert a.recovery is None and b.recovery is None
        assert a.result.metrics.total_time_s == b.result.metrics.total_time_s
        np.testing.assert_array_equal(a.result.values, b.result.values)


# ---------------------------------------------------------------------------
# Policies and typed failures


class TestPolicies:
    def test_profiles_declare_their_fault_axis(self):
        assert PROFILES["giraph"].fault_policy == "checkpoint"
        for name in ("native", "combblas", "graphlab", "socialite",
                     "galois"):
            assert PROFILES[name].fault_policy == "fail-fast", name

    def test_policy_for_profile(self):
        giraph = policy_for_profile(PROFILES["giraph"])
        assert giraph.recovers_crashes
        assert giraph.checkpoint_interval == 2
        assert giraph.checkpoint_due(2) and giraph.checkpoint_due(4)
        assert not giraph.checkpoint_due(0) and not giraph.checkpoint_due(3)
        native = policy_for_profile(PROFILES["native"])
        assert not native.recovers_crashes
        assert policy_for_profile(None).mode == "fail-fast"

    def test_checkpointing_factory_validates(self):
        policy = checkpointing(interval=3, overhead_s=0.1)
        assert policy.recovers_crashes and policy.checkpoint_interval == 3
        with pytest.raises(ValueError):
            checkpointing(interval=-1)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_node_failure_is_typed(self, graph):
        with pytest.raises(NodeFailure) as excinfo:
            run(ExperimentSpec("bfs", "native", graph, nodes=4,
                               faults="crash(node=2, superstep=1)"))
        failure = excinfo.value
        assert isinstance(failure, ReproError)
        assert failure.node == 2 and failure.superstep == 1
        assert "node 2" in str(failure) and "superstep 1" in str(failure)

    def test_recovery_override_saves_a_fail_fast_run(self, graph):
        """An explicit recovery= policy can outvote the profile."""
        clean = run(ExperimentSpec("bfs", "native", graph, nodes=4))
        saved = run(ExperimentSpec("bfs", "native", graph, nodes=4,
                                   faults="crash(node=2, superstep=1)",
                                   recovery=checkpointing(interval=2)))
        assert saved.ok, saved.failure
        np.testing.assert_array_equal(saved.result.values,
                                      clean.result.values)
        assert saved.recovery.recoveries == 1

    def test_run_result_to_dict_carries_recovery(self, graph):
        import json

        chaos = giraph_bfs(graph, faults="crash(node=2, superstep=1)")
        payload = json.loads(json.dumps(chaos.to_dict()))
        assert payload["config"]["faults"] == "crash(node=2, superstep=1)"
        assert payload["recovery"]["recoveries"] == 1
        assert payload["recovery"]["recovery_time_s"] > 0
        kinds = [event["kind"] for event in payload["recovery"]["events"]]
        assert kinds.count("node-crash") == 1
        assert kinds.count("recovery") == 1
