"""Cross-engine behaviour under one common fault schedule.

The study's frameworks split into two camps on fault tolerance, and the
split must be *behavioural*, not cosmetic: under the same seeded
schedule, every checkpointing engine converges to the exact fault-free
answers (recovery replays until the BSP step completes), and every
fail-fast engine surfaces the typed :class:`NodeFailure` — never a bare
exception — carrying the failing node and superstep. Transient-only
schedules must be survivable by *everyone*, costing time but never
answers.
"""

import numpy as np
import pytest

from repro.algorithms.registry import profile_for
from repro.datagen import rmat_graph
from repro.errors import NodeFailure, ReproError
from repro import harness
from repro.harness import ExperimentSpec

#: Engines that write checkpoints and survive the crash below.
CHECKPOINTING = ("giraph", "gps", "graphx")
#: Multi-node engines that die on node loss (galois is single-node
#: only, so it cannot even host a 4-node schedule).
FAIL_FAST = ("native", "combblas", "graphlab", "socialite",
             "socialite-published", "kdt")

#: One schedule for everyone: a mid-run crash, on top of message loss
#: and a latency spike.
CRASH_SCHEDULE = "crash(node=2, superstep=2); drop(p=0.01); " \
                 "latency(factor=4, at=1:3)"
#: No crashes: every engine must absorb these.
TRANSIENT_SCHEDULE = "drop(p=0.05); straggler(node=1, factor=3, at=0:2); " \
                     "latency(factor=4, at=1:2)"
SEED = 13


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(scale=8, edge_factor=6, seed=83, directed=False)


def run(framework, graph, **spec_fields):
    return harness.run(ExperimentSpec(
        "pagerank", framework, graph, nodes=4, params={"iterations": 4},
        **spec_fields))


class TestCampMembership:
    @pytest.mark.parametrize("framework", CHECKPOINTING)
    def test_checkpointing_profiles(self, framework):
        assert profile_for(framework).fault_policy == "checkpoint"

    @pytest.mark.parametrize("framework", FAIL_FAST)
    def test_fail_fast_profiles(self, framework):
        assert profile_for(framework).fault_policy == "fail-fast"


class TestCheckpointingEnginesSurvive:
    @pytest.mark.parametrize("framework", CHECKPOINTING)
    def test_converges_to_fault_free_answers(self, framework, graph):
        clean = run(framework, graph)
        assert clean.ok, clean.failure
        chaos = run(framework, graph, faults=CRASH_SCHEDULE, fault_seed=SEED)
        assert chaos.ok, chaos.failure
        np.testing.assert_array_equal(chaos.result.values,
                                      clean.result.values)
        stats = chaos.recovery
        assert stats.crashes == 1 and stats.recoveries == 1
        assert stats.recovery_time_s > 0
        assert chaos.result.metrics.total_time_s \
            > clean.result.metrics.total_time_s

    @pytest.mark.parametrize("framework", CHECKPOINTING)
    def test_deterministic_across_two_runs(self, framework, graph):
        runs = [run(framework, graph, faults=CRASH_SCHEDULE, fault_seed=SEED)
                for _ in range(2)]
        assert runs[0].recovery.to_dict() == runs[1].recovery.to_dict()
        assert runs[0].result.metrics.total_time_s \
            == runs[1].result.metrics.total_time_s


class TestFailFastEnginesDieTyped:
    @pytest.mark.parametrize("framework", FAIL_FAST)
    def test_crash_raises_node_failure(self, framework, graph):
        with pytest.raises(NodeFailure) as excinfo:
            run(framework, graph, faults=CRASH_SCHEDULE, fault_seed=SEED)
        failure = excinfo.value
        # Typed, catchable as the repo-wide base error, and it names the
        # failing node and superstep.
        assert isinstance(failure, ReproError)
        assert failure.node == 2
        assert failure.superstep == 2
        assert "node 2" in str(failure)
        assert "superstep 2" in str(failure)


class TestTransientFaultsAreSurvivable:
    @pytest.mark.parametrize("framework", CHECKPOINTING + FAIL_FAST)
    def test_answers_unchanged_runtime_no_better(self, framework, graph):
        clean = run(framework, graph)
        assert clean.ok, clean.failure
        chaos = run(framework, graph, faults=TRANSIENT_SCHEDULE,
                    fault_seed=SEED)
        assert chaos.ok, chaos.failure
        np.testing.assert_array_equal(chaos.result.values,
                                      clean.result.values)
        assert chaos.recovery.crashes == 0
        assert chaos.result.metrics.total_time_s \
            >= clean.result.metrics.total_time_s
