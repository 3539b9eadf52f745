"""Property-based tests for the cost model (hand-rolled generators).

The cost model is the foundation every simulated number rests on, so its
algebraic contracts are checked over a seeded grid of random work
shapes, not just hand-picked examples:

* ``bound_by`` agrees with the ``memory_time``/``cpu_time`` comparison
  it claims to summarize, and ``compute_time`` is their max;
* ``step_time`` is monotone in both arguments, and overlap is never
  slower than serial execution;
* the roofline floors really are floors: no knob setting beats them.
"""

import numpy as np
import pytest

from repro.cluster.cost import ComputeWork, CostModel
from repro.cluster.hardware import PAPER_NODE

N_CASES = 300


def random_works(seed=0, n=N_CASES):
    """Seeded stream of random-but-plausible work shapes."""
    rng = np.random.RandomState(seed)
    for _ in range(n):
        yield ComputeWork(
            streamed_bytes=float(rng.uniform(0, 1e12)),
            random_bytes=float(rng.uniform(0, 1e11)),
            ops=float(rng.uniform(0, 1e12)),
            cpu_efficiency=float(rng.uniform(0.01, 1.0)),
            cores_fraction=float(rng.uniform(0.01, 1.0)),
            prefetch=bool(rng.randint(2)),
            memory_parallelism=float(rng.uniform(0.01, 1.0)),
        )


@pytest.fixture(scope="module")
def cost():
    return CostModel(PAPER_NODE)


class TestBoundByConsistency:
    def test_bound_by_matches_time_comparison(self, cost):
        for work in random_works(seed=1):
            memory, cpu = cost.memory_time(work), cost.cpu_time(work)
            expected = "memory" if memory >= cpu else "cpu"
            assert cost.bound_by(work) == expected, work

    def test_compute_time_is_max_of_halves(self, cost):
        for work in random_works(seed=2):
            assert cost.compute_time(work) == max(cost.memory_time(work),
                                                  cost.cpu_time(work))

    def test_times_non_negative_and_finite(self, cost):
        for work in random_works(seed=3):
            for value in (cost.memory_time(work), cost.cpu_time(work),
                          cost.compute_time(work)):
                assert value >= 0.0 and np.isfinite(value)

    def test_zero_work_costs_nothing(self, cost):
        work = ComputeWork()
        assert cost.memory_time(work) == 0.0
        assert cost.cpu_time(work) == 0.0
        assert cost.compute_time(work) == 0.0

    def test_negative_counters_rejected(self):
        with pytest.raises(ValueError):
            ComputeWork(streamed_bytes=-1.0)
        with pytest.raises(ValueError):
            ComputeWork(ops=-1e-9)


class TestStepTimeProperties:
    def test_monotone_in_both_arguments(self, cost):
        rng = np.random.RandomState(4)
        for _ in range(N_CASES):
            compute = float(rng.uniform(0, 100))
            comm = float(rng.uniform(0, 100))
            delta = float(rng.uniform(0, 50))
            for overlap in (False, True):
                base = cost.step_time(compute, comm, overlap)
                assert cost.step_time(compute + delta, comm, overlap) >= base
                assert cost.step_time(compute, comm + delta, overlap) >= base

    def test_overlap_never_slower_than_serial(self, cost):
        rng = np.random.RandomState(5)
        for _ in range(N_CASES):
            compute = float(rng.uniform(0, 100))
            comm = float(rng.uniform(0, 100))
            assert cost.step_time(compute, comm, overlap=True) <= \
                cost.step_time(compute, comm, overlap=False)

    def test_overlap_bounded_below_by_each_component(self, cost):
        rng = np.random.RandomState(6)
        for _ in range(N_CASES):
            compute = float(rng.uniform(0, 100))
            comm = float(rng.uniform(0, 100))
            combined = cost.step_time(compute, comm, overlap=True)
            assert combined >= compute and combined >= comm

    def test_negative_times_rejected(self, cost):
        with pytest.raises(ValueError):
            cost.step_time(-1.0, 0.0, overlap=False)
        with pytest.raises(ValueError):
            cost.step_time(0.0, -1.0, overlap=True)


class TestRooflineFloors:
    """The perf roofline's floors must be unbeatable by any knob setting."""

    def test_memory_floor_is_a_floor(self, cost):
        for work in random_works(seed=7):
            floor = cost.memory_floor_s(work.streamed_bytes,
                                        work.random_bytes)
            assert cost.memory_time(work) >= floor - 1e-12, work

    def test_cpu_floor_is_a_floor(self, cost):
        for work in random_works(seed=8):
            floor = cost.cpu_floor_s(work.ops)
            assert cost.cpu_time(work) >= floor - 1e-12, work

    def test_ideal_knobs_achieve_the_floors(self, cost):
        for work in random_works(seed=9):
            ideal = ComputeWork(streamed_bytes=work.streamed_bytes,
                                random_bytes=work.random_bytes,
                                ops=work.ops, prefetch=True)
            floor = cost.memory_floor_s(work.streamed_bytes,
                                        work.random_bytes)
            assert cost.memory_time(ideal) == pytest.approx(floor)
            assert cost.cpu_time(ideal) == pytest.approx(
                cost.cpu_floor_s(work.ops))


class TestScalingProperties:
    def test_scaled_work_scales_time_linearly(self, cost):
        rng = np.random.RandomState(10)
        for work in random_works(seed=11, n=100):
            factor = float(rng.uniform(0.1, 100))
            scaled = work.scaled(factor)
            assert cost.memory_time(scaled) == pytest.approx(
                factor * cost.memory_time(work))
            assert cost.cpu_time(scaled) == pytest.approx(
                factor * cost.cpu_time(work))
