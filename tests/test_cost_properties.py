"""Property-based tests for the cost model (hand-rolled generators).

The cost model is the foundation every simulated number rests on, so its
algebraic contracts are checked over a seeded grid of random work
shapes, not just hand-picked examples, on the path a run takes:
``CostModel.rates`` + ``CostModel.charge`` and one-step
``Cluster.superstep`` runs:

* ``RunMetrics.bound_by`` agrees with the compute/communication
  comparison it claims to summarize, and a step's compute is the max of
  its memory and CPU halves;
* a superstep's time is monotone in its work and traffic, and overlap
  is never slower than serial execution;
* the roofline floors really are floors: no knob setting beats them.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster import Cluster, paper_cluster
from repro.cluster.cost import ComputeWork, CostModel
from repro.cluster.hardware import PAPER_NODE
from repro.errors import SimulationError

N_CASES = 300


def random_works(seed=0, n=N_CASES, scale=1.0):
    """Seeded stream of random-but-plausible work shapes."""
    rng = np.random.RandomState(seed)
    for _ in range(n):
        yield ComputeWork(
            streamed_bytes=float(rng.uniform(0, 1e12)) * scale,
            random_bytes=float(rng.uniform(0, 1e11)) * scale,
            ops=float(rng.uniform(0, 1e12)) * scale,
            cpu_efficiency=float(rng.uniform(0.01, 1.0)),
            cores_fraction=float(rng.uniform(0.01, 1.0)),
            prefetch=bool(rng.randint(2)),
            memory_parallelism=float(rng.uniform(0.01, 1.0)),
        )


def charged(cost, work):
    """``(memory_s, cpu_s)`` of ``work`` as the cluster charges it."""
    memory, cpu = CostModel.charge(work.streamed_bytes, work.random_bytes,
                                   work.ops, *cost.rates(work))
    return float(memory), float(cpu)


def one_step(work=None, traffic=None, overlap=False, nodes=1, **cluster):
    """The step record and metrics of a one-superstep run."""
    run = Cluster(paper_cluster(nodes), **cluster)
    run.superstep(work, traffic, overlap=overlap)
    metrics = run.metrics()
    return metrics.steps[-1], metrics


def random_traffic(rng, nodes=2, high=1e10):
    traffic = rng.uniform(0, high, size=(nodes, nodes))
    np.fill_diagonal(traffic, 0.0)
    return traffic


@pytest.fixture(scope="module")
def cost():
    return CostModel(PAPER_NODE)


class TestBoundByConsistency:
    def test_bound_by_matches_time_comparison(self):
        rng = np.random.RandomState(1)
        for work in random_works(seed=1, n=100, scale=0.1):
            step, metrics = one_step(work, random_traffic(rng), nodes=2)
            expected = "network" if step.comm_s > step.compute_s \
                else "memory"
            assert metrics.bound_by() == expected, work

    def test_compute_time_is_max_of_halves(self, cost):
        for work in random_works(seed=2, n=100):
            memory, cpu = charged(cost, work)
            step, _ = one_step(work)
            assert (step.memory_s, step.cpu_s) == (memory, cpu), work
            assert step.compute_s == max(memory, cpu)

    def test_times_non_negative_and_finite(self, cost):
        for work in random_works(seed=3):
            for value in charged(cost, work):
                assert value >= 0.0 and np.isfinite(value)

    def test_zero_work_costs_nothing(self, cost):
        work = ComputeWork()
        assert charged(cost, work) == (0.0, 0.0)
        step, metrics = one_step(work, np.zeros((2, 2)), nodes=2)
        assert (step.compute_s, step.comm_s, step.time_s) == (0.0, 0.0, 0.0)
        assert metrics.total_time_s == 0.0

    def test_negative_counters_rejected(self):
        with pytest.raises(ValueError):
            ComputeWork(streamed_bytes=-1.0)
        with pytest.raises(ValueError):
            ComputeWork(ops=-1e-9)


class TestStepTimeProperties:
    def test_monotone_in_both_arguments(self):
        rng = np.random.RandomState(4)
        for work in random_works(seed=4, n=60, scale=0.1):
            traffic = random_traffic(rng)
            delta = float(rng.uniform(1.0, 10.0))
            more_work = dataclasses.replace(
                work, streamed_bytes=work.streamed_bytes * delta,
                random_bytes=work.random_bytes * delta, ops=work.ops * delta)
            for overlap in (False, True):
                base, _ = one_step(work, traffic, overlap, nodes=2)
                heavier, _ = one_step(more_work, traffic, overlap, nodes=2)
                busier, _ = one_step(work, traffic * delta, overlap, nodes=2)
                assert heavier.time_s >= base.time_s
                assert busier.time_s >= base.time_s

    def test_overlap_never_slower_than_serial(self):
        rng = np.random.RandomState(5)
        for work in random_works(seed=5, n=100, scale=0.1):
            traffic = random_traffic(rng)
            hidden, _ = one_step(work, traffic, overlap=True, nodes=2)
            serial, _ = one_step(work, traffic, overlap=False, nodes=2)
            assert hidden.time_s <= serial.time_s

    def test_overlap_bounded_below_by_each_component(self):
        rng = np.random.RandomState(6)
        for work in random_works(seed=6, n=100, scale=0.1):
            step, _ = one_step(work, random_traffic(rng), overlap=True,
                               nodes=2)
            assert step.time_s >= step.compute_s
            assert step.time_s >= step.comm_s

    def test_negative_times_rejected(self):
        for work in (ComputeWork(streamed_bytes=np.array([1.0, -1.0])),
                     ComputeWork(ops=np.array([-1e-9, 0.0]))):
            with pytest.raises(SimulationError, match="non-negative"):
                one_step(work, nodes=2)
        with pytest.raises(SimulationError, match="traffic bytes"):
            one_step(traffic=np.array([[0.0, -1.0], [0.0, 0.0]]), nodes=2)
        with pytest.raises(SimulationError, match="overhead_s"):
            Cluster(paper_cluster(1)).superstep(overhead_s=-1.0)


class TestRooflineFloors:
    """The perf roofline's floors must be unbeatable by any knob setting."""

    def test_memory_floor_is_a_floor(self, cost):
        for work in random_works(seed=7):
            floor = cost.memory_floor_s(work.streamed_bytes,
                                        work.random_bytes)
            assert charged(cost, work)[0] >= floor - 1e-12, work

    def test_cpu_floor_is_a_floor(self, cost):
        for work in random_works(seed=8):
            floor = cost.cpu_floor_s(work.ops)
            assert charged(cost, work)[1] >= floor - 1e-12, work

    def test_ideal_knobs_achieve_the_floors(self, cost):
        for work in random_works(seed=9):
            ideal = ComputeWork(streamed_bytes=work.streamed_bytes,
                                random_bytes=work.random_bytes,
                                ops=work.ops, prefetch=True)
            memory, cpu = charged(cost, ideal)
            assert memory == pytest.approx(cost.memory_floor_s(
                work.streamed_bytes, work.random_bytes))
            assert cpu == pytest.approx(cost.cpu_floor_s(work.ops))


class TestScalingProperties:
    def test_scaled_work_scales_time_linearly(self, cost):
        rng = np.random.RandomState(10)
        for work in random_works(seed=11, n=100):
            factor = float(rng.uniform(0.1, 100))
            memory, cpu = charged(cost, work)
            scaled, _ = one_step(work, scale_factor=factor)
            assert scaled.memory_s == pytest.approx(factor * memory)
            assert scaled.cpu_s == pytest.approx(factor * cpu)
