"""Tests for the cluster simulator (hardware, network, memory, cost)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    MPI,
    NETTY_HADOOP,
    TCP_SOCKETS,
    Cluster,
    ClusterSpec,
    CommLayer,
    ComputeWork,
    CostModel,
    Fabric,
    MemoryTracker,
    NodeSpec,
    paper_cluster,
)
from repro.errors import CapacityError, SimulationError


class TestHardware:
    def test_paper_node_defaults(self):
        node = NodeSpec()
        assert node.cores == 24
        assert node.dram_bytes == 64 * 2**30
        assert node.link_bandwidth == 5.5e9

    def test_compute_rate_scales(self):
        node = NodeSpec()
        full = node.compute_rate()
        assert node.compute_rate(cores_fraction=0.5) == pytest.approx(full / 2)
        assert node.compute_rate(cpu_efficiency=0.1) == pytest.approx(full / 10)

    def test_compute_rate_validates(self):
        node = NodeSpec()
        with pytest.raises(ValueError):
            node.compute_rate(cpu_efficiency=0)
        with pytest.raises(ValueError):
            node.compute_rate(cores_fraction=1.5)

    def test_cluster_spec_validates(self):
        with pytest.raises(ValueError):
            ClusterSpec(num_nodes=0)


class TestCommLayers:
    def test_ordering_matches_paper(self):
        # MPI > sockets > netty, per Figure 6's peak-rate panel.
        node = NodeSpec()
        assert MPI.effective_bandwidth(node) > TCP_SOCKETS.effective_bandwidth(node)
        assert TCP_SOCKETS.effective_bandwidth(node) > \
            NETTY_HADOOP.effective_bandwidth(node)

    def test_mpi_near_hardware_limit(self):
        # Paper: native/CombBLAS peak "over 5 GBps" on a 5.5 GB/s link.
        assert MPI.effective_bandwidth(NodeSpec()) > 5e9

    def test_giraph_layer_below_half_gbps(self):
        # Paper: Giraph peak traffic "less than 0.5 GigaBytes per second".
        assert NETTY_HADOOP.effective_bandwidth(NodeSpec()) < 0.5e9

    def test_layer_validation(self):
        with pytest.raises(ValueError):
            CommLayer("bad", efficiency=0.0)
        with pytest.raises(ValueError):
            CommLayer("bad", efficiency=0.5, latency_s=-1)

    def test_wire_bytes_overhead(self):
        layer = CommLayer("framed", efficiency=0.5, byte_overhead=0.25)
        assert layer.wire_bytes(1000) == 1250


class TestFabric:
    def test_diagonal_is_free(self):
        fabric = Fabric(NodeSpec(), 2)
        traffic = np.array([[[1e9, 0.0], [0.0, 1e9]]])
        report = fabric.exchange(traffic, MPI)
        np.testing.assert_array_equal(report.total_bytes, [0.0])
        np.testing.assert_array_equal(report.comm_times, [[0.0, 0.0]])

    def test_send_receive_bottleneck(self):
        fabric = Fabric(NodeSpec(), 3)
        # Node 0 sends 1 GB to each of nodes 1 and 2 — its send side (2 GB)
        # is the bottleneck, not either receiver's 1 GB.
        traffic = np.zeros((1, 3, 3))
        traffic[0, 0, 1] = traffic[0, 0, 2] = 1e9
        report = fabric.exchange(traffic, MPI)
        bandwidth = MPI.sustained_bandwidth(NodeSpec())
        assert report.comm_times[0, 0] == pytest.approx(2e9 / bandwidth,
                                                        rel=0.01)
        assert report.comm_times[0, 1] == pytest.approx(1e9 / bandwidth,
                                                        rel=0.01)

    def test_stack_reduces_each_step_alone(self):
        fabric = Fabric(NodeSpec(), 2)
        steps = np.array([[[0.0, 1e9], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]],
                          [[0.0, 3e9], [2e9, 0.0]]])
        stacked = fabric.exchange(steps, MPI)
        assert stacked.comm_times.shape == (3, 2)
        for row, traffic in enumerate(steps):
            alone = fabric.exchange(traffic[None], MPI)
            for name in ("comm_times", "bytes_out", "bytes_in",
                         "peak_bandwidth", "total_bytes"):
                np.testing.assert_array_equal(
                    getattr(stacked, name)[row], getattr(alone, name)[0])

    def test_shape_validation(self):
        cluster = Cluster(paper_cluster(2))
        with pytest.raises(SimulationError,
                           match=r"traffic matrix must be 2x2, got \(3, 3\)"):
            cluster.superstep(traffic=np.zeros((3, 3)))
        with pytest.raises(SimulationError, match="traffic bytes"):
            cluster.superstep(traffic=np.array([[0.0, -1.0], [0.0, 0.0]]))

    def test_checks_run_in_order(self):
        """A call with two faults reports the first check it fails:
        overhead, then negative work, then the traffic shape."""
        cluster, wrong = Cluster(paper_cluster(2)), np.zeros((3, 3))
        with pytest.raises(SimulationError, match="overhead_s"):
            cluster.superstep(ComputeWork(ops=np.array([-1.0, 0.0])),
                              traffic=wrong, overhead_s=-1.0)
        with pytest.raises(SimulationError, match="work counters"):
            cluster.superstep(ComputeWork(ops=np.array([-1.0, 0.0])),
                              traffic=wrong)

    def test_chunk_shape_validation(self):
        """A chunk's wrong-shaped work column or traffic stack is refused
        with the one-row messages, in the same order, and takes no row."""
        cluster, work = Cluster(paper_cluster(2)), \
            ComputeWork(ops=np.ones((2, 2)))
        with pytest.raises(SimulationError,
                           match=r"traffic matrix must be 2x2, got \(3, 3\)"):
            cluster.supersteps(work, np.zeros((2, 3, 3)))
        with pytest.raises(SimulationError,
                           match=r"traffic matrix must be 2x2, "
                                 r"got \(3, 2, 2\)"):
            cluster.supersteps(work, np.zeros((3, 2, 2)))
        with pytest.raises(SimulationError,
                           match=r"expected 2 work entries, "
                                 r"got shape \(2, 3\)"):
            cluster.supersteps(ComputeWork(ops=np.ones((2, 3))),
                               np.zeros((2, 2, 2)))
        with pytest.raises(SimulationError, match="work counters"):
            cluster.supersteps(ComputeWork(ops=-np.ones((2, 2))),
                               np.zeros((2, 3, 3)))
        assert not cluster.metrics().steps

    def test_slower_layer_takes_longer(self):
        fabric = Fabric(NodeSpec(), 2)
        traffic = np.array([[[0.0, 1e9], [0.0, 0.0]]])
        fast = fabric.exchange(traffic, MPI).comm_times[0, 0]
        slow = fabric.exchange(traffic, NETTY_HADOOP).comm_times[0, 0]
        assert slow > 5 * fast


class TestMemory:
    def test_allocate_free_peak(self):
        tracker = MemoryTracker(0, capacity_bytes=1000)
        tracker.allocate("graph", 400)
        tracker.allocate("buffers", 500)
        tracker.free("buffers")
        assert tracker.used_bytes == 400
        assert tracker.peak_bytes == 900

    def test_capacity_error(self):
        tracker = MemoryTracker(3, capacity_bytes=1000)
        with pytest.raises(CapacityError) as excinfo:
            tracker.allocate("huge", 2000)
        assert excinfo.value.node == 3

    def test_scale_factor_applies(self):
        tracker = MemoryTracker(0, capacity_bytes=1000, scale_factor=10.0)
        with pytest.raises(CapacityError):
            tracker.allocate("proxy", 200)  # 200 x 10 > 1000

    def test_enforce_off_records_but_does_not_raise(self):
        tracker = MemoryTracker(0, capacity_bytes=100, enforce=False)
        tracker.allocate("big", 500)
        assert tracker.utilization() == 5.0

    def test_relabel_replaces(self):
        tracker = MemoryTracker(0, capacity_bytes=1000)
        tracker.allocate("buffer", 100)
        tracker.allocate("buffer", 300)
        assert tracker.used_bytes == 300

    def test_free_unknown_raises(self):
        tracker = MemoryTracker(0, capacity_bytes=100)
        with pytest.raises(SimulationError):
            tracker.free("nope")


def step_of(work, traffic=None, overlap=False, nodes=1, scale_factor=1.0):
    """The record of a one-superstep run."""
    cluster = Cluster(paper_cluster(nodes), scale_factor=scale_factor)
    cluster.superstep(work, traffic, overlap=overlap)
    return cluster.metrics().steps[-1]


class TestCostModel:
    def test_streaming_vs_random(self):
        streamed = step_of(ComputeWork(streamed_bytes=1e9))
        random = step_of(ComputeWork(random_bytes=1e9))
        assert random.compute_s > 5 * streamed.compute_s

    def test_prefetch_speeds_random(self):
        plain = step_of(ComputeWork(random_bytes=1e9))
        prefetched = step_of(ComputeWork(random_bytes=1e9, prefetch=True))
        ratio = plain.compute_s / prefetched.compute_s
        assert 2.0 < ratio < 4.0

    def test_compute_overlaps_memory_and_cpu(self):
        step = step_of(ComputeWork(streamed_bytes=1e9, ops=1e9))
        assert step.memory_s > 0 and step.cpu_s > 0
        assert step.compute_s == max(step.memory_s, step.cpu_s)

    def test_bound_by(self):
        memory = step_of(ComputeWork(streamed_bytes=1e12, ops=1))
        assert memory.memory_s > memory.cpu_s
        cpu = step_of(ComputeWork(streamed_bytes=1, ops=1e12))
        assert cpu.cpu_s > cpu.memory_s

    def test_step_time_overlap(self):
        work = ComputeWork(streamed_bytes=86e9)
        traffic = np.array([[0.0, 5e9], [0.0, 0.0]])
        hidden = step_of(work, traffic, overlap=True, nodes=2)
        serial = step_of(work, traffic, overlap=False, nodes=2)
        assert hidden.time_s == max(hidden.compute_s, hidden.comm_s)
        assert serial.time_s == serial.compute_s + serial.comm_s
        assert hidden.time_s < serial.time_s

    def test_work_validation(self):
        with pytest.raises(ValueError):
            ComputeWork(streamed_bytes=-1)

    def test_work_scaled(self):
        # The cluster's scale factor multiplies every counter, so the
        # same work at 3x the data size costs 3x.
        work = ComputeWork(streamed_bytes=10, ops=4, cpu_efficiency=0.5)
        base, scaled = step_of(work), step_of(work, scale_factor=3)
        assert scaled.memory_s == pytest.approx(3 * base.memory_s)
        assert scaled.cpu_s == pytest.approx(3 * base.cpu_s)


class TestCluster:
    def test_superstep_advances_clock(self):
        cluster = Cluster(paper_cluster(2))
        cluster.superstep(ComputeWork(streamed_bytes=86e9))
        report = cluster.metrics().steps[-1]
        assert report.time_s == pytest.approx(1.0, rel=0.05)
        assert cluster.elapsed_s == report.time_s

    def test_barrier_waits_for_slowest(self):
        cluster = Cluster(paper_cluster(2))
        work = ComputeWork(streamed_bytes=np.array([86e9, 8.6e9]))
        cluster.superstep(work)
        report = cluster.metrics().steps[-1]
        assert report.time_s == pytest.approx(1.0, rel=0.05)

    def test_traffic_counted(self):
        cluster = Cluster(paper_cluster(2))
        traffic = np.array([[0.0, 1e9], [1e9, 0.0]])
        cluster.superstep(traffic=traffic)
        metrics = cluster.metrics()
        assert metrics.bytes_sent_total == pytest.approx(2e9)
        assert metrics.peak_network_bandwidth > 5e9  # MPI default

    def test_overlap_hides_comm(self):
        spec = paper_cluster(2)
        # 2.87e9 payload bytes take ~1 s at MPI's sustained rate.
        traffic = np.array([[0.0, 2.87e9], [0.0, 0.0]])
        work = ComputeWork(streamed_bytes=86e9)
        serial, overlapped = Cluster(spec), Cluster(spec)
        serial.superstep(work, traffic, overlap=False)
        overlapped.superstep(work, traffic, overlap=True)
        serial = serial.metrics().steps[-1].time_s
        overlapped = overlapped.metrics().steps[-1].time_s
        assert overlapped == pytest.approx(1.0, rel=0.1)
        assert serial == pytest.approx(2.0, rel=0.1)

    def test_scale_factor_multiplies_time_and_bytes(self):
        base = Cluster(paper_cluster(2))
        scaled = Cluster(paper_cluster(2), scale_factor=100.0)
        work = ComputeWork(streamed_bytes=1e8)
        traffic = np.array([[0.0, 1e7], [0.0, 0.0]])
        base.superstep(work, traffic)
        scaled.superstep(work, traffic)
        t1 = base.metrics().steps[-1].time_s
        t2 = scaled.metrics().steps[-1].time_s
        # Fixed latency is (correctly) not scaled, so allow 1% slack.
        assert t2 == pytest.approx(100 * t1, rel=0.01)
        assert scaled.metrics().bytes_sent_total == pytest.approx(1e9)

    def test_overhead_not_scaled(self):
        cluster = Cluster(paper_cluster(1), scale_factor=1000.0)
        cluster.superstep(overhead_s=2.0)
        report = cluster.metrics().steps[-1]
        assert report.time_s == pytest.approx(2.0)

    def test_iterations(self):
        cluster = Cluster(paper_cluster(1))
        for _ in range(3):
            cluster.superstep(ComputeWork(streamed_bytes=86e9))
            cluster.mark_iteration()
        metrics = cluster.metrics()
        assert metrics.num_iterations == 3
        assert metrics.time_per_iteration_s == pytest.approx(1.0, rel=0.05)

    def test_cpu_utilization_reflects_occupancy(self):
        # A fully network-bound run shows near-zero CPU utilization.
        cluster = Cluster(paper_cluster(2))
        cluster.superstep(traffic=np.array([[0.0, 55e9], [0.0, 0.0]]))
        assert cluster.metrics().cpu_utilization < 0.05

        # A memory-bound run with all cores busy shows high utilization.
        busy = Cluster(paper_cluster(1))
        busy.superstep(ComputeWork(streamed_bytes=86e9))
        assert busy.metrics().cpu_utilization > 0.9

    def test_partial_occupancy_limits_utilization(self):
        # Giraph-style 4-of-24 workers caps utilization near 1/6.
        cluster = Cluster(paper_cluster(1))
        cluster.superstep(ComputeWork(ops=1e12, cores_fraction=4 / 24))
        assert cluster.metrics().cpu_utilization == pytest.approx(4 / 24, rel=0.05)

    def test_memory_accounting_via_cluster(self):
        cluster = Cluster(paper_cluster(2), scale_factor=2.0)
        cluster.allocate_all("graph", 16 * 2**30)
        metrics = cluster.metrics()
        # 16 GiB per node at scale factor 2 -> 32 GiB extrapolated.
        assert metrics.memory_footprint_bytes == pytest.approx(32 * 2**30)
        with pytest.raises(CapacityError):
            cluster.allocate(0, "too-big", 48 * 2**30)

    def test_work_list_length_validated(self):
        cluster = Cluster(paper_cluster(2))
        with pytest.raises(SimulationError):
            cluster.superstep(ComputeWork(ops=np.ones(1)))

    @pytest.mark.parametrize("step", [
        dict(work=ComputeWork(streamed_bytes=float("nan"))),
        dict(work=ComputeWork(ops=float("inf"))),
        dict(traffic=[[0.0, float("nan")], [0.0, 0.0]]),
        dict(traffic=[[0.0, float("inf")], [0.0, 0.0]]),
        dict(overhead_s=float("nan")),
    ], ids=["nan-bytes", "inf-ops", "nan-traffic", "inf-traffic",
            "nan-overhead"])
    def test_non_finite_step_is_a_typed_error(self, step):
        """``min(...) < 0`` and ``(traffic < 0).any()`` let these through:
        the step used to return ``time_s = nan`` (or ``inf``), the cell
        reported ``ok``, and a ``nan`` clock never passes a deadline."""
        cluster = Cluster(paper_cluster(2), deadline_s=1.0)
        with pytest.raises(SimulationError, match="finite"):
            cluster.superstep(**step)
        assert cluster.elapsed_s == 0.0 and not cluster.metrics().steps

    def test_work_mutated_negative_is_a_typed_error(self):
        # Was a bare ValueError out of the scaled copy's constructor.
        work = ComputeWork(streamed_bytes=4.0)
        work.streamed_bytes -= 8.0
        with pytest.raises(SimulationError, match="non-negative"):
            Cluster(paper_cluster(1)).superstep(work)

    def test_bound_by_classification(self):
        cluster = Cluster(paper_cluster(2))
        cluster.superstep(ComputeWork(streamed_bytes=1e9),
                          traffic=np.array([[0.0, 55e9], [0.0, 0.0]]))
        assert cluster.metrics().bound_by() == "network"

    def test_tick(self):
        cluster = Cluster(paper_cluster(1))
        cluster.tick(5.0)
        assert cluster.elapsed_s == 5.0
        with pytest.raises(SimulationError):
            cluster.tick(-1.0)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0, max_value=1e12),
    st.floats(min_value=0, max_value=1e12),
    st.floats(min_value=0, max_value=1e12),
)
def test_compute_time_monotone_in_work(streamed, random, ops):
    model = CostModel(NodeSpec())
    base = ComputeWork(streamed_bytes=streamed, random_bytes=random, ops=ops)
    bigger = ComputeWork(streamed_bytes=streamed * 2 + 1,
                         random_bytes=random * 2 + 1, ops=ops * 2 + 1)

    def compute_s(work):
        return max(model.charge(work.streamed_bytes, work.random_bytes,
                                work.ops, *model.rates(work)))

    assert compute_s(bigger) >= compute_s(base)
    assert compute_s(base) >= 0
