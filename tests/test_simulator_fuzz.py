"""Simulator fuzz invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ComputeWork, paper_cluster


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1e10),   # streamed bytes
            st.floats(min_value=0, max_value=1e10),   # random bytes
            st.floats(min_value=0, max_value=1e11),   # ops
            st.floats(min_value=0, max_value=1e8),    # traffic bytes
        ),
        min_size=1, max_size=8,
    ),
    st.integers(min_value=1, max_value=4),
)
def test_simulator_invariants_under_random_supersteps(steps, nodes):
    """Fuzz the simulator: metric identities hold for any step sequence."""
    cluster = Cluster(paper_cluster(nodes))
    for streamed, random, ops, traffic_bytes in steps:
        work = ComputeWork(streamed_bytes=streamed, random_bytes=random,
                           ops=ops)
        traffic = np.zeros((nodes, nodes))
        if nodes > 1:
            traffic[0, 1] = traffic_bytes
        cluster.superstep(work, traffic)
    metrics = cluster.metrics()

    # Total time equals the sum of recorded step durations.
    assert metrics.total_time_s == pytest.approx(
        sum(step.time_s for step in metrics.steps)
    )
    # Each step lasts at least as long as its slowest component.
    for step in metrics.steps:
        assert step.time_s >= max(step.compute_s, step.comm_s) - 1e-12
    # Byte accounting: total equals per-step sum; per-node mean scales.
    assert metrics.bytes_sent_total == pytest.approx(
        sum(step.bytes_sent for step in metrics.steps)
    )
    # Utilization and fractions stay in range.
    assert 0.0 <= metrics.cpu_utilization <= 1.0
    assert 0.0 <= metrics.network_fraction <= 1.0
    # The clock never runs backwards.
    assert cluster.elapsed_s == pytest.approx(metrics.total_time_s)
