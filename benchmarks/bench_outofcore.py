"""Out-of-core pipeline: streamed ingest throughput and the OOM -> ok demo."""

from repro.perf import measure_outofcore


def outofcore(subset=None):
    return measure_outofcore(subset or {"scale": 13, "edge_factor": 16,
                                        "seed": 1, "chunk_edges": 1 << 17})


def test_outofcore_streamed_ingest(regenerate):
    report = regenerate(outofcore)
    print()
    print(f"Out-of-core ingest, scale {report['scale']} "
          f"({report['edges']:,} directed edges, "
          f"{report['partitions']} partitions):")
    print(f"  in-memory build : {report['in_memory_s']:.3f} s "
          f"({report['in_memory_eps']:.3e} edges/s)")
    print(f"  streamed build  : {report['streamed_s']:.3f} s "
          f"({report['streamed_eps']:.3e} edges/s)")
    print(f"  ratio           : {report['ratio']:.2f}x")

    # The two storage paths must describe the same graph, partition by
    # partition — throughput means nothing against a different graph.
    assert report["identical"]
    # The tentpole floor: streamed ingest keeps at least half the
    # in-memory throughput (measured headroom is ~1x).
    assert report["ratio"] >= 0.5
