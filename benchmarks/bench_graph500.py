"""Graph500 BFS protocol (the paper's reference [23]) on the simulator."""

from repro.harness.graph500 import run_graph500


def protocol(framework="native"):
    return run_graph500(scale=12, edge_factor=16, num_roots=8, nodes=4,
                        framework=framework, scale_factor=4000.0)


def test_graph500_native(regenerate):
    result = regenerate(protocol)
    print()
    print(f"Graph500 BFS, scale {result.scale} "
          f"({result.num_edges:,} undirected edges), "
          f"{result.num_roots} roots, 4 nodes, native:")
    print(f"  harmonic mean TEPS : {result.harmonic_mean_teps:.3e}")
    print(f"  min / median / max : {result.min_teps:.3e} / "
          f"{result.median_teps:.3e} / {result.max_teps:.3e}")
    print(f"  mean BFS time      : {result.mean_time_s:.4f} s")

    # Every search tree validates (the benchmark's hard requirement).
    assert result.all_valid
    # The simulated native BFS sits in the hundreds-of-MTEPS to
    # few-GTEPS band the paper's class of machine reaches.
    assert 1e8 < result.harmonic_mean_teps < 2e10
    assert result.min_teps > 0
