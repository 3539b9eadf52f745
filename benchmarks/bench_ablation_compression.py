"""Ablation: message compression schemes (Section 6.1.1).

Compares raw 8-byte ids, delta-varint, bit-vector, and the adaptive
encoder on BFS-frontier-like id sets of varying density — the data that
motivates the adaptive choice of [28].
"""

import numpy as np

from repro.frameworks.native import encoded_size
from repro.frameworks.native.compression import (
    _varint_size,
    bitvector_encode,
)


def sweep_densities(universe=200_000, densities=(0.001, 0.01, 0.1, 0.5)):
    rng = np.random.default_rng(13)
    rows = []
    for density in densities:
        ids = np.unique(rng.integers(0, universe, int(universe * density)))
        raw = 8 * ids.size
        varint = _varint_size(ids)
        bitvec = len(bitvector_encode(ids, universe))
        adaptive = encoded_size(ids, universe)
        rows.append({
            "density": density,
            "raw": raw,
            "varint": varint,
            "bitvector": bitvec,
            "adaptive": adaptive,
        })
    return rows


def test_compression_schemes(regenerate):
    rows = regenerate(sweep_densities)
    print()
    print("Bytes to ship one id set (universe 200k):")
    print(f"  {'density':>8} {'raw':>10} {'varint':>10} "
          f"{'bitvector':>10} {'adaptive':>10}")
    for row in rows:
        print(f"  {row['density']:>8} {row['raw']:>10} {row['varint']:>10} "
              f"{row['bitvector']:>10} {row['adaptive']:>10}")

    for row in rows:
        # Adaptive always within one tag byte of the best scheme.
        assert row["adaptive"] <= min(row["varint"], row["bitvector"]) + 1
        # And always beats raw ids for these densities (paper: 2.2-3.2x
        # end-to-end).
        assert row["adaptive"] < row["raw"]

    # Sparse sets favor varint, dense sets favor the bit-vector.
    sparse, dense = rows[0], rows[-1]
    assert sparse["varint"] < sparse["bitvector"]
    assert dense["bitvector"] < dense["varint"]
