"""Message compression used by the native kernels (Section 6.1.1).

"In many cases, the data communicated among nodes is the id's of
destination vertices of the edges traversed. Such data has been observed
to be compressible using techniques like bit-vectors and delta coding
[28]." The paper credits compression with 3.2x (BFS) and 2.2x (PageRank)
end-to-end speedups on network-bound runs.

Both schemes are *actually implemented* here — the byte counts fed to the
network simulator are the sizes of real encodings of the real id streams,
not assumed ratios:

* ``delta_varint`` — sort ids, delta-encode, LEB128-varint the gaps.
  Sorted vertex-id sets coming out of a partition are dense, so most
  gaps fit one byte.
* ``bitvector`` — one bit per vertex of the destination partition;
  superior once more than ~1/64 of the partition is addressed.

``encode_id_set`` picks whichever of the two is smaller, exactly the
adaptive choice of [28].
"""

from __future__ import annotations

import numpy as np

from ...graph.bitvector import BitVector


def delta_varint_encode(ids: np.ndarray) -> bytes:
    """LEB128 encoding of the gaps of a sorted id array."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size == 0:
        return b""
    if ids.min() < 0:
        raise ValueError("ids must be non-negative")
    sorted_ids = np.sort(ids)
    gaps = np.diff(sorted_ids, prepend=np.int64(0))
    gaps[0] = sorted_ids[0]
    out = bytearray()
    for gap in gaps:
        gap = int(gap)
        while True:
            byte = gap & 0x7F
            gap >>= 7
            if gap:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break
    return bytes(out)


def delta_varint_decode(blob: bytes) -> np.ndarray:
    """Inverse of :func:`delta_varint_encode` (sorted unique ids)."""
    values = []
    current = 0
    shift = 0
    accumulator = 0
    for byte in blob:
        accumulator |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
        else:
            current += accumulator
            values.append(current)
            accumulator = 0
            shift = 0
    if shift != 0:
        raise ValueError("truncated varint stream")
    return np.asarray(values, dtype=np.int64)


def bitvector_encode(ids: np.ndarray, universe: int) -> bytes:
    """Fixed-size bit-vector encoding over ``[0, universe)``."""
    vec = BitVector.from_indices(universe, ids)
    return vec.words.tobytes()


def bitvector_decode(blob: bytes, universe: int) -> np.ndarray:
    words = np.frombuffer(blob, dtype=np.uint64)
    return BitVector.from_words(universe, words).to_indices()


def encode_id_set(ids: np.ndarray, universe: int) -> "tuple[bytes, str]":
    """Adaptive encoding: whichever of delta-varint/bit-vector is smaller.

    Returns ``(blob, scheme)``. The caller charges ``len(blob)`` bytes to
    the network; a one-byte scheme tag is included in the size.
    """
    varint = delta_varint_encode(ids)
    bitvec_size = (universe + 63) // 64 * 8
    if len(varint) <= bitvec_size:
        return varint, "delta-varint"
    return bitvector_encode(ids, universe), "bitvector"


def encoded_size(ids: np.ndarray, universe: int) -> int:
    """Size in bytes of the adaptive encoding, plus the 1-byte tag."""
    varint_size = _varint_size(ids)
    bitvec_size = (universe + 63) // 64 * 8
    return min(varint_size, bitvec_size) + 1


def _varint_size(ids: np.ndarray) -> int:
    """Exact size of the delta-varint encoding, without materializing it."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size == 0:
        return 0
    sorted_ids = np.sort(ids)
    gaps = np.diff(sorted_ids, prepend=np.int64(0))
    gaps[0] = sorted_ids[0]
    gaps = np.maximum(gaps, 1)  # varint of 0 still takes one byte
    return int(np.ceil((np.log2(gaps.astype(np.float64) + 1) + 1e-9) / 7.0)
               .clip(min=1).sum())
