"""Packed bit-vector used by the native BFS and triangle-counting kernels.

The paper (Section 6.1.1) credits bit-vectors with a >2x speedup for BFS
and triangle counting: they provide constant-time membership tests while
touching 64x fewer bytes than a byte-per-vertex array, which matters for
cache behaviour and for compressing the visited-set exchanged between
nodes.

The implementation is a thin, vectorized wrapper over a ``numpy.uint64``
word array so that bulk operations (set many bits, population count,
serialization for the wire) are NumPy-speed rather than per-bit Python.
"""

from __future__ import annotations

import numpy as np

_WORD_BITS = 64


class BitVector:
    """Fixed-size vector of bits addressed by integer index.

    Parameters
    ----------
    size:
        Number of addressable bits. Out-of-range indices raise
        ``IndexError`` just as a NumPy array would.
    """

    __slots__ = ("size", "_words")

    def __init__(self, size: int):
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        self.size = int(size)
        n_words = (self.size + _WORD_BITS - 1) // _WORD_BITS
        self._words = np.zeros(n_words, dtype=np.uint64)

    @classmethod
    def from_indices(cls, size: int, indices) -> "BitVector":
        """Build a vector of ``size`` bits with ``indices`` set."""
        vec = cls(size)
        vec.set_many(indices)
        return vec

    @classmethod
    def from_words(cls, size: int, words: np.ndarray) -> "BitVector":
        """Rehydrate a vector from its packed word array (wire format)."""
        vec = cls(size)
        words = np.asarray(words, dtype=np.uint64)
        if words.shape != vec._words.shape:
            raise ValueError(
                f"expected {vec._words.shape[0]} words for {size} bits, "
                f"got {words.shape[0]}"
            )
        vec._words = words.copy()
        return vec

    # -- scalar interface -------------------------------------------------

    def _check(self, index: int) -> int:
        index = int(index)
        if not 0 <= index < self.size:
            raise IndexError(f"bit index {index} out of range [0, {self.size})")
        return index

    def set(self, index: int) -> None:
        index = self._check(index)
        self._words[index >> 6] |= np.uint64(1) << np.uint64(index & 63)

    def clear(self, index: int) -> None:
        index = self._check(index)
        self._words[index >> 6] &= ~(np.uint64(1) << np.uint64(index & 63))

    def test(self, index: int) -> bool:
        index = self._check(index)
        word = self._words[index >> 6]
        return bool((word >> np.uint64(index & 63)) & np.uint64(1))

    __getitem__ = test

    def __setitem__(self, index: int, value) -> None:
        if value:
            self.set(index)
        else:
            self.clear(index)

    # -- bulk interface ---------------------------------------------------

    def set_many(self, indices) -> None:
        """Set all bits in ``indices`` (duplicates allowed)."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return
        if indices.min() < 0 or indices.max() >= self.size:
            raise IndexError("bit index out of range in set_many")
        words = indices >> 6
        bits = (np.uint64(1) << (indices & 63).astype(np.uint64))
        np.bitwise_or.at(self._words, words, bits)

    def test_many(self, indices) -> np.ndarray:
        """Vectorized membership test; returns a boolean array."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return np.zeros(0, dtype=bool)
        if indices.min() < 0 or indices.max() >= self.size:
            raise IndexError("bit index out of range in test_many")
        words = self._words[indices >> 6]
        return ((words >> (indices & 63).astype(np.uint64)) & np.uint64(1)).astype(bool)

    def to_indices(self) -> np.ndarray:
        """Return the sorted indices of all set bits."""
        set_word_idx = np.nonzero(self._words)[0]
        out = []
        for wi in set_word_idx:
            word = int(self._words[wi])
            base = int(wi) << 6
            while word:
                low = word & -word
                out.append(base + low.bit_length() - 1)
                word ^= low
        return np.asarray(out, dtype=np.int64)

    def count(self) -> int:
        """Population count (number of set bits)."""
        return int(np.unpackbits(self._words.view(np.uint8)).sum())

    # -- set algebra ------------------------------------------------------

    def _binary(self, other: "BitVector", op) -> "BitVector":
        if self.size != other.size:
            raise ValueError(f"size mismatch: {self.size} vs {other.size}")
        result = BitVector(self.size)
        result._words = op(self._words, other._words)
        return result

    def __or__(self, other: "BitVector") -> "BitVector":
        return self._binary(other, np.bitwise_or)

    def __and__(self, other: "BitVector") -> "BitVector":
        return self._binary(other, np.bitwise_and)

    def __xor__(self, other: "BitVector") -> "BitVector":
        return self._binary(other, np.bitwise_xor)

    def intersect_count(self, other: "BitVector") -> int:
        """``popcount(self & other)`` without materializing the result."""
        if self.size != other.size:
            raise ValueError(f"size mismatch: {self.size} vs {other.size}")
        both = np.bitwise_and(self._words, other._words)
        return int(np.unpackbits(both.view(np.uint8)).sum())

    # -- wire format ------------------------------------------------------

    @property
    def words(self) -> np.ndarray:
        """Packed ``uint64`` word array (read-only view)."""
        view = self._words.view()
        view.flags.writeable = False
        return view

    def nbytes(self) -> int:
        """Bytes this vector occupies in memory / on the wire."""
        return self._words.nbytes

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self.size == other.size and bool(np.array_equal(self._words, other._words))

    __hash__ = None  # mutable; explicitly unhashable

    def __repr__(self) -> str:
        return f"BitVector(size={self.size}, set={self.count()})"
