"""Unit and property tests for repro.graph.bitvector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import BitVector


class TestBasics:
    def test_new_vector_is_empty(self):
        vec = BitVector(100)
        assert vec.count() == 0
        assert len(vec) == 100
        assert not vec.test(0)
        assert not vec.test(99)

    def test_set_and_test(self):
        vec = BitVector(130)
        vec.set(0)
        vec.set(63)
        vec.set(64)
        vec.set(129)
        assert vec.test(0) and vec.test(63) and vec.test(64) and vec.test(129)
        assert not vec.test(1)
        assert vec.count() == 4

    def test_clear(self):
        vec = BitVector(10)
        vec.set(5)
        vec.clear(5)
        assert not vec.test(5)
        assert vec.count() == 0

    def test_clear_unset_bit_is_noop(self):
        vec = BitVector(10)
        vec.set(3)
        vec.clear(7)
        assert vec.test(3)
        assert vec.count() == 1

    def test_item_protocol(self):
        vec = BitVector(8)
        vec[3] = True
        assert vec[3]
        vec[3] = False
        assert not vec[3]

    def test_out_of_range_raises(self):
        vec = BitVector(10)
        with pytest.raises(IndexError):
            vec.set(10)
        with pytest.raises(IndexError):
            vec.test(-1)

    def test_negative_size_raises(self):
        with pytest.raises(ValueError):
            BitVector(-1)

    def test_zero_size(self):
        vec = BitVector(0)
        assert vec.count() == 0
        assert vec.nbytes() == 0


class TestBulk:
    def test_set_many_and_to_indices(self):
        indices = [5, 64, 64, 3, 127]
        vec = BitVector.from_indices(128, indices)
        assert vec.count() == 4
        np.testing.assert_array_equal(vec.to_indices(), [3, 5, 64, 127])

    def test_set_many_empty(self):
        vec = BitVector(16)
        vec.set_many([])
        assert vec.count() == 0

    def test_set_many_range_check(self):
        vec = BitVector(16)
        with pytest.raises(IndexError):
            vec.set_many([3, 16])

    def test_test_many(self):
        vec = BitVector.from_indices(100, [2, 50, 99])
        hits = vec.test_many([0, 2, 50, 98, 99])
        np.testing.assert_array_equal(hits, [False, True, True, False, True])

    def test_test_many_empty(self):
        vec = BitVector(10)
        assert vec.test_many([]).size == 0


class TestAlgebra:
    def test_or_and_xor(self):
        a = BitVector.from_indices(70, [1, 2, 65])
        b = BitVector.from_indices(70, [2, 3, 65])
        np.testing.assert_array_equal((a | b).to_indices(), [1, 2, 3, 65])
        np.testing.assert_array_equal((a & b).to_indices(), [2, 65])
        np.testing.assert_array_equal((a ^ b).to_indices(), [1, 3])

    def test_intersect_count(self):
        a = BitVector.from_indices(200, [0, 100, 150])
        b = BitVector.from_indices(200, [100, 150, 199])
        assert a.intersect_count(b) == 2

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            BitVector(10) | BitVector(11)
        with pytest.raises(ValueError):
            BitVector(10).intersect_count(BitVector(11))

    def test_equality(self):
        a = BitVector.from_indices(66, [5, 65])
        b = BitVector.from_indices(66, [5, 65])
        assert a == b
        b.set(0)
        assert a != b


class TestWireFormat:
    def test_words_round_trip(self):
        original = BitVector.from_indices(130, [0, 64, 129])
        clone = BitVector.from_words(130, original.words)
        assert clone == original

    def test_from_words_shape_check(self):
        with pytest.raises(ValueError):
            BitVector.from_words(130, np.zeros(1, dtype=np.uint64))

    def test_words_view_is_readonly(self):
        vec = BitVector(64)
        with pytest.raises(ValueError):
            vec.words[0] = 1

    def test_nbytes_is_packed(self):
        # 1M bits should occupy 125 KB, not 1 MB — the compression the
        # paper's BFS exploits (Section 6.1.1).
        vec = BitVector(1_000_000)
        assert vec.nbytes() == ((1_000_000 + 63) // 64) * 8


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=499), max_size=60))
def test_matches_python_set(indices):
    vec = BitVector.from_indices(500, indices)
    model = set(indices)
    assert vec.count() == len(model)
    np.testing.assert_array_equal(vec.to_indices(), sorted(model))
    probe = np.arange(500)
    np.testing.assert_array_equal(
        vec.test_many(probe), np.isin(probe, sorted(model))
    )


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=255), max_size=40),
    st.lists(st.integers(min_value=0, max_value=255), max_size=40),
)
def test_algebra_matches_set_algebra(left, right):
    a, b = set(left), set(right)
    va = BitVector.from_indices(256, left)
    vb = BitVector.from_indices(256, right)
    np.testing.assert_array_equal((va | vb).to_indices(), sorted(a | b))
    np.testing.assert_array_equal((va & vb).to_indices(), sorted(a & b))
    np.testing.assert_array_equal((va ^ vb).to_indices(), sorted(a ^ b))
    assert va.intersect_count(vb) == len(a & b)
