"""Unit tests for the existence bit vector (repro.core.bitvector)."""
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitvector import BitVector


def test_new_vector_all_zero():
    bv = BitVector(100)
    assert bv.count() == 0
    assert not bv.get(np.arange(100)).any()


def test_set_and_get():
    bv = BitVector(100)
    bv.set(np.array([0, 7, 8, 99]))
    assert bv.get(np.array([0, 7, 8, 99])).all()
    assert not bv.get(np.array([1, 6, 9, 98])).any()


def test_getitem():
    bv = BitVector(10)
    bv.set(np.array([3]))
    assert bv[3] and not bv[4]


def test_unset():
    bv = BitVector(50)
    bv.set(np.arange(50))
    bv.set(np.array([10, 20]), False)
    assert bv.count() == 48
    assert not bv[10] and not bv[20]


def test_duplicate_set_idempotent():
    bv = BitVector(16)
    bv.set(np.array([5, 5, 5]))
    assert bv.count() == 1


def test_count_large():
    bv = BitVector(10_000)
    idx = np.arange(0, 10_000, 3)
    bv.set(idx)
    assert bv.count() == len(idx)


def test_set_indices_sorted():
    bv = BitVector(1000)
    idx = np.array([999, 3, 512, 8])
    bv.set(idx)
    assert bv.set_indices().tolist() == sorted(idx.tolist())


def test_set_indices_in_range():
    bv = BitVector(1000)
    bv.set(np.array([5, 100, 101, 999]))
    assert bv.set_indices_in_range(100, 102).tolist() == [100, 101]
    assert bv.set_indices_in_range(0, 6).tolist() == [5]
    assert bv.set_indices_in_range(102, 999).tolist() == []


def test_range_clamps_bounds():
    bv = BitVector(10)
    bv.set(np.array([0, 9]))
    assert bv.set_indices_in_range(-5, 50).tolist() == [0, 9]
    assert bv.set_indices_in_range(9, 9).tolist() == []


def test_out_of_range_raises():
    bv = BitVector(10)
    with pytest.raises(IndexError):
        bv.set(np.array([10]))
    with pytest.raises(IndexError):
        bv.get(np.array([-1]))


def test_negative_size_raises():
    with pytest.raises(ValueError):
        BitVector(-1)


def test_serialization_roundtrip():
    """A pickled vector keeps its bits and drops its rank directory, which
    the copy rebuilds on first use."""
    bv = BitVector(777)
    bv.set(np.array([0, 1, 500, 776]))
    bv.rank_directory()
    bv2 = pickle.loads(pickle.dumps(bv))
    assert bv2._rank_dir is None and bv._rank_dir is not None
    assert bv2.size == 777 and bv2.raw_bytes() == bv.raw_bytes()
    assert bv2.set_indices().tolist() == bv.set_indices().tolist()
    idx = np.arange(777)
    assert bv2.rank(idx).tolist() == bv.rank(idx).tolist()


def test_stored_smaller_than_resident_for_sparse():
    bv = BitVector(1_000_000)
    bv.set(np.arange(0, 100))
    assert bv.nbytes_stored() < bv.nbytes_resident()


def test_zero_size():
    bv = BitVector(0)
    assert bv.count() == 0
    assert bv.set_indices().tolist() == []


@given(st.sets(st.integers(0, 499), max_size=60))
@settings(max_examples=30, deadline=None)
def test_set_get_property(idx_set):
    bv = BitVector(500)
    idx = np.array(sorted(idx_set), dtype=np.int64)
    if len(idx):
        bv.set(idx)
    assert bv.set_indices().tolist() == sorted(idx_set)
    assert bv.count() == len(idx_set)


@pytest.mark.parametrize("size", [1, 63, 64, 65, 1000, 1003])
def test_rank_is_exclusive_cumsum(size):
    rng = np.random.default_rng(size)
    bv = BitVector(size)
    for _ in range(2):  # the second round checks the directory rebuilt after set
        bv.set(np.flatnonzero(rng.random(size) < 0.3))
        bits = bv.get(np.arange(size)).astype(np.int64)
        assert bv.rank(np.arange(size)).tolist() == (np.cumsum(bits) - bits).tolist()
    bv.set(np.arange(size), False)
    assert not bv.rank(np.arange(size)).any()
    with pytest.raises(IndexError):
        bv.rank(np.array([size]))
