"""Tests for the DeepSqueeze baseline (repro.baselines.deepsqueeze)."""
import numpy as np
import pytest

from repro.baselines.deepsqueeze import DeepSqueezeStore


@pytest.fixture(scope="module")
def store():
    rng = np.random.default_rng(0)
    keys = np.arange(2000, dtype=np.int64)
    values = {
        "cat": rng.choice(np.array(["x", "y", "z"]), 2000),
        "num": rng.integers(0, 40, 2000),
    }
    st = DeepSqueezeStore()
    st.build(keys, values)
    return st, keys, values


def test_exact_reconstruction(store):
    st, keys, values = store
    found, out = st.lookup_batch(keys)
    assert found.all()
    assert (out["cat"] == values["cat"]).all()
    assert (out["num"] == values["num"]).all()


def test_missing_keys(store):
    st, keys, _ = store
    found, out = st.lookup_batch(np.array([5000, 6000]))
    assert not found.any()
    assert len(out["cat"]) == 0


def test_mixed_alignment(store):
    st, keys, values = store
    q = np.array([10, 9999, 20])
    found, out = st.lookup_batch(q)
    assert found.tolist() == [True, False, True]
    assert out["num"].tolist() == [values["num"][10], values["num"][20]]


def test_size_positive_and_counts_corrections(store):
    st, keys, _ = store
    assert st.nbytes_disk > 0
    # random categorical data cannot be autoencoded exactly → corrections exist
    assert sum(len(i) for i, _ in st._corrections.values()) > 0


def test_unbuilt_raises():
    st = DeepSqueezeStore()
    with pytest.raises(RuntimeError):
        st.lookup_batch(np.array([1]))


def test_unsorted_build_keys():
    rng = np.random.default_rng(1)
    keys = rng.permutation(500).astype(np.int64)
    vals = {"v": rng.integers(0, 9, 500)}
    st = DeepSqueezeStore()
    st.build(keys, vals)
    found, out = st.lookup_batch(keys)
    assert found.all() and (out["v"] == vals["v"]).all()


def test_compresses_structured_data_better_than_noise():
    keys = np.arange(3000, dtype=np.int64)
    structured = {"v": (keys % 10 % 4)}
    rng = np.random.default_rng(2)
    noisy = {"v": rng.integers(0, 4, 3000)}
    s1, s2 = DeepSqueezeStore(), DeepSqueezeStore()
    s1.build(keys, structured)
    s2.build(keys, noisy)
    assert s1.nbytes_disk <= s2.nbytes_disk


def test_pool_charged_per_batch():
    from repro.baselines.memory_pool import MemoryPool
    pool = MemoryPool(None, io_bandwidth=1e9)
    rng = np.random.default_rng(3)
    keys = np.arange(500, dtype=np.int64)
    st = DeepSqueezeStore(pool=pool)
    st.build(keys, {"v": rng.integers(0, 5, 500)})
    st.lookup_batch(keys[:10])
    st.lookup_batch(keys[:10])
    # the whole stored representation is re-read every batch
    assert pool.stats.bytes_read == 2 * st.nbytes_disk
    assert pool.stats.io_time > 0
