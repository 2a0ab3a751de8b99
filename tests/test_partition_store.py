"""Tests for the partitioned stores: substrate, array (AB/ABC), hash (HB/HBC)."""
import numpy as np
import pickle
import pytest

from repro.baselines.array_store import ArrayStore
from repro.baselines.hash_store import HashStore
from repro.baselines.memory_pool import MemoryPool


@pytest.fixture
def data():
    rng = np.random.default_rng(0)
    keys = rng.permutation(5000)[:3000].astype(np.int64)  # sparse, unsorted
    values = {
        "num": rng.integers(0, 50, len(keys)),
        "txt": rng.choice(np.array(["aa", "bb", "cc"]), len(keys)),
    }
    return keys, values


STORES = [ArrayStore, HashStore]
CODECS = ["none", "z", "gzip", "lzma"]


@pytest.mark.parametrize("cls", STORES)
@pytest.mark.parametrize("codec", CODECS)
def test_build_and_full_lookup(tmp_path, data, cls, codec):
    keys, values = data
    st = cls(str(tmp_path), codec=codec, partition_bytes=4096)
    st.build(keys, values)
    found, out = st.lookup_batch(keys)
    assert found.all()
    assert (out["num"] == values["num"]).all()
    assert (out["txt"] == values["txt"]).all()


@pytest.mark.parametrize("cls", STORES)
def test_missing_keys_not_found(tmp_path, data, cls):
    keys, values = data
    st = cls(str(tmp_path), partition_bytes=4096)
    st.build(keys, values)
    missing = np.setdiff1d(np.arange(5000), keys)[:100]
    found, out = st.lookup_batch(missing)
    assert not found.any()
    assert len(out["num"]) == 0 and out["num"].dtype == values["num"].dtype


@pytest.mark.parametrize("cls", STORES)
def test_mixed_hit_miss_alignment(tmp_path, data, cls):
    keys, values = data
    st = cls(str(tmp_path), partition_bytes=4096)
    st.build(keys, values)
    q = np.array([keys[0], 5001, keys[-1], 5002], dtype=np.int64)
    found, out = st.lookup_batch(q)
    assert found.tolist() == [True, False, True, False]
    # values of the found keys only, in query order, in the build dtype
    assert out["num"].tolist() == [values["num"][0], values["num"][-1]]
    assert out["txt"].tolist() == [values["txt"][0], values["txt"][-1]]
    assert out["num"].dtype == values["num"].dtype


@pytest.mark.parametrize("cls", STORES)
def test_unsorted_duplicate_queries_across_partitions(tmp_path, data, cls):
    """Values come back in query order when the query is unsorted, repeats
    keys and spans several partitions, for a numeric, a string and an
    object column."""
    keys, values = data
    values = dict(values, obj=np.array([f"s{k}" if k % 3 else int(k) for k in keys], dtype=object))
    st = cls(str(tmp_path), partition_bytes=2048)
    st.build(keys, values)
    rng = np.random.default_rng(1)
    pos = rng.integers(0, len(keys), 400)
    q = np.concatenate([keys[pos], keys[pos[:50]], np.array([5001, 5002])])
    order = rng.permutation(len(q))
    q, truth = q[order], np.concatenate([pos, pos[:50], [-1, -1]])[order]
    found, out = st.lookup_batch(q)
    assert st.pool.stats.misses > 3  # the query spans several partitions
    assert (found == (truth >= 0)).all()
    hit = truth[truth >= 0]
    for c, v in values.items():
        assert out[c].dtype == v.dtype
        assert out[c].tolist() == v[hit].tolist(), c


@pytest.mark.parametrize("cls", STORES)
def test_multiple_partitions_created(tmp_path, data, cls):
    keys, values = data
    st = cls(str(tmp_path), partition_bytes=2048)
    st.build(keys, values)
    assert st.n_partitions > 3


def test_partition_bytes_controls_count(tmp_path, data):
    keys, values = data
    small = ArrayStore(str(tmp_path), partition_bytes=1024, name="s")
    big = ArrayStore(str(tmp_path), partition_bytes=1 << 20, name="b")
    small.build(keys, values)
    big.build(keys, values)
    assert small.n_partitions > big.n_partitions
    assert big.n_partitions == 1


def test_duplicate_keys_rejected(tmp_path):
    st = ArrayStore(str(tmp_path))
    with pytest.raises(ValueError):
        st.build(np.array([1, 1, 2]), {"v": np.array([1, 2, 3])})


def test_empty_store(tmp_path):
    st = ArrayStore(str(tmp_path))
    st.build(np.empty(0, np.int64), {"v": np.empty(0, np.int64)})
    found, out = st.lookup_batch(np.array([1, 2]))
    assert not found.any()


def test_empty_query(tmp_path, data):
    keys, values = data
    st = ArrayStore(str(tmp_path))
    st.build(keys, values)
    found, out = st.lookup_batch(np.empty(0, np.int64))
    assert len(found) == 0


def test_route_out_of_bounds(tmp_path):
    """Keys outside every partition's bounds, or in a gap between two
    partitions, are not found and load nothing."""
    st = ArrayStore(str(tmp_path), partition_bytes=128)
    st.build(np.r_[10:58, 1000:1048], {"v": np.arange(96)})  # 8 rows per partition
    assert ((st._hi[:-1] == 57) & (st._lo[1:] == 1000)).any()  # a gap between two
    found, out = st.lookup_batch(np.array([0, 10, 500, 1047, 5000]))
    assert found.tolist() == [False, True, False, True, False]
    assert out["v"].tolist() == [0, 95]
    st.pool.clear()
    st.pool.stats.reset()
    assert not st.lookup_batch(np.array([0, 58, 500, 999, 1048]))[0].any()
    assert st.pool.stats.misses == 0


@pytest.mark.parametrize("codec", ["z", "gzip", "lzma"])
def test_compression_shrinks_disk(tmp_path, codec):
    keys = np.arange(20_000, dtype=np.int64)
    values = {"v": np.zeros(20_000, dtype=np.int64)}  # highly compressible
    plain = ArrayStore(str(tmp_path), codec="none", name="p")
    comp = ArrayStore(str(tmp_path), codec=codec, name=f"c{codec}")
    plain.build(keys, values)
    comp.build(keys, values)
    assert comp.nbytes_disk < plain.nbytes_disk / 5


def test_dict_codec_roundtrip_and_shrink(tmp_path):
    keys = np.arange(20_000, dtype=np.int64)
    values = {"v": np.tile(np.array(["LONGVALUE_A", "LONGVALUE_B"]), 10_000)}
    plain = ArrayStore(str(tmp_path), codec="none", name="p")
    d = ArrayStore(str(tmp_path), codec="dict", name="d")
    plain.build(keys, values)
    d.build(keys, values)
    assert d.nbytes_disk < plain.nbytes_disk
    found, out = d.lookup_batch(keys[:50])
    assert found.all() and (out["v"][:50] == values["v"][:50]).all()


def test_pool_shared_across_stores(tmp_path, data):
    keys, values = data
    pool = MemoryPool(None)
    a = ArrayStore(str(tmp_path), pool=pool, name="a")
    a.build(keys, values)
    a.lookup_batch(keys[:10])
    assert pool.stats.misses > 0


def test_pool_budget_causes_evictions(tmp_path, data):
    keys, values = data
    pool = MemoryPool(8 * 1024)
    st = ArrayStore(str(tmp_path), pool=pool, partition_bytes=2048)
    st.build(keys, values)
    st.lookup_batch(np.sort(keys))
    st.lookup_batch(np.sort(keys))
    assert pool.stats.evictions > 0
    assert pool.stats.bytes_read > 0


def test_unbounded_pool_second_pass_all_hits(tmp_path, data):
    keys, values = data
    pool = MemoryPool(None)
    st = ArrayStore(str(tmp_path), pool=pool, partition_bytes=2048)
    st.build(keys, values)
    st.lookup_batch(keys)
    misses_after_first = pool.stats.misses
    st.lookup_batch(keys)
    assert pool.stats.misses == misses_after_first  # fully cached


def test_each_partition_loaded_once_per_sorted_batch(tmp_path, data):
    keys, values = data
    pool = MemoryPool(1)  # evicts immediately — only batch grouping saves us
    st = ArrayStore(str(tmp_path), pool=pool, partition_bytes=2048)
    st.build(keys, values)
    st.lookup_batch(keys)  # unsorted input is sorted internally
    assert pool.stats.misses == st.n_partitions


def _equal_partitions(tmp_path, cls, n):
    """A store of ``n`` partitions of equal resident size, and that size."""
    st = cls(str(tmp_path), partition_bytes=2048)  # 16-byte rows → 128 per partition
    st.build(np.arange(128 * n), {"v": np.arange(128 * n)})
    sizes = {st._payload_nbytes(st._load_partition(pi)) for pi in range(n)}
    assert st.n_partitions == n and len(sizes) == 1
    return st, sizes.pop()


@pytest.mark.parametrize("cls", STORES)
def test_resident_partitions_hit_before_loads(tmp_path, cls):
    """With a pool of k < n partitions, a second full sorted batch hits the
    k partitions the first one left resident before loading the rest."""
    n, k = 10, 4
    st, size = _equal_partitions(tmp_path, cls, n)
    st.pool = MemoryPool(k * size)
    keys = np.arange(128 * n)
    st.lookup_batch(keys)
    assert (st.pool.stats.hits, st.pool.stats.misses) == (0, n)
    st.pool.stats.reset()
    found, out = st.lookup_batch(keys)
    assert found.all() and out["v"].tolist() == keys.tolist()
    assert (st.pool.stats.hits, st.pool.stats.misses) == (k, n - k)


@pytest.mark.parametrize("cls", STORES)
def test_answers_identical_whatever_is_resident(tmp_path, data, cls):
    keys, values = data
    ref = cls(str(tmp_path), partition_bytes=2048, name="ref")
    ref.build(keys, values)
    st = cls(str(tmp_path), partition_bytes=2048, name="small", pool=MemoryPool(3 * 2048))
    st.build(keys, values)
    rng = np.random.default_rng(2)
    q = rng.integers(-10, 5100, 700)
    expect = ref.lookup_batch(q)
    for warm in (None, q[q < 1000], keys, q[q > 4000]):
        if warm is None:
            st.pool.clear()
        else:
            st.lookup_batch(warm)
        found, out = st.lookup_batch(q)
        assert (found == expect[0]).all()
        for c in values:
            assert out[c].tolist() == expect[1][c].tolist(), c


@pytest.mark.parametrize("cls", STORES)
def test_baseline_partitions_store_values_as_given(tmp_path, cls):
    """Only T_aux narrows its codes: AB and HB partitions read back the
    rows exactly as written, in the values' own dtype and Python type."""
    keys = np.arange(300)
    values = {
        "small": np.arange(300) % 5,
        "obj": np.array([k if k % 2 else f"s{k}" for k in range(300)], dtype=object),
    }
    st = cls(str(tmp_path), partition_bytes=1024)
    st.build(keys, values)
    assert st.n_partitions > 1
    rows = {}
    for pi in range(st.n_partitions):
        payload = st._load_partition(pi)
        if cls is ArrayStore:
            assert payload["cols"]["small"].dtype == values["small"].dtype
            cols = (payload["cols"][c].tolist() for c in values)
            rows.update(zip(payload["keys"].tolist(), zip(*cols)))
        else:
            rows.update(payload["map"])
    assert rows == dict(zip(keys.tolist(), zip(*(v.tolist() for v in values.values()))))
    assert all(type(r[0]) is int for r in rows.values())


def test_store_pickle_roundtrip(tmp_path, data):
    keys, values = data
    st = ArrayStore(str(tmp_path), codec="z", partition_bytes=4096)
    st.build(keys, values)
    st2 = pickle.loads(pickle.dumps(st))
    found, out = st2.lookup_batch(keys[:20])
    assert found.all() and (out["num"][:20] == values["num"][:20]).all()


def test_disk_bytes_match_files(tmp_path, data):
    keys, values = data
    st = ArrayStore(str(tmp_path), codec="z", partition_bytes=4096)
    st.build(keys, values)
    import os
    total = sum(os.path.getsize(f) for f in st._files)
    assert total == st.nbytes_disk


def test_hash_store_resident_estimate_positive(tmp_path, data):
    keys, values = data
    st = HashStore(str(tmp_path), partition_bytes=4096)
    st.build(keys, values)
    payload = st._load_partition(0)
    assert st._payload_nbytes(payload) > 0


def test_simulated_bandwidth_slows_loads(tmp_path, data):
    import time as _time
    keys, values = data
    fast_pool = MemoryPool(1)
    slow_pool = MemoryPool(1, io_bandwidth=1e6)
    fast = ArrayStore(str(tmp_path), pool=fast_pool, partition_bytes=4096, name="f")
    slow = ArrayStore(str(tmp_path), pool=slow_pool, partition_bytes=4096, name="s2")
    fast.build(keys, values)
    slow.build(keys, values)
    t0 = _time.perf_counter(); fast.lookup_batch(keys); t_fast = _time.perf_counter() - t0
    t0 = _time.perf_counter(); slow.lookup_batch(keys); t_slow = _time.perf_counter() - t0
    assert t_slow > t_fast
    assert slow_pool.stats.io_time >= slow_pool.stats.bytes_read / 1e6 * 0.99
