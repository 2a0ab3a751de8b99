"""Tests for the row-level auxiliary table (repro.core.aux_table)."""
import pickle
from unittest import mock

import numpy as np
import pytest

from repro.baselines.compression import get_codec
from repro.baselines.memory_pool import MemoryPool
from repro.baselines.partition_store import PartitionedStore
from repro.core.aux_table import AuxTable, _CodeStore, _rows_per_word


@pytest.fixture
def aux(tmp_path):
    t = AuxTable(str(tmp_path), codec="z", partition_bytes=2048)
    t.build(
        np.array([5, 1, 9]),
        {
            "a": np.array([50, 10, 90], dtype=np.int32),
            "b": np.array([5, 1, 9], dtype=np.int32),
        },
    )
    return t


def test_lookup_found_all_columns(aux):
    mask, codes = aux.lookup(np.array([1, 5, 9]))
    assert mask.all()
    assert codes["a"].tolist() == [10, 50, 90]
    assert codes["b"].tolist() == [1, 5, 9]


def test_lookup_missing(aux):
    mask, codes = aux.lookup(np.array([2, 3]))
    assert not mask.any() and len(codes["a"]) == 0


def test_lookup_mixed_order_preserved(aux):
    mask, codes = aux.lookup(np.array([9, 4, 1]))
    assert mask.tolist() == [True, False, True]
    assert codes["a"].tolist() == [90, 10]  # found keys in query order


def test_contains(aux):
    assert aux.lookup(np.array([5, 6]))[0].tolist() == [True, False]


def test_n_entries(aux):
    assert aux.n_entries == 3


def test_apply_upsert_new(aux):
    aux.apply(
        upsert_keys=np.array([7]),
        upsert_codes={"a": np.array([70]), "b": np.array([7])},
    )
    mask, codes = aux.lookup(np.array([7]))
    assert mask.all() and codes["a"].tolist() == [70]
    assert aux.n_entries == 4


def test_apply_upsert_overwrites(aux):
    aux.apply(
        upsert_keys=np.array([5]),
        upsert_codes={"a": np.array([55]), "b": np.array([5])},
    )
    _, codes = aux.lookup(np.array([5]))
    assert codes["a"].tolist() == [55]
    assert aux.n_entries == 3  # no duplicate entry


def test_apply_remove(aux):
    aux.apply(remove_keys=np.array([5, 9]))
    assert aux.n_entries == 1
    assert not aux.lookup(np.array([5]))[0][0]


def test_remove_keys(aux):
    aux.apply(remove_keys=np.array([1, 9]))
    assert aux.n_entries == 1
    assert aux.lookup(np.array([5]))[0][0]


def test_rebuild_invalidates_stale_cache(tmp_path):
    pool = MemoryPool(None)
    t = AuxTable(str(tmp_path), pool=pool)
    t.build(np.array([1]), {"a": np.array([10], dtype=np.int32)})
    t.lookup(np.array([1]))  # warm the cache
    t.apply(upsert_keys=np.array([1]), upsert_codes={"a": np.array([99])})
    _, codes = t.lookup(np.array([1]))
    assert codes["a"].tolist() == [99]


def test_failed_apply_leaves_table_unchanged(aux, tmp_path):
    keys, codes = aux.master()
    files = sorted(str(p) for p in tmp_path.rglob("*"))
    with pytest.raises(ValueError):
        aux.apply(upsert_keys=np.array([7, 7]), upsert_codes={"a": np.array([1, 2]), "b": np.array([1, 2])})
    assert aux.master()[0].tolist() == keys.tolist()
    assert aux.master()[1]["a"].tolist() == codes["a"].tolist()
    assert sorted(str(p) for p in tmp_path.rglob("*")) == files  # no half-written generation
    assert aux.lookup(np.array([5, 7]))[0].tolist() == [True, False]


def test_keys_sorted_within_store(aux):
    """Partition rows are in key order: ``V_aux.rank`` of the sorted keys
    counts up from 0, and row ``rank(k)`` holds key k's codes."""
    keys = np.array([1, 5, 9])
    rows = aux._vaux.rank(keys)
    assert rows.tolist() == [0, 1, 2]
    payload = aux._store._load_partition(0)
    assert payload["cols"]["a"][rows - payload["start"]].tolist() == [10, 50, 90]


def test_master_roundtrip(aux):
    keys, codes = aux.master()
    assert keys.tolist() == [1, 5, 9]
    assert codes["a"].tolist() == [10, 50, 90]


def test_nbytes_disk_positive_and_grows(aux):
    before = aux.nbytes_disk
    aux.apply(
        upsert_keys=np.arange(100, 1100),
        upsert_codes={
            "a": np.arange(1000, dtype=np.int32),
            "b": np.arange(1000, dtype=np.int32),
        },
    )
    assert aux.nbytes_disk > before


def test_empty_build(tmp_path):
    t = AuxTable(str(tmp_path))
    t.build(np.empty(0, np.int64), {"a": np.empty(0, np.int32)})
    mask, _ = t.lookup(np.array([1, 2]))
    assert not mask.any()
    assert t.nbytes_disk == 0


def test_compression_applied(tmp_path):
    keys = np.arange(50_000)
    codes = {"a": np.zeros(50_000, dtype=np.int32)}
    tz = AuxTable(str(tmp_path), codec="z")
    tn = AuxTable(str(tmp_path), codec="none")
    tz.build(keys, dict(codes))
    tn.build(keys, dict(codes))
    assert tz.nbytes_disk < tn.nbytes_disk / 3


def test_row_level_stores_key_once(tmp_path):
    """A misclassified tuple costs one key entry regardless of column count
    (the Algorithm 1 row-level layout)."""
    keys = np.arange(10_000)
    many = {f"c{i}": np.zeros(10_000, dtype=np.int32) for i in range(4)}
    one = {"c0": np.zeros(10_000, dtype=np.int32)}
    t4 = AuxTable(str(tmp_path), codec="none")
    t1 = AuxTable(str(tmp_path), codec="none")
    t4.build(keys, many)
    t1.build(keys, one)
    # 4 columns cost 3 extra int32 arrays, NOT 3 extra key arrays
    assert t4.nbytes_disk - t1.nbytes_disk < 3 * 4 * 10_000 * 1.2


def _stored_dtypes(t: AuxTable) -> dict:
    """Code dtypes of the current generation, as written to every partition."""
    st = t._store
    dts = {c: {st._load_partition(pi)["cols"][c].dtype for pi in range(st.n_partitions)}
           for c in t.columns}
    assert all(len(d) == 1 for d in dts.values())
    return {c: d.pop() for c, d in dts.items()}


def test_codes_stored_in_minimal_width(tmp_path):
    t = AuxTable(str(tmp_path), codec="z", partition_bytes=256)
    keys = np.arange(0, 600, 3)
    t.build(keys, {"a": keys % 256, "b": keys % 7, "c": keys * 200})
    assert t._store.n_partitions > 1
    assert _stored_dtypes(t) == {"a": np.uint8, "b": np.uint8, "c": np.uint32}
    t.apply(upsert_keys=np.array([3, 6]),
            upsert_codes={"a": [300, 6], "b": [256, 1], "c": [0, 1200]})
    assert _stored_dtypes(t) == {"a": np.uint16, "b": np.uint16, "c": np.uint32}
    mask, codes = t.lookup(np.array([3, 6, 255]))
    assert mask.all() and codes["a"].tolist() == [300, 6, 255]
    assert codes["b"].tolist() == [256, 1, 255 % 7]
    assert codes["c"].tolist() == [0, 1200, 51000]


def test_narrow_partitions_are_smaller(tmp_path):
    keys = np.arange(5000)
    codes = {"a": (keys * 7919 % 200).astype(np.int32)}
    t = AuxTable(str(tmp_path), codec="z", partition_bytes=4096)
    t.build(keys, codes)
    # a 1-byte code and no key per row, against 12 bytes as int64 key + int32
    assert t._store.n_partitions == -(-5000 // (4096 // 1))


def test_lookup_and_master_stay_int32(aux):
    aux.apply(upsert_keys=np.array([2]), upsert_codes={"a": [20], "b": [2]})
    mask, codes = aux.lookup(np.array([2, 5, 3]))
    assert mask.tolist() == [True, True, False]
    assert all(v.dtype == np.int32 for v in codes.values())
    keys, master = aux.master()
    assert keys.dtype == np.int64 and all(v.dtype == np.int32 for v in master.values())
    assert master["a"].tolist() == [10, 20, 50, 90]


def test_apply_on_bounded_pool_matches_unbounded(tmp_path):
    """``apply`` reads every partition back through the pool; a pool smaller
    than the table evicts during that read without changing the result."""
    keys = np.arange(0, 3000, 2)
    codes = {"a": (keys % 251).astype(np.int32), "b": (keys % 7).astype(np.int32)}
    small = MemoryPool(2048)
    masters = []
    for name, pool in (("small", small), ("unbounded", MemoryPool(None))):
        t = AuxTable(str(tmp_path / name), partition_bytes=256, pool=pool)
        t.build(keys, codes)
        t.apply(upsert_keys=np.array([1, 4, 5000]), upsert_codes={"a": [1, 2, 3], "b": [4, 5, 6]},
                remove_keys=np.array([0, 10, 2998]))
        masters.append(t.master())
    assert t._store.n_partitions > 4 and small.stats.evictions > 0
    (k1, c1), (k2, c2) = masters
    keep = ~np.isin(keys, [0, 4, 10, 2998])
    want = np.sort(np.concatenate([keys[keep], [1, 4, 5000]]))
    assert k1.tolist() == k2.tolist() == want.tolist()
    assert c1["a"].tolist() == c2["a"].tolist()
    assert c1["b"].tolist() == c2["b"].tolist()
    assert c1["a"][np.searchsorted(want, [1, 4, 5000, 6])].tolist() == [1, 2, 3, 6]


@pytest.fixture
def gappy(tmp_path):
    """Keys 100..397 in steps of 3 over several partitions, on a pool that
    counts its loads."""
    pool = MemoryPool(None)
    t = AuxTable(str(tmp_path), codec="z", partition_bytes=16, pool=pool)
    keys = np.arange(100, 400, 3)
    t.build(keys, {"a": (keys % 200).astype(np.int32)})
    assert t._store.n_partitions > 4
    return t, keys, pool


def test_non_members_load_nothing(gappy):
    t, keys, pool = gappy
    size = t._vaux.size
    assert size == 398
    absent = np.array([0, 99, 101, 102, 395, 396, size, size + 1, 1 << 40, -1, -(1 << 40)])
    pool.clear()
    pool.stats.reset()
    mask, codes = t.lookup(absent)
    assert not mask.any() and len(codes["a"]) == 0
    assert pool.stats.misses == 0 and pool.stats.hits == 0
    mask, codes = t.lookup(np.concatenate([absent, keys[::-7]]))
    assert mask.tolist() == [False] * len(absent) + [True] * len(keys[::-7])
    assert codes["a"].tolist() == (keys[::-7] % 200).tolist()


def test_loaded_partitions_hold_no_keys(gappy):
    t, _, _ = gappy
    for pi in range(t._store.n_partitions):
        payload = t._store._load_partition(pi)
        assert set(payload) == {"start", "cols"} and set(payload["cols"]) == {"a"}
        assert payload["cols"]["a"].dtype == np.uint8


def _dir_files(path) -> list:
    return [p for p in path.rglob("*") if p.is_file()]


def test_emptied_table_writes_no_vaux(tmp_path):
    """Through build and apply, under both codecs, the directory holds the
    partitions alone, and ``nbytes_disk`` adds ``V_aux`` compressed with the
    table's codec, 0 for an empty table."""
    for codec in ("z", "lzma"):
        t = AuxTable(str(tmp_path / codec), codec=codec)

        def check():
            files = _dir_files(tmp_path / codec)
            assert not any(p.name == "vaux.bin" for p in files)
            assert sum(p.stat().st_size for p in files) == t._store.nbytes_disk
            vaux = len(get_codec(codec).compress(t._vaux.raw_bytes())) if t.n_entries else 0
            assert t.nbytes_disk == t._store.nbytes_disk + vaux

        t.build(np.empty(0, np.int64), {"a": np.empty(0, np.int32)})
        check()
        assert t.nbytes_disk == 0
        t.apply(upsert_keys=np.array([3, 8]), upsert_codes={"a": [1, 2]})
        check()
        assert t.nbytes_disk > t._store.nbytes_disk
        t.apply(remove_keys=np.array([3, 8]))
        check()
        assert t.nbytes_disk == 0
        assert not t.lookup(np.array([3, 8, 0]))[0].any()
        assert t.master()[0].tolist() == [] and t.master()[1]["a"].tolist() == []


def test_upsert_widens_key_span(aux):
    assert aux._vaux.size == 10
    aux.apply(upsert_keys=np.array([70_000, 0]), upsert_codes={"a": [7, 0], "b": [1, 2]})
    assert aux._vaux.size == 70_001
    mask, codes = aux.lookup(np.array([70_000, 0, 9, 69_999, 70_001]))
    assert mask.tolist() == [True, True, True, False, False]
    assert codes["a"].tolist() == [7, 0, 90]
    assert aux.master()[0].tolist() == [0, 1, 5, 9, 70_000]


def test_pickle_carries_vaux(gappy):
    """``V_aux`` travels in the pickle: loading opens no file, the copy has
    the same bits, and its lookups and rows equal the original's."""
    t, keys, _ = gappy
    blob = pickle.dumps(t)
    with mock.patch("builtins.open", side_effect=AssertionError("file opened")):
        copy = pickle.loads(blob)
    assert copy._vaux.size == t._vaux.size
    assert copy._vaux.raw_bytes() == t._vaux.raw_bytes()
    probe = np.arange(90, 420)
    (m1, c1), (m2, c2) = copy.lookup(probe), t.lookup(probe)
    assert m1.tolist() == m2.tolist() and c1["a"].tolist() == c2["a"].tolist()
    (k1, c1), (k2, c2) = copy.master(), t.master()
    assert k1.tolist() == k2.tolist() == keys.tolist() and c1["a"].tolist() == c2["a"].tolist()


def test_pinned_bytes_are_vaux_and_its_directory(tmp_path):
    pool = MemoryPool(None)
    t = AuxTable(str(tmp_path), pool=pool)

    def vaux_bytes():
        return t._vaux.nbytes_resident() + t._vaux.rank_directory().nbytes

    t.build(np.array([1, 5, 9]), {"a": np.array([1, 2, 3], dtype=np.int32)})
    assert pool.pinned_bytes == vaux_bytes() == 8 + 4
    t.apply(upsert_keys=np.array([100_000]), upsert_codes={"a": [4]})
    assert pool.pinned_bytes == vaux_bytes() == 12_504 + 4 * 1563  # re-pinned, not added
    t.apply(remove_keys=np.array([100_000]))
    assert pool.pinned_bytes == vaux_bytes() == 8 + 4


# ------------------------------------------------------------ packed layout
def _random_codes(n, radix=(7, 300, 3), seed=0):
    rng = np.random.default_rng(seed)
    codes = {f"c{i}": rng.integers(0, r, n).astype(np.int32) for i, r in enumerate(radix)}
    for v, r in zip(codes.values(), radix):
        v[:1] = r - 1  # the radix is the largest code plus 1
    return codes


def _periodic_codes(n):
    """Digits of the row number: each column repeats with a short period,
    the way codes of a learnable relation do."""
    i = np.arange(n)
    return {f"d{j}": (i // 10 ** j % 10).astype(np.int32) for j in range(4)}


def _round_trips(t, keys, codes):
    """``master()`` and ``lookup`` give back exactly the built rows, warm
    and from a cleared pool."""
    order = np.argsort(keys)
    for _ in range(2):
        got_keys, got = t.master()
        assert got_keys.tolist() == keys[order].tolist()
        assert set(got) == set(codes)
        for c, v in codes.items():
            assert got[c].dtype == np.int32 and got[c].tolist() == v[order].tolist()
        found, vals = t.lookup(keys)
        assert found.all() and all(vals[c].tolist() == v.tolist() for c, v in codes.items())
        t.pool.clear()


@pytest.mark.parametrize("codes, radix", [
    (_random_codes(5000), [7, 300, 3]),
    (_periodic_codes(5000), None),
    ({"zero": np.zeros(5000, np.int32), **_random_codes(5000, (5,))}, [1, 5]),
    (_random_codes(3000, (1 << 22, 1 << 22, 1 << 20)), None),  # ∏ radix = 2^64
    (_random_codes(3000, (1 << 22, 1 << 22, (1 << 20) - 1)), [1 << 22, 1 << 22, (1 << 20) - 1]),
    ({"a": np.empty(0, np.int32)}, None),
    (_random_codes(3000, (256, 1)), [256, 1]),  # a radix equal to a dtype's range
    (_random_codes(3000, (1 << 16,)), [1 << 16]),
], ids=["random-packs", "periodic-per-column", "radix-1", "product-2^64", "product-below-2^64",
        "empty", "radix-256", "radix-2^16"])
@pytest.mark.parametrize("codec", ["z", "lzma"])
def test_layout_choice_round_trips(tmp_path, codes, radix, codec):
    n = len(next(iter(codes.values())))
    perm = np.random.default_rng(1).permutation(n)  # rows in key order are ``codes``
    keys, codes = np.arange(0, 3 * n, 3)[perm], {c: v[perm] for c, v in codes.items()}
    t = AuxTable(str(tmp_path), codec=codec, partition_bytes=4096)
    t.build(keys, codes)
    assert t._store.radix == radix
    _round_trips(t, keys, codes)


def test_pack_matches_python_int_reference():
    """Words equal the mixed-radix numbers computed with Python ints:
    column 0 and the first row of a word least significant."""
    radix = [3, 1, 250]
    cols = {"a": np.array([2, 0, 1, 2, 1], np.uint8), "b": np.zeros(5, np.uint8),
            "c": np.array([249, 7, 0, 100, 5], np.uint8)}
    base, k = 750, 6  # 750^6 <= 2^64 < 750^7
    assert _rows_per_word(base) == k and base ** k <= 1 << 64 < base ** (k + 1)
    nums = [int(a) + 3 * (int(b) + int(c)) for a, b, c in zip(*cols.values())]
    word = sum(v * base ** j for j, v in enumerate(nums))
    raw = _CodeStore._pack({"start": 40, "cols": cols}, radix)
    assert np.frombuffer(raw, np.uint64).tolist() == [40, 5, word]
    assert [_rows_per_word(b) for b in (1, 2, 3, 1 << 32, (1 << 32) + 1, (1 << 64) - 1)] == [
        64, 64, 40, 2, 1, 1]


def _candidate_bytes(t) -> tuple[int, int]:
    """Compressed bytes of the per-column and the packed layout of the
    current generation's rows."""
    st = t._store
    payloads = [st._load_partition(pi) for pi in range(st.n_partitions)]
    radix = [max(int(p["cols"][c].max()) for p in payloads) + 1 for c in st.dtypes]
    per_column = PartitionedStore._encode(st, payloads)
    packed = [st.codec.compress(_CodeStore._pack(p, radix)) for p in payloads]
    return sum(map(len, per_column)), sum(map(len, packed))


@pytest.mark.parametrize("codes", [_random_codes(5000), _periodic_codes(5000)],
                         ids=["random", "periodic"])
def test_nbytes_disk_is_smaller_candidate_plus_vaux(tmp_path, codes):
    """Under both codecs the directory holds the smaller layout's
    partitions alone; ``nbytes_disk`` adds ``V_aux`` compressed with the
    table's codec, which no file holds."""
    for codec in ("z", "lzma"):
        t = AuxTable(str(tmp_path / codec), codec=codec, partition_bytes=4096)
        t.build(np.arange(0, 10_000, 2), codes)
        per_column, packed = _candidate_bytes(t)
        assert (t._store.radix is not None) == (packed < per_column)
        files = _dir_files(tmp_path / codec)
        assert not any(p.name == "vaux.bin" for p in files)
        assert sum(p.stat().st_size for p in files) == t._store.nbytes_disk == min(per_column, packed)
        vaux = len(get_codec(codec).compress(t._vaux.raw_bytes()))
        assert t.nbytes_disk == min(per_column, packed) + vaux


def test_packed_partitions_load_as_per_column_payloads(tmp_path):
    """A packed generation's loaded payloads hold the same keys, rows and
    minimal-width dtypes as the per-column layout, and the unpacking counts
    as deserialization."""
    codes = _random_codes(5000)
    t = AuxTable(str(tmp_path), codec="z", partition_bytes=4096)
    t.build(np.arange(5000), codes)
    st = t._store
    assert st.radix is not None and st.n_partitions == -(-5000 // (4096 // 4))
    t.pool.clear()
    t.pool.stats.reset()
    for pi in range(st.n_partitions):
        payload = st._load_partition(pi)
        assert set(payload) == {"start", "cols"} and list(payload["cols"]) == ["c0", "c1", "c2"]
        assert payload["start"] == st._lo[pi]
        assert {c: v.dtype for c, v in payload["cols"].items()} == {
            "c0": np.uint8, "c1": np.uint16, "c2": np.uint8}
        rows = slice(st._lo[pi], st._hi[pi] + 1)
        assert all(v.tolist() == codes[c][rows].tolist() for c, v in payload["cols"].items())
    assert t.pool.stats.deserialize_time > 0


def test_layout_and_radix_follow_each_generation(tmp_path):
    """Writes switch a table between the layouts, and a code beyond the
    radix widens it in the next generation."""
    t = AuxTable(str(tmp_path), codec="z", partition_bytes=4096)
    periodic = _periodic_codes(5000)
    t.build(np.arange(5000), periodic)
    assert t._store.radix is None
    rng = np.random.default_rng(2)
    noisy = {c: rng.integers(0, 10, 5000).astype(np.int32) for c in periodic}
    t.apply(upsert_keys=np.arange(5000), upsert_codes=noisy)
    assert t._store.radix == [10, 10, 10, 10]
    row = {"d0": 10, "d1": 0, "d2": 0, "d3": 999}
    t.apply(upsert_keys=np.array([9000]), upsert_codes={c: [v] for c, v in row.items()})
    assert t._store.radix == [11, 10, 10, 1000]
    keys = np.append(np.arange(5000), 9000)
    want = {c: np.append(v, row[c]).astype(np.int32) for c, v in noisy.items()}
    _round_trips(t, keys, want)
    t.apply(upsert_keys=np.arange(5000), upsert_codes=periodic, remove_keys=np.array([9000]))
    assert t._store.radix is None
    _round_trips(t, np.arange(5000), periodic)
