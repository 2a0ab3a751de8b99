"""Unit tests for key/value encodings (repro.core.encoding)."""
import math

import numpy as np
import pandas as pd
import pickle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoding import TABLE_ROWS, KeySpace, LabelCodec, decode_map_bytes


class TestKeySpaceSimple:
    ks = KeySpace((1,), (1000,))

    def test_size(self):
        assert self.ks.size == 1000

    def test_n_components(self):
        assert self.ks.n_components == 1

    def test_input_dim_three_digits(self):
        assert self.ks.input_dim == 30  # 3 decimal digits × 10

    def test_dense_index_low(self):
        assert self.ks.dense_index(np.array([1]))[0] == 0

    def test_dense_index_high(self):
        assert self.ks.dense_index(np.array([1000]))[0] == 999

    def test_dense_index_1d_and_2d_agree(self):
        a = self.ks.dense_index(np.array([5, 7]))
        b = self.ks.dense_index(np.array([[5], [7]]))
        assert (a == b).all()

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            self.ks.dense_index(np.array([0]))
        with pytest.raises(ValueError):
            self.ks.dense_index(np.array([1001]))

    def test_from_dense_roundtrip(self):
        keys = np.array([1, 42, 999, 1000])
        back = self.ks.from_dense(self.ks.dense_index(keys))
        assert (back[:, 0] == keys).all()

    def test_contains(self):
        ok = self.ks.contains(np.array([0, 1, 500, 1000, 1001]))
        assert ok.tolist() == [False, True, True, True, False]

    def test_features_shape_dtype(self):
        f = self.ks.features(np.array([1, 2, 3]))
        assert f.shape == (3, 30) and f.dtype == np.float32

    def test_features_one_hot_per_digit(self):
        f = self.ks.features(np.array([124]))  # offset 123 → digits 1,2,3
        assert f.sum() == 3.0
        blocks = f[0].reshape(3, 10)
        assert blocks[0, 1] == 1 and blocks[1, 2] == 1 and blocks[2, 3] == 1

    def test_features_distinct_keys_distinct(self):
        f = self.ks.features(np.arange(1, 101))
        assert len(np.unique(f, axis=0)) == 100

    def test_features_from_dense_matches(self):
        keys = np.array([3, 77, 856])
        a = self.ks.features(keys)
        b = self.ks.features_from_dense(self.ks.dense_index(keys))
        assert (a == b).all()


class TestKeySpaceComposite:
    ks = KeySpace((1, 1), (500, 8))  # e.g. (orderkey, linenumber)

    def test_size(self):
        assert self.ks.size == 4000

    def test_dense_unique(self):
        keys = np.array([[o, l] for o in range(1, 51) for l in range(1, 9)])
        d = self.ks.dense_index(keys)
        assert len(np.unique(d)) == len(keys)

    def test_roundtrip(self):
        keys = np.array([[1, 1], [500, 8], [250, 4]])
        back = self.ks.from_dense(self.ks.dense_index(keys))
        assert (back == keys).all()

    def test_wrong_component_count(self):
        with pytest.raises(ValueError):
            self.ks.dense_index(np.array([[1, 2, 3]]))

    def test_input_dim(self):
        assert self.ks.input_dim == 30 + 10  # 3 digits + 1 digit

    def test_from_columns(self):
        df = pd.DataFrame({"a": [3, 10, 5], "b": [0, 4, 2]})
        ks = KeySpace.from_columns(df, ["a", "b"])
        assert ks.lows == (3, 0) and ks.cards == (8, 5)

    @given(st.lists(st.tuples(st.integers(1, 500), st.integers(1, 8)),
                    min_size=1, max_size=50))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, keys):
        arr = np.array(keys)
        back = self.ks.from_dense(self.ks.dense_index(arr))
        assert (back == arr).all()


class TestKeySpaceRadices:
    def test_with_radices_dim(self):
        ks = KeySpace((1,), (70,)).with_radices((10, 7))
        assert ks.input_dim == 17

    def test_radices_too_small_raise(self):
        with pytest.raises(ValueError):
            KeySpace((1,), (100,)).with_radices((7, 7))

    def test_radix_features_one_hot(self):
        ks = KeySpace((0,), (70,)).with_radices((10, 7))
        f = ks.features(np.array([23]))  # 23 = 3*7 + 2 → digits (3, 2)
        assert f.sum() == 2.0
        assert f[0, 3] == 1.0 and f[0, 10 + 2] == 1.0

    def test_radix_features_distinct(self):
        ks = KeySpace((0,), (70,)).with_radices((10, 7))
        f = ks.features(np.arange(70))
        assert len(np.unique(f, axis=0)) == 70

    def test_radix_digit_exposes_value(self):
        # a value that is a radix digit of the key is linearly separable
        ks = KeySpace((0,), (35,)).with_radices((5, 7))
        keys = np.arange(35)
        f = ks.features(keys)
        digit = keys % 7
        # each digit class occupies exactly one input column
        for d in range(7):
            col = 5 + d
            assert (f[:, col] == (digit == d)).all()


@pytest.mark.parametrize("ks", [
    KeySpace((1,), (1000,)),
    KeySpace((3,), (400_000,)),
    KeySpace((1, 1), (500, 8)),
    KeySpace((-5, 0, 2), (12_345, 3, 101)),
    KeySpace((0,), (70,)).with_radices((10, 7)),
    KeySpace((0,), (30_030,)).with_radices((7, 11, 13, 2, 3, 5)),
], ids=["decimal", "decimal-6-digits", "composite", "composite-3", "radices", "radices-6"])
def test_features_from_dense_equals_features_of_keys(ks):
    """Featurizing straight from the dense index gives the one-hot matrix of
    the key tuples, for every key of small spaces and a sample of big ones."""
    idx = np.arange(ks.size)
    if ks.size > 50_000:
        idx = np.random.default_rng(0).integers(0, ks.size, 50_000)
    f = ks.features_from_dense(idx)
    assert f.dtype == np.float32 and f.shape == (len(idx), ks.input_dim)
    assert (f == ks.features(ks.from_dense(idx))).all()
    assert all(math.prod(b) <= TABLE_ROWS for b in ks.blocks)
    assert sum(sum(b) for b in ks.blocks) == ks.input_dim


def test_blocks_merge_digits_of_one_source():
    """Consecutive one-hot blocks of one component (or of the radices) merge
    while their combinations stay within TABLE_ROWS; components never merge."""
    assert KeySpace((3,), (400_000,)).blocks == ((10, 10, 10), (10, 10, 10))
    assert KeySpace((1, 1), (5000, 8)).blocks == ((10,), (10, 10, 10), (10,))
    radices = KeySpace((0,), (30_030,)).with_radices((7, 11, 13, 2, 3, 5))
    assert radices.blocks == ((7, 11), (13, 2, 3, 5))


class TestLabelCodec:
    def test_int_roundtrip(self):
        c = LabelCodec(np.array([5, 3, 5, 9]))
        codes = c.encode(np.array([3, 5, 9]))
        assert codes.tolist() == [0, 1, 2]
        assert c.decode(codes).tolist() == [3, 5, 9]

    def test_string_roundtrip(self):
        c = LabelCodec(pd.Series(["b", "a", "b", "c"]))
        assert c.n_classes == 3
        assert c.decode(c.encode(["c", "a"])).tolist() == ["c", "a"]

    def test_codes_contiguous(self):
        c = LabelCodec(np.array([100, 7, 100, 55]))
        assert sorted(c.encode(c.classes_).tolist()) == [0, 1, 2]

    def test_deterministic_order(self):
        a = LabelCodec(np.array([3, 1, 2]))
        b = LabelCodec(np.array([2, 3, 1]))
        assert (a.classes_ == b.classes_).all()

    def test_unseen_value_raises(self):
        c = LabelCodec(np.array([1, 2]))
        with pytest.raises(KeyError):
            c.encode(np.array([3]))

    def test_decode_out_of_range_raises(self):
        c = LabelCodec(np.array([1, 2]))
        with pytest.raises(IndexError):
            c.decode(np.array([2]))

    def test_pickle_roundtrip(self):
        c = LabelCodec(np.array(["x", "y"]))
        c2 = pickle.loads(pickle.dumps(c))
        assert c2.encode(["y"]).tolist() == [1]

    def test_extended_returns_self_when_nothing_is_unseen(self):
        c = LabelCodec(np.array([1, 2]))
        assert c.extended(np.array([2, 1, 2])) is c

    @pytest.mark.parametrize("old, new", [
        (np.array([3, 1]), np.array([7, 1])),
        (np.array([0.5, 1.5]), np.array([2.5])),
        (np.array(["a", "b"]), np.array(["longer"])),
        (pd.Series(["a", "b"], dtype=object), pd.Series(["c"], dtype=object)),
    ])
    def test_extended_keeps_dtype_of_same_kind(self, old, new):
        c = LabelCodec(old)
        e = c.extended(new)
        assert e.classes_.dtype.kind == c.classes_.dtype.kind
        assert e.classes_[: c.n_classes].tolist() == c.classes_.tolist()
        assert e.decode(e.encode(new)).tolist() == list(new)

    def test_extended_mixed_types_go_object_and_keep_types(self):
        c = LabelCodec(np.array([1, 2, 3]))
        e = c.extended(pd.Series(["x"]))
        assert e.classes_.dtype == object
        assert e.encode(np.array([1, 2, 3])).tolist() == c.encode(np.array([1, 2, 3])).tolist()
        assert [type(v) for v in e.decode(e.encode(np.array([1, 3])))] == [int, int]
        assert e.decode(e.encode(["x"])).tolist() == ["x"]
        assert c.classes_.dtype.kind == "i"  # the original is untouched

    def test_decode_map_bytes_positive_and_monotone(self):
        small = {"a": LabelCodec(np.arange(3))}
        big = {"a": LabelCodec(np.arange(3000))}
        assert 0 < decode_map_bytes(small) < decode_map_bytes(big)
