"""Tests for MappingModel's digit-decomposed high-cardinality heads."""
import numpy as np
import pytest

from repro.core.encoding import KeySpace
from repro.core.model import DIGIT_THRESHOLD, MappingModel
from repro.core.nn import ArchSpec


def _x(n=500):
    ks = KeySpace((1,), (n,))
    return ks, ks.features(np.arange(1, n + 1))


def _hot(ks, n):
    """Factored features of keys 1..n: predict's input."""
    return ks.hot_positions(np.arange(n)), ks.blocks


def test_low_cardinality_direct_head():
    ks, x = _x()
    m = MappingModel(ks.input_dim, ArchSpec((8,), {}), {"a": 5})
    assert m._digits["a"] == 0
    assert set(m.net.n_classes) == {"a"}


def test_high_cardinality_split_into_digits():
    ks, x = _x()
    m = MappingModel(ks.input_dim, ArchSpec((8,), {}), {"big": 4000})
    assert m._digits["big"] == 4  # codes 0..3999 → 4 digits
    assert set(m.net.n_classes) == {f"big#d{d}" for d in range(4)}
    assert all(v == 10 for v in m.net.n_classes.values())


def test_threshold_boundary():
    ks, x = _x()
    m = MappingModel(ks.input_dim, ArchSpec((8,), {}), {"a": DIGIT_THRESHOLD})
    assert m._digits["a"] == 0
    m2 = MappingModel(ks.input_dim, ArchSpec((8,), {}), {"a": DIGIT_THRESHOLD + 1})
    assert m2._digits["a"] > 0


def test_split_labels_roundtrip_by_digit():
    ks, x = _x()
    m = MappingModel(ks.input_dim, ArchSpec((8,), {}), {"big": 300})
    codes = np.array([0, 7, 42, 299])
    sub = m.split_labels({"big": codes})
    rebuilt = sub["big#d0"] + 10 * sub["big#d1"] + 100 * sub["big#d2"]
    assert (rebuilt == codes).all()


def test_predict_codes_within_dictionary():
    ks, x = _x(200)
    m = MappingModel(ks.input_dim, ArchSpec((8,), {}), {"big": 300})
    pred = m.predict(*_hot(ks, 50))["big"]
    assert (pred >= 0).all() and (pred < 300).all()


def test_model_params_much_smaller_than_onehot_head():
    ks, _ = _x()
    split = MappingModel(ks.input_dim, ArchSpec((64,), {}), {"big": 5000})
    direct = MappingModel(
        ks.input_dim, ArchSpec((64,), {}), {"big": 5000}, digit_threshold=10**9
    )
    assert split.n_params < direct.n_params / 5


def test_fit_memorizes_digit_structured_high_cardinality():
    """A value equal to a key digit pair is learnable through digit heads."""
    n = 2000
    ks = KeySpace((1,), (n,))
    keys = np.arange(1, n + 1)
    x = ks.features(keys)
    codes = {"big": ((keys - 1) % 100).astype(np.int64)}  # 100 classes > threshold
    m = MappingModel(ks.input_dim, ArchSpec((64,), {}), codes_n := {"big": 100})
    m.fit(x, codes, epochs=40, batch_size=256, tol=0.0)
    acc = (m.predict(*_hot(ks, n))["big"] == codes["big"]).mean()
    assert acc > 0.95


def test_bytes_roundtrip():
    ks, x = _x(100)
    m = MappingModel(ks.input_dim, ArchSpec((8,), {"big": (4,)}), {"big": 500, "s": 3})
    m2 = MappingModel.from_bytes(m.to_bytes())
    p1, p2 = m.predict(*_hot(ks, 20)), m2.predict(*_hot(ks, 20))
    assert (p1["big"] == p2["big"]).all() and (p1["s"] == p2["s"]).all()
    assert m2._digits == m._digits


def test_private_spec_applied_to_each_digit_head():
    ks, _ = _x()
    m = MappingModel(ks.input_dim, ArchSpec((8,), {"big": (6,)}), {"big": 300})
    for d in range(3):
        assert len(m.net.heads[f"big#d{d}"]) == 2  # private(6) + output
