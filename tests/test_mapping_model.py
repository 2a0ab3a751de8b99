"""Tests for MappingModel's digit-decomposed high-cardinality heads and
for ``train_model``, which featurizes one mini-batch at a time."""
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.core import model
from repro.core.encoding import KeySpace
from repro.core.model import DIGIT_THRESHOLD, MappingModel, TrainConfig, train_model
from repro.core.nn import ArchSpec

from .test_inference import ARCHS, CLASSES, KEY_SPACES


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


def test_model_params_much_smaller_than_onehot_head(monkeypatch):
    ks, _ = _x()
    split = MappingModel(ks.input_dim, ArchSpec((64,), {}), {"big": 5000})
    monkeypatch.setattr(model, "DIGIT_THRESHOLD", 10**9)
    direct = MappingModel(ks.input_dim, ArchSpec((64,), {}), {"big": 5000})
    assert direct._digits["big"] == 0
    assert split.n_params < direct.n_params / 5


def test_fit_memorizes_digit_structured_high_cardinality():
    """A value equal to a key digit pair is learnable through digit heads."""
    n = 2000
    ks = KeySpace((1,), (n,))
    keys = np.arange(1, n + 1)
    x = ks.features(keys)
    codes = {"big": ((keys - 1) % 100).astype(np.int64)}  # 100 classes > threshold
    m = MappingModel(ks.input_dim, ArchSpec((64,), {}), codes_n := {"big": 100})
    m.fit(x, codes, TrainConfig(epochs=40, batch_size=256, tol=0.0))
    acc = (m.predict(*_hot(ks, n))["big"] == codes["big"]).mean()
    assert acc > 0.95


def test_bytes_roundtrip():
    ks, x = _x(100)
    m = MappingModel(ks.input_dim, ArchSpec((8,), {"big": (4,)}), {"big": 500, "s": 3})
    m2 = pickle.loads(pickle.dumps(m))
    p1, p2 = m.predict(*_hot(ks, 20)), m2.predict(*_hot(ks, 20))
    assert (p1["big"] == p2["big"]).all() and (p1["s"] == p2["s"]).all()
    assert m2._digits == m._digits


def test_private_spec_applied_to_each_digit_head():
    ks, _ = _x()
    m = MappingModel(ks.input_dim, ArchSpec((8,), {"big": (6,)}), {"big": 300})
    for d in range(3):
        assert len(m.net.heads[f"big#d{d}"]) == 2  # private(6) + output


def _codes(n: int, seed: int = 4) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {c: rng.integers(0, nc, n) for c, nc in CLASSES.items()}


@pytest.mark.parametrize("arch", ARCHS.values(), ids=ARCHS)
@pytest.mark.parametrize("ks", KEY_SPACES.values(), ids=KEY_SPACES)
def test_train_model_equals_fit_on_feature_matrix(ks, arch):
    """Featurizing per batch trains the weights that ``fit`` on the whole
    one-hot matrix trains with the same seed, bit for bit."""
    dense = np.random.default_rng(5).permutation(ks.size)[:1500]
    codes = _codes(len(dense))
    cfg = TrainConfig(epochs=3, batch_size=128, seed=3, tol=0.0)
    got = train_model(ks, dense, codes, CLASSES, arch, cfg)
    ref = MappingModel(ks.input_dim, arch, CLASSES, seed=cfg.seed)
    ref.fit(ks.features_from_dense(dense), codes, cfg)
    for a, b in zip(got.net.all_layers(), ref.net.all_layers(), strict=True):
        assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)


def test_train_model_featurizes_one_batch_at_a_time(monkeypatch):
    """No featurize call sees more than a batch of keys, and training's peak
    traced memory stays below half of the whole feature matrix."""
    ks = KeySpace((0,), (100_000,))
    dense = np.arange(ks.size)
    codes = {"a": dense % 5}
    cfg = TrainConfig(epochs=1, batch_size=512)
    sizes = []
    featurize = KeySpace.features_from_dense

    def spy(self, idx):
        sizes.append(len(idx))
        return featurize(self, idx)

    monkeypatch.setattr(KeySpace, "features_from_dense", spy)
    tracemalloc.start()
    try:
        train_model(ks, dense, codes, {"a": 5}, ArchSpec((16,)), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes and max(sizes) <= cfg.batch_size
    assert sum(sizes) == len(dense)
    assert peak < len(dense) * ks.input_dim * 4 / 2
