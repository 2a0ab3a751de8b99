"""Unit tests for the multi-task MLP (repro.core.nn)."""
import pickle

import numpy as np

from repro.core.encoding import KeySpace
from repro.core.nn import ArchSpec, MultiTaskMLP, TrainConfig, softmax


def _toy(n=600, seed=0):
    ks = KeySpace((1,), (n,))
    keys = np.arange(1, n + 1)
    x = ks.features(keys)
    y = {
        "a": ((keys - 1) % 10 % 5).astype(np.int64),  # function of last digit
        "b": (((keys - 1) // 10) % 10 % 3).astype(np.int64),
    }
    return ks, x, y


def _hot(ks, n):
    """Factored features of the first ``n`` keys of ``_toy``: predict's input."""
    return ks.hot_positions(np.arange(n)), ks.blocks


def test_softmax_rows_sum_to_one():
    p = softmax(np.random.default_rng(0).standard_normal((5, 7)))
    assert np.allclose(p.sum(axis=1), 1.0)
    assert (p > 0).all()


def test_softmax_large_logits_stable():
    p = softmax(np.array([[1000.0, 0.0]]))
    assert np.isfinite(p).all() and p[0, 0] > 0.999


class TestForward:
    def test_logits_shapes(self):
        _, x, y = _toy()
        m = MultiTaskMLP(x.shape[1], ArchSpec((16,), {}), {"a": 5, "b": 3})
        z = m.logits(x[:10])
        assert z["a"].shape == (10, 5) and z["b"].shape == (10, 3)

    def test_predict_dtype(self):
        ks, x, _ = _toy()
        m = MultiTaskMLP(x.shape[1], ArchSpec((8,), {}), {"a": 5, "b": 3})
        p = m.predict(*_hot(ks, 4))
        assert p["a"].dtype == np.int32

    def test_no_shared_layers(self):
        _, x, _ = _toy()
        m = MultiTaskMLP(x.shape[1], ArchSpec((), {}), {"a": 5})
        assert m.logits(x[:3])["a"].shape == (3, 5)

    def test_private_layers(self):
        _, x, _ = _toy()
        spec = ArchSpec((16,), {"a": (8, 8), "b": (4,)})
        m = MultiTaskMLP(x.shape[1], spec, {"a": 5, "b": 3})
        assert len(m.heads["a"]) == 3 and len(m.heads["b"]) == 2  # + output layer

    def test_deterministic_seed(self):
        _, x, _ = _toy()
        m1 = MultiTaskMLP(x.shape[1], ArchSpec((8,), {}), {"a": 5}, seed=3)
        m2 = MultiTaskMLP(x.shape[1], ArchSpec((8,), {}), {"a": 5}, seed=3)
        assert (m1.logits(x[:5])["a"] == m2.logits(x[:5])["a"]).all()


class TestTraining:
    def test_loss_decreases(self):
        _, x, y = _toy()
        m = MultiTaskMLP(x.shape[1], ArchSpec((32,), {}), {"a": 5, "b": 3}, seed=0)
        losses = m.fit(x, y, TrainConfig(epochs=10, batch_size=128, tol=0.0))
        assert losses[-1] < losses[0]

    def test_memorizes_digit_functions(self):
        ks, x, y = _toy()
        m = MultiTaskMLP(x.shape[1], ArchSpec((64,), {}), {"a": 5, "b": 3}, seed=0)
        m.fit(x, y, TrainConfig(epochs=40, batch_size=128, tol=0.0))
        pred = m.predict(*_hot(ks, len(x)))
        assert (pred["a"] == y["a"]).mean() > 0.98
        assert (pred["b"] == y["b"]).mean() > 0.98

    def test_early_stop_on_plateau(self):
        _, x, y = _toy(200)
        m = MultiTaskMLP(x.shape[1], ArchSpec((16,), {}), {"a": 5, "b": 3})
        losses = m.fit(x, y, TrainConfig(epochs=200, batch_size=64, tol=10.0))  # huge tol
        assert len(losses) == 2  # stopped right after the first comparison

    def test_single_task(self):
        ks, x, y = _toy(300)
        m = MultiTaskMLP(x.shape[1], ArchSpec((32,), {}), {"a": 5})
        m.fit(x, {"a": y["a"]}, TrainConfig(epochs=30, batch_size=64, tol=0.0))
        assert (m.predict(*_hot(ks, len(x)))["a"] == y["a"]).mean() > 0.9

    def test_train_batch_returns_finite_loss(self):
        _, x, y = _toy(100)
        m = MultiTaskMLP(x.shape[1], ArchSpec((8,), {}), {"a": 5, "b": 3})
        loss = m.train_batch(x, y, 1e-3)
        assert np.isfinite(loss) and loss > 0


class TestSizeAndSerialization:
    def test_n_params(self):
        m = MultiTaskMLP(10, ArchSpec((4,), {}), {"a": 3})
        # 10*4+4 (shared) + 4*3+3 (head out)
        assert m.n_params == 44 + 15

    def test_nbytes_resident_is_fp32(self):
        m = MultiTaskMLP(10, ArchSpec((4,), {}), {"a": 3})
        assert m.nbytes_resident() == m.n_params * 4

    def test_bytes_roundtrip(self):
        ks, x, _ = _toy(50)
        m = MultiTaskMLP(x.shape[1], ArchSpec((8,), {"a": (4,)}), {"a": 5})
        m2 = pickle.loads(pickle.dumps(m))
        assert (m.predict(*_hot(ks, 7))["a"] == m2.predict(*_hot(ks, 7))["a"]).all()

    def test_stored_at_least_param_bytes(self):
        m = MultiTaskMLP(10, ArchSpec((4,), {}), {"a": 3})
        assert len(pickle.dumps(m)) >= m.nbytes_resident()


class TestWeightSharing:
    def test_layer_factory_shares_objects(self):
        bank = {}

        def factory(scope, slot, di, do, rng):
            from repro.core.nn import _Dense
            key = (scope, slot, di, do)
            if key not in bank:
                bank[key] = _Dense.init(di, do, rng)
            return bank[key]

        m1 = MultiTaskMLP(10, ArchSpec((4,), {}), {"a": 3}, layer_factory=factory)
        m2 = MultiTaskMLP(10, ArchSpec((4,), {}), {"a": 3}, layer_factory=factory)
        assert m1.shared[0] is m2.shared[0]
        assert m1.heads["a"][0] is m2.heads["a"][0]

    def test_arch_spec_for_tasks_fills_missing(self):
        spec = ArchSpec((8,), {"a": (4,)})
        full = spec.for_tasks(["a", "b"])
        assert full.private == {"a": (4,), "b": ()}
