"""Tests for the MHAS architecture search (repro.core.mhas)."""
import numpy as np

from repro.core.encoding import KeySpace
from repro.core.mhas import (
    LSTMController, MHASConfig, WeightBank, estimate_ratio, mhas_search,
)
from repro.core.nn import ArchSpec, MultiTaskMLP

CFG = MHASConfig(
    size_grid=(8, 16, 32), n_iterations=8, n_model_train=6, n_controller_train=2,
    controller_samples=2, reward_rows=512, child_batch=256,
)


def _data(n=800):
    ks = KeySpace((1,), (n,))
    keys = np.arange(1, n + 1)
    dense = ks.dense_index(keys)
    codes = {"a": (keys - 1) % 10 % 5, "b": ((keys - 1) // 10) % 10 % 3}
    n_classes = {"a": 5, "b": 3}
    return ks, dense, codes, n_classes


class TestWeightBank:
    def test_same_key_same_layer(self):
        bank = WeightBank()
        rng = np.random.default_rng(0)
        l1 = bank.factory("shared", 0, 10, 8, rng)
        l2 = bank.factory("shared", 0, 10, 8, rng)
        assert l1 is l2 and len(bank) == 1

    def test_different_dims_different_layers(self):
        bank = WeightBank()
        rng = np.random.default_rng(0)
        l1 = bank.factory("shared", 0, 10, 8, rng)
        l2 = bank.factory("shared", 0, 10, 16, rng)
        assert l1 is not l2 and len(bank) == 2

    def test_children_share_trained_weights(self):
        ks, dense, codes, n_classes = _data(200)
        bank = WeightBank()
        spec = ArchSpec((8,), {})
        m1 = MultiTaskMLP(ks.input_dim, spec, n_classes, layer_factory=bank.factory)
        x = ks.features_from_dense(dense[:64])
        y = {c: v[:64].astype(np.int64) for c, v in codes.items()}
        m1.train_batch(x, y, 1e-2)
        m2 = MultiTaskMLP(ks.input_dim, spec, n_classes, layer_factory=bank.factory)
        assert m2.shared[0] is m1.shared[0]  # ENAS parameter sharing


class TestController:
    def test_sample_decisions_well_formed(self):
        c = LSTMController(CFG, n_tasks=2)
        rng = np.random.default_rng(0)
        decisions, steps = c.sample(2, rng)
        assert len(decisions) == len(steps)
        n_shared = decisions[0][1]
        assert 0 <= n_shared <= CFG.max_shared

    def test_decisions_to_arch(self):
        c = LSTMController(CFG, n_tasks=2)
        rng = np.random.default_rng(1)
        decisions, _ = c.sample(2, rng)
        arch = c.decisions_to_arch(decisions, ["a", "b"])
        assert all(s in CFG.size_grid for s in arch.shared)
        assert set(arch.private) == {"a", "b"}
        for sizes in arch.private.values():
            assert len(sizes) <= CFG.max_private
            assert all(s in CFG.size_grid for s in sizes)

    def test_greedy_deterministic(self):
        c = LSTMController(CFG, n_tasks=1)
        rng = np.random.default_rng(0)
        d1, _ = c.sample(1, rng, greedy=True)
        d2, _ = c.sample(1, rng, greedy=True)
        assert d1 == d2

    def test_update_changes_params(self):
        c = LSTMController(CFG, n_tasks=1)
        rng = np.random.default_rng(0)
        before = c.params["Wx"].copy()
        traces = []
        for r in (-0.5, -0.1):
            _, steps = c.sample(1, rng)
            traces.append((steps, r))
        c.update(traces)
        assert not np.allclose(before, c.params["Wx"])

    def test_update_shifts_probability_toward_rewarded(self):
        """REINFORCE direction check: reward one arm, penalize the other."""
        cfg = MHASConfig(size_grid=(8, 16), controller_lr=0.1)
        c = LSTMController(cfg, n_tasks=1)
        rng = np.random.default_rng(0)
        # reward n_shared==0 strongly, penalize others, repeatedly
        for _ in range(30):
            traces = []
            for _ in range(4):
                decisions, steps = c.sample(1, rng)
                r = 1.0 if decisions[0][1] == 0 else -1.0
                traces.append((steps, r))
            c.update(traces)
        hits = sum(c.sample(1, rng)[0][0][1] == 0 for _ in range(40))
        assert hits >= 30


class TestObjective:
    def test_estimate_ratio_positive(self):
        ks, dense, codes, n_classes = _data(400)
        m = MultiTaskMLP(ks.input_dim, ArchSpec((8,), {}), n_classes)
        r = estimate_ratio(
            m, ks, dense, {c: v.astype(np.int64) for c, v in codes.items()},
            data_bytes=400 * 24, vexist_bytes=50, fdecode_bytes=20, sample_rows=256,
        )
        assert r > 0

    def test_perfect_model_lower_ratio_than_random(self):
        ks, dense, codes, n_classes = _data(600)
        y = {c: v.astype(np.int64) for c, v in codes.items()}
        x = ks.features_from_dense(dense)
        good = MultiTaskMLP(ks.input_dim, ArchSpec((32,), {}), n_classes, seed=0)
        good.fit(x, y, epochs=40, batch_size=128, tol=0.0)
        bad = MultiTaskMLP(ks.input_dim, ArchSpec((32,), {}), n_classes, seed=1)
        args = dict(data_bytes=600 * 24, vexist_bytes=50, fdecode_bytes=20,
                    sample_rows=600)
        assert estimate_ratio(good, ks, dense, y, **args) < estimate_ratio(
            bad, ks, dense, y, **args
        )


class TestSearch:
    def test_search_returns_valid_arch(self):
        ks, dense, codes, n_classes = _data(400)
        res = mhas_search(ks, dense, codes, n_classes, data_bytes=400 * 24, cfg=CFG)
        assert isinstance(res.best_arch, ArchSpec)
        assert np.isfinite(res.best_ratio)
        assert len(res.history) >= CFG.controller_samples

    def test_search_history_contains_sampled_ratios(self):
        ks, dense, codes, n_classes = _data(300)
        res = mhas_search(ks, dense, codes, n_classes, data_bytes=300 * 24, cfg=CFG)
        ratios = [r for _, r, _ in res.history]
        assert min(ratios) == res.best_ratio

    def test_search_best_trains_to_low_ratio(self):
        """End to end: the searched arch memorizes digit-function data."""
        ks, dense, codes, n_classes = _data(600)
        cfg = MHASConfig(size_grid=(16, 32), n_iterations=12, n_model_train=10,
                         n_controller_train=3, controller_samples=2,
                         reward_rows=600, child_batch=128, child_epochs=2)
        res = mhas_search(ks, dense, codes, n_classes, data_bytes=600 * 24, cfg=cfg)
        m = MultiTaskMLP(ks.input_dim, res.best_arch, n_classes, seed=0)
        x = ks.features_from_dense(dense)
        y = {c: v.astype(np.int64) for c, v in codes.items()}
        # small searched archs (possibly linear) need a higher lr to converge
        m.fit(x, y, epochs=120, batch_size=128, lr=1e-2, tol=0.0)
        pred = m.predict(ks.hot_positions(dense), ks.blocks)
        assert (pred["a"] == y["a"]).mean() > 0.9
