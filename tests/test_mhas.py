"""Tests for the MHAS architecture search (repro.core.mhas)."""
import os

import numpy as np
import pandas as pd

from repro.core import mhas
from repro.core.deepmapping import DeepMapping, DeepMappingConfig, encode_relation
from repro.core.encoding import KeySpace
from repro.core.mhas import LSTMController, MHASConfig, WeightBank, eq1_ratio, mhas_search
from repro.core.model import MappingModel, TrainConfig, train_model
from repro.core.nn import ArchSpec, MultiTaskMLP

CFG = MHASConfig(
    size_grid=(8, 16, 32), n_iterations=8, n_model_train=6, n_controller_train=2,
    controller_samples=2, child_batch=256,
)
KEYS, VALS = ["k"], ["a", "b"]
DM_CFG = DeepMappingConfig()


def _data(n=800):
    keys = np.arange(1, n + 1)
    df = pd.DataFrame({"k": keys, "a": (keys - 1) % 10 % 5, "b": ((keys - 1) // 10) % 10 % 3})
    return df, KeySpace((1,), (n,))


def _encoded(df, ks):
    dense, codecs, codes = encode_relation(df, ks, KEYS, VALS)
    return dense, codes, {c: codecs[c].n_classes for c in VALS}


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
        df, ks = _data(200)
        dense, codes, n_classes = _encoded(df, ks)
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
        c = LSTMController(CFG)
        rng = np.random.default_rng(0)
        decisions, steps = c.sample(2, rng)
        assert len(decisions) == len(steps)
        n_shared = decisions[0][1]
        assert 0 <= n_shared <= CFG.max_shared

    def test_decisions_to_arch(self):
        c = LSTMController(CFG)
        rng = np.random.default_rng(1)
        decisions, _ = c.sample(2, rng)
        arch = c.decisions_to_arch(decisions, ["a", "b"])
        assert all(s in CFG.size_grid for s in arch.shared)
        assert set(arch.private) == {"a", "b"}
        for sizes in arch.private.values():
            assert len(sizes) <= CFG.max_private
            assert all(s in CFG.size_grid for s in sizes)

    def test_greedy_deterministic(self):
        c = LSTMController(CFG)
        rng = np.random.default_rng(0)
        d1, _ = c.sample(1, rng, greedy=True)
        d2, _ = c.sample(1, rng, greedy=True)
        assert d1 == d2

    def test_update_changes_params(self):
        c = LSTMController(CFG)
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
        c = LSTMController(cfg)
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
    def test_eq1_ratio_positive(self):
        df, ks = _data(400)
        dense, codes, n_classes = _encoded(df, ks)
        m = MappingModel(ks.input_dim, ArchSpec((8,), {}), n_classes)
        r = eq1_ratio(m, df, KEYS, VALS, 400 * 24, config=DM_CFG, key_space=ks)
        assert r > 0

    def test_score_is_built_structure_ratio(self, tmp_path):
        """A child's score is Eq. 1 of the structure built around it."""
        df, ks = _data(500)
        dense, codes, n_classes = _encoded(df, ks)
        child = train_model(ks, dense, codes, n_classes, ArchSpec((16,), {}),
                            TrainConfig(epochs=3, batch_size=128))
        score = eq1_ratio(child, df, KEYS, VALS, 500 * 24, config=DM_CFG, key_space=ks)
        dm = DeepMapping.build(df, KEYS, VALS, DM_CFG, workdir=str(tmp_path),
                               key_space=ks, model=child)
        assert score == dm.nbytes_disk / (500 * 24)

    def test_perfect_model_lower_ratio_than_random(self):
        df, ks = _data(600)
        dense, codes, n_classes = _encoded(df, ks)
        good = train_model(ks, dense, codes, n_classes, ArchSpec((32,), {}),
                           TrainConfig(epochs=40, batch_size=128, tol=0.0))
        bad = MappingModel(ks.input_dim, ArchSpec((32,), {}), n_classes, seed=1)
        args = dict(config=DM_CFG, key_space=ks)
        assert eq1_ratio(good, df, KEYS, VALS, 600 * 24, **args) < eq1_ratio(
            bad, df, KEYS, VALS, 600 * 24, **args
        )


class TestSearch:
    def test_search_returns_valid_arch(self):
        df, ks = _data(400)
        res = mhas_search(df, KEYS, VALS, 400 * 24, CFG, key_space=ks)
        assert isinstance(res.best_arch, ArchSpec)
        assert np.isfinite(res.best_ratio)
        assert len(res.history) >= CFG.controller_samples

    def test_search_history_contains_sampled_ratios(self):
        df, _ = _data(300)
        res = mhas_search(df, KEYS, VALS, 300 * 24, CFG)
        ratios = [r for _, r, _ in res.history]
        assert min(ratios) == res.best_ratio

    def test_search_scores_are_built_ratios(self, monkeypatch):
        """Every score in the history is a built structure's Eq. 1, and each
        scoring build's directory is gone after the search."""
        df, ks = _data(300)
        built, real_build = [], DeepMapping.build

        def build(*args, workdir, **kw):
            dm = real_build(*args, workdir=workdir, **kw)
            built.append((workdir, dm.nbytes_disk))
            return dm

        monkeypatch.setattr(mhas.DeepMapping, "build", staticmethod(build))
        res = mhas_search(df, KEYS, VALS, 300 * 24, CFG, key_space=ks)
        assert [r for _, r, _ in res.history] == [b / (300 * 24) for _, b in built]
        assert not any(os.path.exists(w) for w, _ in built)

    def test_search_best_trains_to_low_ratio(self):
        """End to end: the searched arch memorizes digit-function data."""
        df, ks = _data(600)
        cfg = MHASConfig(size_grid=(16, 32), n_iterations=12, n_model_train=10,
                         n_controller_train=3, controller_samples=2,
                         child_batch=128, child_epochs=2)
        res = mhas_search(df, KEYS, VALS, 600 * 24, cfg, key_space=ks)
        dense, y, n_classes = _encoded(df, ks)
        m = MultiTaskMLP(ks.input_dim, res.best_arch, n_classes, seed=0)
        x = ks.features_from_dense(dense)
        y = {c: v.astype(np.int64) for c, v in y.items()}
        # small searched archs (possibly linear) need a higher lr to converge
        m.fit(x, y, epochs=120, batch_size=128, lr=1e-2, tol=0.0)
        pred = m.predict(ks.hot_positions(dense), ks.blocks)
        assert (pred["a"] == y["a"]).mean() > 0.9
