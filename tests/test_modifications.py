"""Tests for Algorithms 3–5: insert / delete / update + retrain trigger."""
import os

import numpy as np
import pandas as pd
import pytest

from repro.core.deepmapping import DeepMapping, DeepMappingConfig, predict_codes
from repro.core.encoding import KeySpace
from repro.core.model import TrainConfig
from repro.core.nn import ArchSpec

CFG = DeepMappingConfig(
    arch=ArchSpec((48,), {}), train=TrainConfig(epochs=25, batch_size=256), codec="z"
)


def _relation(n=1000, start=1, seed=0):
    rng = np.random.default_rng(seed)
    key = np.arange(start, start + n)
    return pd.DataFrame(
        {
            "key": key,
            "easy": (key - 1) % 10 % 7,
            "hard": rng.integers(0, 5, n),
        }
    )


@pytest.fixture
def dm(tmp_path):
    df = _relation()
    ks = KeySpace((1,), (3000,))  # headroom for inserts
    d = DeepMapping.build(
        df, ["key"], ["easy", "hard"], CFG, workdir=str(tmp_path), key_space=ks
    )
    return d, df


class TestInsert:
    def test_insert_then_lookup(self, dm):
        d, _ = dm
        new = _relation(50, start=1001, seed=9)
        d.insert(new)
        out = d.lookup(new["key"].to_numpy())
        assert (out["easy"].to_numpy() == new["easy"].to_numpy()).all()
        assert (out["hard"].to_numpy() == new["hard"].to_numpy()).all()

    def test_insert_sets_existence(self, dm):
        d, _ = dm
        before = d.vexist.count()
        d.insert(_relation(10, start=1001))
        assert d.vexist.count() == before + 10

    def test_noise_inserts_land_in_aux(self, dm):
        d, _ = dm
        new = _relation(200, start=1001, seed=2)
        before = d.aux.n_entries
        d.insert(new)
        # 'hard' is noise with 5 classes → ~4/5 of inserted tuples enter T_aux
        assert d.aux.n_entries - before > 100

    def test_fully_learnable_inserts_mostly_skip_aux(self, tmp_path):
        df = _relation(1000)[["key", "easy"]]
        d = DeepMapping.build(
            df, ["key"], ["easy"], CFG, workdir=str(tmp_path),
            key_space=KeySpace((1,), (3000,)),
        )
        new = _relation(200, start=1001, seed=2)[["key", "easy"]]
        before = d.aux.n_entries
        d.insert(new)
        # 'easy' follows the learned digit pattern → the model generalizes
        assert d.aux.n_entries - before < 40

    def test_insert_existing_key_rejected(self, dm):
        d, df = dm
        with pytest.raises(ValueError):
            d.insert(df.iloc[:1])

    def test_insert_unseen_category_roundtrips(self, tmp_path):
        df = pd.DataFrame({"key": [1, 2, 3], "v": ["a", "b", "a"]})
        d = DeepMapping.build(
            df, ["key"], ["v"], CFG, workdir=str(tmp_path),
            key_space=KeySpace((1,), (10,)),
        )
        d.insert(pd.DataFrame({"key": [7], "v": ["NEW"]}))
        out = d.lookup(np.array([7, 1]))
        assert out["v"][0] == "NEW" and out["v"][1] == "a"

    def test_mixed_type_insert_keeps_existing_values_and_types(self, tmp_path):
        """A string inserted into an int column makes ``f_decode`` object
        dtype; existing keys still return their int, before and after a
        retrain."""
        df = pd.DataFrame({"key": np.arange(1, 41), "v": np.arange(1, 41) % 6})
        d = DeepMapping.build(
            df, ["key"], ["v"], CFG, workdir=str(tmp_path),
            key_space=KeySpace((1,), (100,)),
        )
        d.insert(pd.DataFrame({"key": [50], "v": ["x"]}))
        for _ in range(2):
            out = d.lookup(np.append(df["key"].to_numpy(), 50))
            assert out["v"].tolist() == df["v"].tolist() + ["x"]
            assert all(type(v) is int for v in out["v"][:-1])
            d.retrain()

    def test_old_keys_survive_insert(self, dm):
        d, df = dm
        d.insert(_relation(100, start=1001, seed=4))
        out = d.lookup(df["key"].to_numpy())
        assert (out["hard"].to_numpy() == df["hard"].to_numpy()).all()


class TestDelete:
    def test_delete_then_null(self, dm):
        d, df = dm
        d.delete(np.array([5, 6]))
        out = d.lookup(np.array([5, 6, 7]))
        assert out["easy"][0] is None and out["easy"][1] is None
        assert out["easy"][2] == df["easy"][6]

    def test_delete_clears_existence(self, dm):
        d, _ = dm
        before = d.vexist.count()
        d.delete(np.arange(1, 11))
        assert d.vexist.count() == before - 10

    def test_delete_purges_aux(self, dm):
        d, _ = dm
        keys = np.arange(1, 501)
        before = d.aux.n_entries
        d.delete(keys)
        assert d.aux.n_entries < before
        assert not d.aux.lookup(keys - 1)[0].any()

    def test_delete_everything(self, dm):
        d, df = dm
        d.delete(df["key"].to_numpy())
        assert d.vexist.count() == 0
        assert d.aux.n_entries == 0


class TestUpdate:
    def test_update_changes_value(self, dm):
        d, _ = dm
        d.update(pd.DataFrame({"key": [3], "easy": [6], "hard": [4]}))
        out = d.lookup(np.array([3]))
        assert out["easy"][0] == 6 and out["hard"][0] == 4

    def test_update_to_model_prediction_shrinks_aux(self, dm):
        d, df = dm
        # set all columns to the model's own prediction → rows leave T_aux
        keys = df["key"].to_numpy()[:200]
        dense = d.key_space.dense_index(keys[:, None])
        pred = predict_codes(d.model, d.key_space, dense, d.value_cols)
        upd = pd.DataFrame(
            {
                "key": keys,
                "easy": d.codecs["easy"].decode(pred["easy"]),
                "hard": d.codecs["hard"].decode(pred["hard"]),
            }
        )
        d.update(upd)
        # every updated tuple now matches the model exactly → leaves T_aux
        assert not d.aux.lookup(dense)[0].any()
        out = d.lookup(keys)
        assert (out["hard"].to_numpy() == upd["hard"].to_numpy()).all()
        assert (out["easy"].to_numpy() == upd["easy"].to_numpy()).all()

    def test_update_nonexistent_rejected(self, dm):
        d, _ = dm
        with pytest.raises(KeyError):
            d.update(pd.DataFrame({"key": [2999], "easy": [1], "hard": [1]}))

    def test_update_idempotent(self, dm):
        d, _ = dm
        upd = pd.DataFrame({"key": [9], "easy": [2], "hard": [3]})
        d.update(upd)
        n1 = d.aux.n_entries
        d.update(upd)
        assert d.aux.n_entries == n1
        assert d.lookup(np.array([9]))["hard"][0] == 3


class TestMaterializeAndRetrain:
    def test_materialize_matches_logical_content(self, dm):
        d, df = dm
        d.delete(np.array([1, 2]))
        new = _relation(20, start=1001, seed=5)
        d.insert(new)
        snap = d.materialize().sort_values("key").reset_index(drop=True)
        expect = (
            pd.concat([df.iloc[2:], new])
            .sort_values("key").reset_index(drop=True)
        )
        assert (snap["key"].to_numpy() == expect["key"].to_numpy()).all()
        assert (snap["hard"].to_numpy() == expect["hard"].to_numpy()).all()

    def test_retrain_preserves_content(self, dm):
        d, df = dm
        d.insert(_relation(100, start=1001, seed=6))
        before = d.materialize().sort_values("key").reset_index(drop=True)
        d.retrain()
        after = d.materialize().sort_values("key").reset_index(drop=True)
        pd.testing.assert_frame_equal(before, after)
        assert d.retrain_count == 1

    def test_retrain_trigger_threshold(self, tmp_path):
        df = _relation(400)
        cfg = DeepMappingConfig(
            arch=ArchSpec((32,), {}), train=TrainConfig(epochs=10, batch_size=256),
            codec="z", retrain_threshold_bytes=1,  # always exceeded
        )
        d = DeepMapping.build(
            df, ["key"], ["easy", "hard"], cfg, workdir=str(tmp_path),
            key_space=KeySpace((1,), (1000,)),
        )
        d.insert(_relation(50, start=401, seed=7))
        assert d.retrain_count >= 1

    def test_no_retrain_when_threshold_none(self, dm):
        d, _ = dm
        d.insert(_relation(50, start=1001, seed=8))
        assert d.retrain_count == 0


class TestMixedWorkload:
    def test_interleaved_ops_stay_lossless(self, dm):
        d, df = dm
        rng = np.random.default_rng(0)
        state = df.set_index("key")
        # delete 100, insert 100, update 100 — then verify everything
        dele = rng.choice(df["key"].to_numpy(), 100, replace=False)
        d.delete(dele)
        state = state.drop(index=dele)
        ins = _relation(100, start=1500, seed=11)
        d.insert(ins)
        state = pd.concat([state, ins.set_index("key")])
        upd_keys = rng.choice(state.index.to_numpy(), 100, replace=False)
        upd = pd.DataFrame(
            {"key": upd_keys, "easy": rng.integers(0, 7, 100), "hard": rng.integers(0, 5, 100)}
        )
        d.update(upd)
        state.loc[upd_keys, "easy"] = upd["easy"].to_numpy()
        state.loc[upd_keys, "hard"] = upd["hard"].to_numpy()

        out = d.lookup(state.index.to_numpy())
        assert (out["easy"].to_numpy() == state["easy"].to_numpy()).all()
        assert (out["hard"].to_numpy() == state["hard"].to_numpy()).all()
        gone = d.lookup(dele)
        assert all(v is None for v in gone["easy"])


def _state(d):
    """Everything a rejected modification must leave as it was."""
    keys, codes = d.aux.master()
    return (
        d.vexist.count(),
        keys.tolist(),
        {c: v.tolist() for c, v in codes.items()},
        {c: d.codecs[c].classes_.tolist() for c in d.value_cols},
        sorted(os.listdir(d.workdir)),
    )


class TestRejectedModification:
    """Validate-then-commit: a batch that fails leaves V_exist, T_aux and
    f_decode untouched. Values 100/101 are unseen categories, which the
    model can never predict, so those rows would all go to T_aux."""

    def test_insert_missing_value_column(self, dm):
        d, _ = dm
        before = _state(d)
        with pytest.raises(KeyError):
            d.insert(pd.DataFrame({"key": [1500], "easy": [100]}))
        assert _state(d) == before
        assert d.lookup(np.array([1500]))["easy"][0] is None

    def test_insert_duplicate_key(self, dm):
        d, _ = dm
        before = _state(d)
        with pytest.raises(ValueError):
            d.insert(pd.DataFrame({"key": [1500, 1500], "easy": [100, 101], "hard": [100, 101]}))
        assert _state(d) == before
        assert d.lookup(np.array([1500]))["easy"][0] is None

    def test_update_duplicate_key(self, dm):
        d, df = dm
        before = _state(d)
        with pytest.raises(ValueError):
            d.update(pd.DataFrame({"key": [3, 3], "easy": [100, 101], "hard": [100, 101]}))
        assert _state(d) == before
        out = d.lookup(np.array([3]))
        assert out["easy"][0] == df["easy"][2] and out["hard"][0] == df["hard"][2]


def test_one_aux_generation_on_disk(dm):
    """Every T_aux rewrite deletes the generation it supersedes."""
    d, df = dm
    new = _relation(50, start=1001, seed=3)
    d.insert(new)
    d.update(pd.DataFrame({"key": [3], "easy": [6], "hard": [4]}))
    d.delete(np.array([5, 6]))
    d.retrain()
    d.insert(_relation(10, start=1100, seed=4))
    gens = [f for f in os.listdir(d.workdir) if f.startswith("aux-g")]
    assert len(gens) == 1
    gen = os.path.join(d.workdir, gens[0])
    assert sum(os.path.getsize(os.path.join(gen, f)) for f in os.listdir(gen)) == d.aux.nbytes_disk
    out = d.lookup(new["key"].to_numpy())
    assert (out["hard"].to_numpy() == new["hard"].to_numpy()).all()
