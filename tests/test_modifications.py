"""Tests for Algorithms 3–5: insert / delete / update + retrain trigger."""
import os
import pickle
import shutil
import tempfile
from unittest import mock

import numpy as np
import pandas as pd
import pytest
from hypothesis import HealthCheck, assume, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule, run_state_machine_as_test,
)

from repro.baselines.compression import get_codec
from repro.baselines.memory_pool import MemoryPool
from repro.core.aux_table import AuxTable
from repro.core.deepmapping import DeepMapping, DeepMappingConfig, misclassified, predict_codes
from repro.core.encoding import KeySpace
from repro.core.model import MappingModel, TrainConfig
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

    def test_insert_into_empty_build(self, tmp_path):
        """A model trained on no rows has heads of no classes; an insert
        then sends every row to T_aux."""
        df = pd.DataFrame({"key": np.empty(0, np.int64), "easy": np.empty(0, np.int64)})
        d = DeepMapping.build(
            df, ["key"], ["easy"], CFG, workdir=str(tmp_path), key_space=KeySpace((1,), (10,)),
        )
        d.insert(pd.DataFrame({"key": [3, 4], "easy": [7, 8]}))
        assert d.lookup(np.array([3, 4, 5]))["easy"].tolist() == [7, 8, None]
        assert d.aux.n_entries == 2

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


class TestWrite:
    """Insert (Algorithm 3) and update (Algorithm 5) share one write: one
    ``T_aux`` rewrite per batch, whose upserts are the rows the model gets
    wrong, with every column's codes, and whose removals are the batch's
    other keys."""

    BATCHES = {
        "insert": lambda: _relation(100, start=1001, seed=13),
        "update": lambda: _relation(100, start=1, seed=13),  # new 'hard' values
    }

    @pytest.mark.parametrize("op", ["insert", "update"])
    def test_one_apply_of_misses_and_removals(self, dm, monkeypatch, op):
        d, _ = dm
        batch = self.BATCHES[op]()
        dense = d.key_space.dense_index(batch[["key"]].to_numpy())
        codes = {c: d.codecs[c].encode(batch[c]) for c in d.value_cols}
        wrong = misclassified(d.model, d.key_space, dense, codes)
        assert wrong.any() and not wrong.all()
        calls, real = [], AuxTable.apply

        def spy(self, **kw):
            calls.append(kw)
            return real(self, **kw)

        monkeypatch.setattr(AuxTable, "apply", spy)
        getattr(d, op)(batch)
        assert len(calls) == 1
        (kw,) = calls
        assert kw["upsert_keys"].tolist() == dense[wrong].tolist()
        assert sorted(kw["upsert_codes"]) == sorted(d.value_cols)
        for c, v in kw["upsert_codes"].items():
            assert v.tolist() == codes[c][wrong].tolist()
        assert kw["remove_keys"].tolist() == dense[~wrong].tolist()

    @pytest.mark.parametrize("op", ["insert", "update"])
    def test_failed_apply_leaves_structure_unchanged(self, dm, monkeypatch, op):
        """The batch brings unseen categories (100, 101), so the write
        extends both codecs before ``apply`` fails."""
        d, df = dm
        keys = [1500, 1501] if op == "insert" else [3, 4]
        before = _state(d), d.vexist.set_indices().tolist(), d.pool.pinned_bytes
        codecs = dict(d.codecs)

        def fail(self, **kw):
            raise OSError("no space left on device")

        monkeypatch.setattr(AuxTable, "apply", fail)
        with pytest.raises(OSError):
            getattr(d, op)(pd.DataFrame({"key": keys, "easy": [100, 1], "hard": [101, 2]}))
        assert (_state(d), d.vexist.set_indices().tolist(), d.pool.pinned_bytes) == before
        assert all(d.codecs[c] is codecs[c] for c in d.value_cols)
        monkeypatch.undo()
        out = d.lookup(np.array([3, 4, 1500, 1501]))
        assert out["easy"].tolist() == df["easy"].tolist()[2:4] + [None, None]
        assert out["hard"].tolist() == df["hard"].tolist()[2:4] + [None, None]

    def test_insert_with_no_miss_answers_every_key(self, dm):
        """An insert whose rows the model all predicts rewrites ``T_aux``
        with the same rows, and every key keeps its answer."""
        d, df = dm
        keys = np.arange(1001, 1101)
        pred = predict_codes(d.model, d.key_space, d.key_space.dense_index(keys[:, None]),
                             d.value_cols)
        new = pd.DataFrame({"key": keys, **{c: d.codecs[c].decode(pred[c]) for c in d.value_cols}})
        aux_before = _state(d)[1:3]
        d.insert(new)
        assert _state(d)[1:3] == aux_before
        want = pd.concat([df, new], ignore_index=True)
        out = d.lookup(want["key"].to_numpy())
        for c in d.value_cols:
            assert out[c].tolist() == want[c].tolist()


def test_one_aux_generation_on_disk(dm):
    """Every T_aux rewrite deletes the generation it supersedes, and a
    generation's directory holds its partitions alone: ``V_aux`` counts in
    ``nbytes_disk`` compressed with the table's codec, but no file holds it."""
    d, df = dm
    new = _relation(50, start=1001, seed=3)

    def check():
        gens = [f for f in os.listdir(d.workdir) if f.startswith("aux-g")]
        assert len(gens) == 1
        gen = os.path.join(d.workdir, gens[0])
        assert "vaux.bin" not in os.listdir(gen)
        on_disk = sum(os.path.getsize(os.path.join(gen, f)) for f in os.listdir(gen))
        assert on_disk == d.aux._store.nbytes_disk
        vaux = len(get_codec(CFG.codec).compress(d.aux._vaux.raw_bytes()))
        assert d.aux.n_entries and d.aux.nbytes_disk == on_disk + vaux

    check()
    d.insert(new)
    check()
    d.update(pd.DataFrame({"key": [3], "easy": [6], "hard": [4]}))
    d.delete(np.array([5, 6]))
    check()
    d.retrain()
    check()
    d.insert(_relation(10, start=1100, seed=4))
    check()
    out = d.lookup(new["key"].to_numpy())
    assert (out["hard"].to_numpy() == new["hard"].to_numpy()).all()


def test_pickle_carries_no_aux_rows(dm):
    """``T_aux``'s rows live only in its partitions, so the pickled
    structure (the Spark broadcast) grows with ``T_aux`` only by ``V_aux``'s
    packed bits, never by its codes."""
    d, _ = dm
    before = len(pickle.dumps(d))
    vaux_before = len(d.aux._vaux.raw_bytes())
    n = d.aux.n_entries
    d.aux.apply(
        upsert_keys=np.arange(10_000, 20_000),
        upsert_codes={c: np.zeros(10_000, dtype=np.int32) for c in d.value_cols},
    )
    assert d.aux.n_entries == n + 10_000
    grown = len(d.aux._vaux.raw_bytes()) - vaux_before
    assert grown == 20_000 // 8 - vaux_before
    assert len(pickle.dumps(d)) - before < grown + 1024


def test_pool_clear_and_pickle_round_trip_keep_content(dm):
    """A cold pool and a pickled copy over the same workdir read the same
    ``T_aux`` back, and the copy stays modifiable and lossless."""
    d, df = dm
    keys = np.arange(1, 1011)

    def state(x):
        k, codes = x.aux.master()
        out = x.lookup(keys)
        return (k.tolist(), {c: v.tolist() for c, v in codes.items()}, x.aux.n_entries,
                {c: out[c].tolist() for c in x.value_cols})

    before = state(d)
    d.pool.clear()
    assert state(d) == before
    copy = pickle.loads(pickle.dumps(d))
    assert state(copy) == before

    new = _relation(30, start=1001, seed=12)
    copy.insert(new)
    copy.update(pd.DataFrame({"key": [3], "easy": [6], "hard": [4]}))
    copy.delete(np.array([5, 6]))
    want = pd.concat([df, new]).set_index("key").drop(index=[5, 6])
    want.loc[3, ["easy", "hard"]] = [6, 4]
    out = copy.lookup(want.index.to_numpy())
    for c in ("easy", "hard"):
        assert out[c].tolist() == want[c].tolist()
    assert copy.lookup(np.array([5, 6]))["easy"].tolist() == [None, None]


# ------------------------------------------------------------------ state machine
SM_CFG = DeepMappingConfig(
    arch=ArchSpec((16,), {}), train=TrainConfig(epochs=2, batch_size=8, lr=0.05),
    codec="z", partition_bytes=128,  # a dozen rows per T_aux partition
)


class _ModificationMachine(RuleBasedStateMachine):
    """Random insert/update/delete/retrain/lookup/lookup_range sequences,
    pickle round trips and rejected modifications, against a dict oracle
    of key tuple → tuple of Python values, one per value column.

    Each write notes in ``REACHED`` the ``T_aux`` transitions it made: a
    non-empty generation whose layout differs from the one before ("layout
    switch"), and an insert whose packed generation has a larger radix
    than the one before ("insert grew radix")."""

    KEY_COLS: list[str]
    KS: KeySpace
    OUT_OF_DOMAIN: list[tuple[int, ...]]
    POOL_BUDGET: int | None
    VALUE_COLS = ["vi", "vs", "vm"]  # an int, a str and a mixed int/str column
    # each column favours one value, so the model answers some rows and T_aux
    # the others
    ROW = st.tuples(
        st.sampled_from([0, 0, 0, 1, 2, 5]), st.sampled_from(["a", "a", "a", "b", "c"]),
        st.sampled_from([0, 0, 0, 3, "x", "y"]),
    )
    UNSEEN = (100, "z", "z")  # a category no column holds
    REACHED: set[str] = set()

    def __init__(self):
        super().__init__()
        self.workdir = tempfile.mkdtemp(prefix="dm-machine-")
        self.domain = [tuple(k) for k in self.KS.from_dense(np.arange(self.KS.size)).tolist()]
        self.oracle: dict[tuple[int, ...], tuple] = {}

    def teardown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _frame(self, rows: list[tuple[tuple[int, ...], tuple]], cols=None) -> pd.DataFrame:
        data = {kc: [k[i] for k, _ in rows] for i, kc in enumerate(self.KEY_COLS)}
        for j, c in enumerate(self.VALUE_COLS):
            if cols is None or c in cols:
                data[c] = [v[j] for _, v in rows]
        return pd.DataFrame(data)

    def _draw_keys(self, data, live: bool) -> list[tuple[int, ...]]:
        pool = sorted(self.oracle) if live else [k for k in self.domain if k not in self.oracle]
        return data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True))

    def _snapshot(self):
        keys, codes = self.dm.aux.master()
        return (
            keys.tolist(), {c: v.tolist() for c, v in codes.items()},
            self.dm.vexist.set_indices().tolist(),
            {c: self.dm.codecs[c].classes_.tolist() for c in self.VALUE_COLS},
        )

    def _generation(self):
        """(rows, each column's radix, packed?) of ``T_aux``'s generation."""
        keys, codes = self.dm.aux.master()
        radix = [int(v.max(initial=-1)) + 1 for v in codes.values()]
        return len(keys), radix, self.dm.aux._store.radix is not None

    def _write(self, op: str, fn) -> None:
        before = self._generation()
        fn()
        after = self._generation()
        if before[0] and after[0] and before[2] != after[2]:
            self.REACHED.add("layout switch")
        if op == "insert" and before[0] and after[2] and any(
            a > b for a, b in zip(after[1], before[1])
        ):
            self.REACHED.add("insert grew radix")

    def _check_lookup(self, keys: list[tuple[int, ...]], out: pd.DataFrame, cols=None) -> None:
        cols = cols or self.VALUE_COLS
        assert list(out.columns) == self.KEY_COLS + cols
        assert out[self.KEY_COLS].to_numpy().tolist() == [list(k) for k in keys]
        for i, k in enumerate(keys):
            want = self.oracle.get(k)
            for c in cols:
                j = self.VALUE_COLS.index(c)
                got = out[c].iloc[i]
                if want is None:
                    assert got is None, (k, c, got)
                else:
                    assert got == want[j] and type(got) is type(want[j]), (k, c, got, want[j])

    @initialize(data=st.data())
    def build(self, data):
        keys = data.draw(st.lists(st.sampled_from(self.domain), max_size=24, unique=True))
        self.oracle = {k: data.draw(self.ROW) for k in keys}
        self.dm = DeepMapping.build(
            self._frame(list(self.oracle.items())), self.KEY_COLS, self.VALUE_COLS, SM_CFG,
            workdir=self.workdir, key_space=self.KS, pool=MemoryPool(self.POOL_BUDGET),
        )

    @precondition(lambda self: len(self.oracle) < len(self.domain))
    @rule(data=st.data())
    def insert(self, data):
        rows = [(k, data.draw(self.ROW)) for k in self._draw_keys(data, live=False)]
        self._write("insert", lambda: self.dm.insert(self._frame(rows)))
        self.oracle.update(rows)

    @precondition(lambda self: self.oracle)
    @rule(data=st.data())
    def update(self, data):
        rows = [(k, data.draw(self.ROW)) for k in self._draw_keys(data, live=True)]
        self._write("update", lambda: self.dm.update(self._frame(rows)))
        self.oracle.update(rows)

    @rule(data=st.data())
    def delete(self, data):
        """Live and absent keys; deleting an absent key changes nothing."""
        keys = data.draw(st.lists(st.sampled_from(self.domain), min_size=1, max_size=8, unique=True))
        self._write("delete", lambda: self.dm.delete(np.array(keys)))
        for k in keys:
            self.oracle.pop(k, None)

    @rule()
    def retrain(self):
        self._write("retrain", self.dm.retrain)

    @rule(data=st.data())
    def lookup(self, data):
        """A batch of keys, and a non-empty subset of the value columns in
        any order."""
        candidates = st.sampled_from(self.domain + self.OUT_OF_DOMAIN)
        keys = data.draw(st.lists(candidates, min_size=1, max_size=12))
        cols = data.draw(st.permutations(self.VALUE_COLS).flatmap(
            lambda p: st.integers(1, len(p)).map(lambda k: p[:k])
        ))
        self._check_lookup(keys, self.dm.lookup(np.array(keys), cols=cols), cols)

    @rule(lo=st.integers(-2, 70), width=st.integers(0, 30))
    def lookup_range(self, lo, width):
        out = self.dm.lookup_range(lo, lo + width)
        want = [k for k in self.domain[max(0, lo):max(0, lo + width)] if k in self.oracle]
        self._check_lookup(want, out)

    @rule()
    def pickle_round_trip(self):
        """The copy carries ``V_aux`` and sizes as the original does."""
        copy = pickle.loads(pickle.dumps(self.dm))
        assert copy.storage_breakdown() == self.dm.storage_breakdown()
        assert copy.aux._vaux.raw_bytes() == self.dm.aux._vaux.raw_bytes()
        self.dm = copy

    @rule()
    def clear_pool(self):
        self.dm.pool.clear()

    @rule(
        kind=st.sampled_from(["dup_insert", "missing_col", "insert_live", "update_absent", "dup_update"]),
        data=st.data(),
    )
    def rejected(self, kind, data):
        """``UNSEEN`` holds unseen categories, so a commit would show in
        ``f_decode`` and in T_aux."""
        live = kind in ("insert_live", "dup_update")
        pool = sorted(self.oracle) if live else [k for k in self.domain if k not in self.oracle]
        assume(pool)
        k = data.draw(st.sampled_from(pool))
        new = self.UNSEEN
        before = self._snapshot()
        with pytest.raises((KeyError, ValueError)):
            if kind == "dup_insert":
                self.dm.insert(self._frame([(k, new), (k, new)]))
            elif kind == "missing_col":
                self.dm.insert(self._frame([(k, new)], cols=self.VALUE_COLS[:-1]))
            elif kind == "insert_live":
                self.dm.insert(self._frame([(k, new)]))
            elif kind == "update_absent":
                self.dm.update(self._frame([(k, new)]))
            else:
                self.dm.update(self._frame([(k, new), (k, new)]))
        assert self._snapshot() == before

    @invariant()
    def lossless(self):
        """Every key of the domain and beyond; the model runs once, on the
        existing keys that ``T_aux`` does not hold."""
        keys = self.domain + self.OUT_OF_DOMAIN
        rows, predict = [], MappingModel.predict

        def spy(model, hot, blocks):
            rows.append(len(hot))
            return predict(model, hot, blocks)

        with mock.patch.object(MappingModel, "predict", spy):
            out = self.dm.lookup(np.array(keys))
        self._check_lookup(keys, out)
        assert rows == [self.dm.vexist.count() - self.dm.aux.n_entries]

    @invariant()
    def no_vaux_file(self):
        """``V_aux`` lives in memory and in the pickle only."""
        assert not any("vaux.bin" in files for _, _, files in os.walk(self.workdir))

    @invariant()
    def aux_holds_exactly_the_misses(self):
        """``T_aux``'s rows are the keys the model misses, each with the
        oracle's codes of every value column."""
        aux_keys, aux_codes = self.dm.aux.master()
        want, want_codes = np.empty(0, np.int64), dict.fromkeys(self.VALUE_COLS, np.empty(0))
        if self.oracle:
            ks, vals = zip(*self.oracle.items())
            dense = self.KS.dense_index(np.array(ks))
            codes = {
                c: self.dm.codecs[c].encode([v[j] for v in vals])
                for j, c in enumerate(self.VALUE_COLS)
            }
            wrong = misclassified(self.dm.model, self.KS, dense, codes)
            order = np.argsort(dense[wrong])
            want = dense[wrong][order]
            want_codes = {c: v[wrong][order] for c, v in codes.items()}
        assert aux_keys.tolist() == want.tolist()
        assert set(aux_codes) == set(self.VALUE_COLS)
        for c in self.VALUE_COLS:
            assert aux_codes[c].dtype == np.int32
            assert aux_codes[c].tolist() == want_codes[c].tolist()
        assert self.dm.aux.n_entries == len(want)


class SimpleKeyMachine(_ModificationMachine):
    KEY_COLS = ["key"]
    KS = KeySpace((1,), (40,))
    OUT_OF_DOMAIN = [(0,), (41,), (-3,), (1000,)]
    POOL_BUDGET = None


class CompositeKeyMachine(_ModificationMachine):
    KEY_COLS = ["k1", "k2"]
    KS = KeySpace((1, 1), (5, 8))
    OUT_OF_DOMAIN = [(0, 1), (6, 1), (1, 9), (-1, -1)]
    POOL_BUDGET = 1024  # below the pinned structure: every T_aux load is evicted at once


class WideRowMachine(_ModificationMachine):
    """Twenty-two int columns of up to eight values each, so a full ``T_aux``
    has a radix product of 8^22 = 2^66 and is written per-column, while a
    sparse one (few rows, few distinct codes) packs. Rows coming and going
    switch the layout both ways, and inserts grow a packed radix."""

    KEY_COLS = ["key"]
    KS = KeySpace((1,), (40,))
    OUT_OF_DOMAIN = [(0,), (41,)]
    POOL_BUDGET = None
    VALUE_COLS = [f"w{i}" for i in range(22)]
    ROW = st.tuples(*[st.integers(0, 7)] * 22)
    UNSEEN = (100,) * 22
    REACHED: set[str] = set()


_SM_SETTINGS = settings(
    max_examples=40, stateful_step_count=20, deadline=None, database=None,
    derandomize=True, suppress_health_check=[HealthCheck.too_slow],
)
TestSimpleKeyMachine = SimpleKeyMachine.TestCase
TestSimpleKeyMachine.settings = _SM_SETTINGS
TestCompositeKeyMachine = CompositeKeyMachine.TestCase
TestCompositeKeyMachine.settings = _SM_SETTINGS


def test_wide_rows_switch_layout_and_grow_radix():
    """The machine reaches both ``T_aux`` transitions and stays lossless
    through them."""
    WideRowMachine.REACHED.clear()
    run_state_machine_as_test(WideRowMachine, settings=_SM_SETTINGS)
    assert WideRowMachine.REACHED == {"layout switch", "insert grew radix"}
