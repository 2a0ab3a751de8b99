"""Tests for the hybrid DeepMapping structure: build and Algorithm 1 lookup."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.memory_pool import MemoryPool
from repro.core.deepmapping import DeepMapping, DeepMappingConfig, misclassified, predict_codes
from repro.core.encoding import KeySpace
from repro.core.model import MappingModel, TrainConfig
from repro.core.nn import ArchSpec
from repro.synth_data import synth_correlation

CFG = DeepMappingConfig(
    arch=ArchSpec((48,), {}), train=TrainConfig(epochs=25, batch_size=256), codec="z"
)


def _relation(n=2000, seed=0):
    """Mixed learnable/unlearnable columns with string + int types."""
    rng = np.random.default_rng(seed)
    key = np.arange(1, n + 1)
    return pd.DataFrame(
        {
            "key": key,
            "easy": (key - 1) % 10 % 7,  # function of the last digit
            "hard": rng.integers(0, 5, n),  # pure noise → mostly in T_aux
            "txt": np.array(["red", "green", "blue"])[(key - 1) // 10 % 10 % 3],
        }
    )


@pytest.fixture(scope="module")
def dm(tmp_path_factory):
    df = _relation()
    return (
        DeepMapping.build(
            df, ["key"], ["easy", "hard", "txt"], CFG,
            workdir=str(tmp_path_factory.mktemp("dm")),
        ),
        df,
    )


class TestBuild:
    def test_lossless_full_scan(self, dm):
        d, df = dm
        out = d.lookup(df["key"].to_numpy())
        for c in ["easy", "hard", "txt"]:
            assert (out[c].to_numpy() == df[c].to_numpy()).all()

    def test_easy_column_memorized(self, dm):
        d, df = dm
        dense = d.key_space.dense_index(df[["key"]].to_numpy())
        for c in ("easy", "txt"):
            codes = {c: d.codecs[c].encode(df[c])}
            assert misclassified(d.model, d.key_space, dense, codes).mean() < 0.05

    def test_noise_rows_in_aux(self, dm):
        d, _ = dm
        # the 'hard' column is noise → most tuples are misclassified rows
        assert d.aux.n_entries > 1000

    def test_storage_breakdown_keys(self, dm):
        d, _ = dm
        bd = d.storage_breakdown()
        assert set(bd) == {"model", "aux_table", "vexist", "fdecode"}
        assert all(v >= 0 for v in bd.values())
        assert d.nbytes_disk == sum(bd.values())

    def test_memorized_fraction_range(self, dm):
        d, _ = dm
        # row-level: a tuple counts only if every column is right, and the
        # noise column caps that near its majority-class rate (~1/5)
        assert 0.05 < d.memorized_fraction < 0.6

    def test_compression_ratio(self, dm):
        d, _ = dm
        assert 0 < d.compression_ratio(10**7) < 1

    def test_duplicate_keys_rejected(self, tmp_path):
        df = pd.DataFrame({"key": [1, 1], "v": [2, 3]})
        with pytest.raises(ValueError):
            DeepMapping.build(df, ["key"], ["v"], CFG, workdir=str(tmp_path))

    def test_explicit_keyspace_headroom(self, tmp_path):
        df = _relation(200)
        ks = KeySpace((1,), (1000,))
        d = DeepMapping.build(
            df, ["key"], ["easy"], CFG, workdir=str(tmp_path), key_space=ks
        )
        assert d.vexist.size == 1000
        assert d.vexist.count() == 200

    def test_residents_pinned(self, dm):
        d, _ = dm
        assert d.pool.pinned_bytes >= d.model.nbytes_resident()


class TestLookup:
    def test_nonexistent_key_null(self, dm):
        d, _ = dm
        out = d.lookup(np.array([100_000]))
        assert out["easy"][0] is None and out["txt"][0] is None

    def test_deleted_gap_key_null(self, tmp_path):
        df = _relation(100).drop(index=[49]).reset_index(drop=True)  # key 50 missing
        d = DeepMapping.build(df, ["key"], ["easy"], CFG, workdir=str(tmp_path))
        out = d.lookup(np.array([50]))
        assert out["easy"][0] is None  # existence check beats hallucination

    def test_column_subset(self, dm):
        d, df = dm
        out = d.lookup(np.array([5]), cols=["txt"])
        assert list(out.columns) == ["key", "txt"]
        assert out["txt"][0] == df["txt"][4]

    def test_duplicate_query_keys(self, dm):
        d, df = dm
        out = d.lookup(np.array([7, 7, 7]))
        assert (out["easy"].to_numpy() == df["easy"][6]).all()

    def test_empty_batch(self, dm):
        d, _ = dm
        out = d.lookup(np.empty(0, np.int64))
        assert len(out) == 0

    def test_frame_does_not_alias_query_keys(self, dm):
        d, df = dm
        keys = df["key"].to_numpy(dtype=np.int64, copy=True)[:50]
        out = d.lookup(keys)
        before = out.copy(deep=True)
        keys[:] = -1
        pd.testing.assert_frame_equal(out, before)

    def test_stats_counters_advance(self, dm):
        d, df = dm
        d.stats.reset()
        d.lookup(df["key"].to_numpy()[:500])
        assert d.stats.inference_time > 0
        assert d.stats.aux_time >= 0 and d.stats.decode_time > 0

    def test_pool_budget_still_correct(self, tmp_path):
        df = _relation(1500, seed=3)
        pool = MemoryPool(32 * 1024)
        d = DeepMapping.build(
            df, ["key"], ["easy", "hard"], CFG, workdir=str(tmp_path), pool=pool
        )
        out = d.lookup(df["key"].to_numpy())
        assert (out["hard"].to_numpy() == df["hard"].to_numpy()).all()


class TestCompositeKey:
    def test_composite_lossless(self, tmp_path):
        n_o, n_l = 300, 4
        keys = np.array([[o, l] for o in range(1, n_o + 1) for l in range(1, n_l + 1)])
        rng = np.random.default_rng(1)
        df = pd.DataFrame(
            {
                "ok": keys[:, 0], "ln": keys[:, 1],
                "v": rng.integers(0, 6, len(keys)),
            }
        )
        d = DeepMapping.build(
            df, ["ok", "ln"], ["v"],
            DeepMappingConfig(arch=ArchSpec((32,), {}), train=TrainConfig(epochs=5)),
            workdir=str(tmp_path),
        )
        out = d.lookup(keys)
        assert (out["v"].to_numpy() == df["v"].to_numpy()).all()
        miss = d.lookup(np.array([[n_o + 1, 1]]))
        assert miss["v"][0] is None

    def test_wrong_arity_raises(self, tmp_path):
        """A key with the wrong number of components is an error, whether
        or not its leading components fall inside the domain."""
        keys = np.array([[o, l] for o in range(1, 51) for l in range(1, 5)])
        df = pd.DataFrame({"ok": keys[:, 0], "ln": keys[:, 1], "v": keys[:, 0] % 3})
        d = DeepMapping.build(
            df, ["ok", "ln"], ["v"],
            DeepMappingConfig(arch=ArchSpec((8,), {}), train=TrainConfig(epochs=1)),
            workdir=str(tmp_path),
        )
        for bad in (np.array([1, 2, 3]), np.array([[999, 999, 1]])):
            with pytest.raises(ValueError, match="key components"):
                d.lookup(bad)
            with pytest.raises(ValueError, match="key components"):
                d.delete(bad)
        assert d.lookup(keys)["v"].tolist() == df["v"].tolist()


class TestRangeQuery:
    def test_range_matches_pandas(self, dm):
        d, df = dm
        lo, hi = 100, 160  # dense = key - 1
        out = d.lookup_range(lo, hi)
        expect = df[(df["key"] >= lo + 1) & (df["key"] <= hi)]
        assert len(out) == len(expect)
        assert (out["easy"].to_numpy() == expect["easy"].to_numpy()).all()

    def test_range_respects_deletion_gaps(self, tmp_path):
        df = _relation(100)
        df = df[~df["key"].isin([10, 11])].reset_index(drop=True)
        d = DeepMapping.build(df, ["key"], ["easy"], CFG, workdir=str(tmp_path))
        out = d.lookup_range(5, 15)  # dense 5..14 → keys 6..15 minus 10, 11
        assert set(out["key"]) == {6, 7, 8, 9, 12, 13, 14, 15}

    def test_empty_range(self, dm):
        d, _ = dm
        assert len(d.lookup_range(5, 5)) == 0


class TestSerialization:
    def test_pickle_roundtrip_lookup(self, dm):
        import pickle
        d, df = dm
        d2 = pickle.loads(pickle.dumps(d))
        out = d2.lookup(df["key"].to_numpy()[:100])
        assert (out["hard"].to_numpy() == df["hard"].to_numpy()[:100]).all()

    def test_lookups_leave_no_derived_state(self, tmp_path):
        """Inference derives its tables from the weights per call: lookups
        add nothing to the pickled structure (the Spark broadcast) or to
        the Eq. 1 sizes."""
        import pickle
        df = _relation(500)
        d = DeepMapping.build(
            df, ["key"], ["easy", "hard", "txt"],
            DeepMappingConfig(arch=ArchSpec((16,), {}), train=TrainConfig(epochs=2)),
            workdir=str(tmp_path),
        )

        def size():
            d.stats.reset()  # per-measurement counters, not structure
            return len(pickle.dumps(d)), d.storage_breakdown()

        before = size()
        d.lookup(df["key"].to_numpy())
        d.lookup_range(1, 500)
        assert size() == before
        # the build sweep ran inference too: the model holds no attribute a
        # freshly constructed model lacks
        fresh = MappingModel(d.model.input_dim, ArchSpec((16,), {}), d.model.col_classes)
        assert vars(d.model).keys() == vars(fresh).keys()
        assert vars(d.model.net).keys() == vars(fresh.net).keys()
        assert vars(d.key_space) == vars(KeySpace(d.key_space.lows, d.key_space.cards))


def test_model_pickle_holds_no_training_state(dm):
    """The pickled model (part of the Spark broadcast) is its weights: the
    Adam moments training left behind are not pickled."""
    import pickle
    d, _ = dm
    assert all(lyr.adam is not None for lyr in d.model.net.all_layers())
    assert len(pickle.dumps(d.model)) <= 1.1 * d.model.nbytes_resident()
    restored = pickle.loads(pickle.dumps(d.model))
    assert all(lyr.adam is None for lyr in restored.net.all_layers())


def test_model_size_is_its_pickle(tmp_path):
    """Eq. 1's size(M) is the pickled model, before and after a retrain."""
    import pickle
    d = DeepMapping.build(
        _relation(500), ["key"], ["easy", "hard", "txt"],
        DeepMappingConfig(arch=ArchSpec((16,), {}), train=TrainConfig(epochs=2)),
        workdir=str(tmp_path),
    )
    def pickled():
        return len(pickle.dumps(d.model, protocol=pickle.HIGHEST_PROTOCOL))

    assert d.storage_breakdown()["model"] == pickled()
    d.retrain()
    assert d.storage_breakdown()["model"] == pickled()


class _Frames:
    """Stands in for a SparkSession: the generator's ``createDataFrame``
    hands the pandas frame back, so no JVM starts."""

    def createDataFrame(self, pdf):  # noqa: N802
        return pdf


class TestSweepInvariant:
    """Lookup-time inference must reproduce the build sweep's argmax on every
    key, whatever the batch it runs in: T_aux repairs only the misses the
    sweep saw, so a flipped argmax on a memorized key is a wrong answer."""

    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory):
        df = synth_correlation(_Frames(), n=20_000, n_value_cols=4, correlated=True)
        d = DeepMapping.build(
            df, ["key"], ["v0", "v1", "v2", "v3"],
            DeepMappingConfig(train=TrainConfig(epochs=3)),
            workdir=str(tmp_path_factory.mktemp("sweep")),
        )
        return d, df

    def test_model_answers_most_keys(self, built):
        d, _ = built
        assert d.memorized_fraction > 0.85

    @pytest.mark.parametrize("batch", [1, 7, 1000, 20_000])
    def test_lossless_in_shuffled_batches(self, built, batch):
        d, df = built
        keys = np.random.default_rng(batch).permutation(df["key"].to_numpy())
        got = {c: np.empty(len(df), dtype=df[c].dtype) for c in d.value_cols}
        for s in range(0, len(keys), batch):
            q = keys[s : s + batch]
            found, vals = d.lookup_arrays(q)
            assert found.all()
            for c in d.value_cols:
                got[c][q - 1] = vals[c]  # keys are 1..n
        for c in d.value_cols:
            assert (got[c] == df[c].to_numpy()).all(), c


def _predict_spy(monkeypatch) -> list[np.ndarray]:
    """The factored features of every ``MappingModel.predict`` call from now
    on, in call order."""
    calls, predict = [], MappingModel.predict

    def spy(model, hot, blocks):
        calls.append(hot.copy())
        return predict(model, hot, blocks)

    monkeypatch.setattr(MappingModel, "predict", spy)
    return calls


def _paper_order(d: DeepMapping, keys: np.ndarray, cols: list[str]):
    """Algorithm 1 in the paper's order: the model predicts every existing
    key, then ``T_aux`` overrides the keys it holds."""
    keys = keys[:, None]
    found = np.zeros(len(keys), dtype=bool)
    idx = np.flatnonzero(d.key_space.contains(keys))
    dense = d.key_space.dense_index(keys[idx])
    exists = d.vexist.get(dense)
    found[idx[exists]] = True
    dense = dense[exists]
    pred = predict_codes(d.model, d.key_space, dense, cols)
    in_aux, aux_codes = d.aux.lookup(dense)
    for c in cols:
        pred[c][in_aux] = aux_codes[c]
    return found, {c: d.codecs[c].decode(pred[c]) for c in cols}


class TestLookupOrder:
    """A lookup validates against ``T_aux`` first and runs the model only on
    the existing keys ``T_aux`` does not hold; the answers are those of the
    paper's order, key by key."""

    N, DOMAIN = 2000, 2500

    @pytest.fixture(scope="class")
    def holed(self, tmp_path_factory):
        df = _relation(self.N)
        df = df[df["key"] % 7 != 0].reset_index(drop=True)  # absent keys inside the domain
        d = DeepMapping.build(
            df, ["key"], ["easy", "hard", "txt"], CFG,
            workdir=str(tmp_path_factory.mktemp("holed")), key_space=KeySpace((1,), (self.DOMAIN,)),
        )
        assert 0 < d.aux.n_entries < len(df)
        return d, df

    def _query(self) -> np.ndarray:
        """Every domain key shuffled, a few twice, and out-of-domain keys."""
        rng = np.random.default_rng(5)
        keys = np.arange(1, self.DOMAIN + 1)
        return rng.permutation(np.concatenate([keys, keys[:40], [0, -3, self.DOMAIN + 1, 10**6]]))

    def _check(self, d, df, monkeypatch, cols):
        keys = self._query()
        calls = _predict_spy(monkeypatch)
        found, vals = d.lookup_arrays(keys, cols)
        assert len(calls) == 1
        dense = d.key_space.dense_index(keys[found][:, None])
        in_aux, _ = d.aux.lookup(dense)
        assert np.array_equal(calls[0], d.key_space.hot_positions(dense[~in_aux]))

        ref_found, ref_vals = _paper_order(d, keys, cols)
        assert (found == ref_found).all()
        truth = df.set_index("key")
        for c in cols:
            assert vals[c].tolist() == ref_vals[c].tolist(), c
            assert vals[c].tolist() == truth.loc[keys[found], c].tolist(), c

    def test_model_sees_only_keys_aux_lacks(self, holed, monkeypatch):
        d, df = holed
        self._check(d, df, monkeypatch, d.value_cols)

    def test_column_subset(self, holed, monkeypatch):
        d, df = holed
        for cols in (["txt"], ["hard", "easy"]):
            self._check(d, df, monkeypatch, cols)

    @staticmethod
    def _constant_model(ks: KeySpace, codes: dict[str, int], n_classes: dict[str, int]):
        """A model that predicts ``codes[c]`` for column ``c`` on every key."""
        m = MappingModel(ks.input_dim, ArchSpec((4,), {}), n_classes)
        for lyr in m.net.all_layers():
            lyr.w[:] = 0
            lyr.b[:] = 0
        for c, code in codes.items():
            m.net.heads[c][-1].b[code] = 1
        return m

    @pytest.mark.parametrize("aux", ["empty", "every key"])
    def test_aux_empty_or_full(self, tmp_path, monkeypatch, aux):
        """A model right on every row leaves ``T_aux`` empty and runs on
        every existing key; one wrong on every row puts every key in
        ``T_aux`` and runs on none."""
        key = np.arange(1, 301)
        if aux == "empty":
            df = pd.DataFrame({"key": key, "a": "x", "b": 7})
            codes, n_classes = {"a": 0, "b": 0}, {"a": 1, "b": 1}
        else:  # a row is right only with codes (0, 1), and every row has equal codes
            df = pd.DataFrame({"key": key, "a": key % 2, "b": np.array(["u", "v"])[key % 2]})
            codes, n_classes = {"a": 0, "b": 1}, {"a": 2, "b": 2}
        df = df[df["key"] % 7 != 0]
        ks = KeySpace((1,), (400,))
        d = DeepMapping.build(
            df, ["key"], ["a", "b"], CFG, workdir=str(tmp_path), key_space=ks,
            model=self._constant_model(ks, codes, n_classes),
        )
        assert d.aux.n_entries == (0 if aux == "empty" else len(df))
        calls = _predict_spy(monkeypatch)
        keys = np.arange(0, 402)
        out = d.lookup(keys)
        assert [len(hot) for hot in calls] == [len(df) - d.aux.n_entries]
        want = df.set_index("key").reindex(keys)
        for c in ("a", "b"):
            assert out[c].tolist() == [None if pd.isna(v) else v for v in want[c].tolist()]
