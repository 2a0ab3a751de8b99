"""Tests for the Spark integration layer (repro.core.lookup_spark)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.deepmapping import DeepMapping, DeepMappingConfig
from repro.core.encoding import KeySpace
from repro.core.lookup_spark import lookup_distributed
from repro.core.model import TrainConfig
from repro.core.nn import ArchSpec
from repro.oracle import assert_equivalent

CFG = DeepMappingConfig(
    arch=ArchSpec((48,), {}), train=TrainConfig(epochs=20, batch_size=256), codec="z"
)


def _relation(n=1500, seed=0):
    rng = np.random.default_rng(seed)
    key = np.arange(1, n + 1)
    return pd.DataFrame(
        {
            "key": key,
            "easy": ((key - 1) % 10 % 7).astype(np.int64),
            "txt": np.array(["red", "green", "blue"])[rng.integers(0, 3, n)],
        }
    )


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    pdf = _relation()
    dm = DeepMapping.build(
        pdf, ["key"], ["easy", "txt"], CFG,
        workdir=str(tmp_path_factory.mktemp("spark-dm")),
    )
    return dm, pdf


class TestLookupDistributed:
    def test_matches_driver_lookup(self, spark, built):
        dm, pdf = built
        qkeys = pdf["key"].to_numpy()[::3]
        keys_df = spark.createDataFrame(pd.DataFrame({"key": qkeys}))
        out = lookup_distributed(spark, dm, keys_df).toPandas()
        out = out.sort_values("key").reset_index(drop=True)
        want = dm.lookup(np.sort(qkeys))
        assert (out["easy"].to_numpy() == want["easy"].to_numpy()).all()
        assert (out["txt"].to_numpy() == want["txt"].to_numpy()).all()

    def test_null_for_missing(self, spark, built):
        dm, pdf = built
        keys_df = spark.createDataFrame(pd.DataFrame({"key": [99999, 1]}))
        out = lookup_distributed(spark, dm, keys_df).toPandas().set_index("key")
        assert pd.isna(out.loc[99999, "txt"]) and pd.isna(out.loc[99999, "easy"])
        assert out.loc[1, "txt"] == pdf["txt"][0]
        assert out.loc[1, "easy"] == pdf["easy"][0]

    def test_schema(self, spark, built):
        dm, _ = built
        keys_df = spark.createDataFrame(pd.DataFrame({"key": [1]}))
        schema = lookup_distributed(spark, dm, keys_df).schema
        assert [(f.name, f.dataType.simpleString(), f.nullable) for f in schema] == [
            ("key", "bigint", False), ("easy", "bigint", True), ("txt", "string", True),
        ]

    def test_oracle_equivalence(self, spark, built):
        """Algorithm 1 through Spark == the SQL point-lookup semantics."""
        dm, pdf = built
        qkeys = np.unique(pdf["key"].to_numpy()[::5])
        keys_df = spark.createDataFrame(pd.DataFrame({"key": qkeys}))
        got = lookup_distributed(spark, dm, keys_df)
        assert_equivalent(
            got,
            """
            SELECT q.key AS key, t.easy AS easy, t.txt AS txt
            FROM queries q LEFT JOIN data t ON q.key = t.key
            """,
            queries=pd.DataFrame({"key": qkeys}),
            data=pdf,
        )

    def test_column_subset(self, spark, built):
        dm, pdf = built
        keys_df = spark.createDataFrame(pd.DataFrame({"key": [2, 3]}))
        out = lookup_distributed(spark, dm, keys_df, cols=["txt"]).toPandas()
        assert set(out.columns) == {"key", "txt"}


def test_mixed_type_column_rejected_before_any_job(spark, tmp_path):
    """An int column that met a string has no one Spark type: the call
    itself raises, naming the column, while a local lookup still returns
    each value with its own type."""
    pdf = pd.DataFrame({"key": [1, 2, 3], "v": [1, 2, 1], "txt": ["a", "b", "a"]})
    dm = DeepMapping.build(
        pdf, ["key"], ["v", "txt"], CFG, workdir=str(tmp_path), key_space=KeySpace((1,), (10,)),
    )
    dm.insert(pd.DataFrame({"key": [4], "v": ["x"], "txt": ["c"]}))
    keys_df = spark.createDataFrame(pd.DataFrame({"key": [1, 4]}))
    with pytest.raises(TypeError, match="'v'"):
        lookup_distributed(spark, dm, keys_df)
    out = lookup_distributed(spark, dm, keys_df, cols=["txt"]).toPandas().sort_values("key")
    assert out["txt"].tolist() == ["a", "c"]
    assert dm.lookup(np.array([1, 4]))["v"].tolist() == [1, "x"]


def test_int_column_with_object_dictionary_maps_to_long(spark, tmp_path):
    """An int column that met a string, which was deleted before a retrain,
    keeps an object dictionary of Python ints: Spark reads it as a LongType
    column, with the values a local lookup returns. Adding a float makes
    the column mixed again, and it is rejected, not coerced."""
    pdf = pd.DataFrame({"key": [1, 2, 3], "v": [1, 2, 1], "txt": ["a", "b", "a"]})
    dm = DeepMapping.build(
        pdf, ["key"], ["v", "txt"], CFG, workdir=str(tmp_path), key_space=KeySpace((1,), (10,)),
    )
    dm.insert(pd.DataFrame({"key": [4], "v": ["x"], "txt": ["c"]}))
    dm.delete(np.array([4]))
    dm.retrain()
    assert dm.codecs["v"].classes_.dtype == object
    keys_df = spark.createDataFrame(pd.DataFrame({"key": [1, 2, 3, 4]}))
    sdf = lookup_distributed(spark, dm, keys_df)
    assert sdf.schema["v"].dataType.simpleString() == "bigint"
    got = {r["key"]: r["v"] for r in sdf.collect()}
    assert got == {1: 1, 2: 2, 3: 1, 4: None}
    assert all(type(v) is int for v in dm.lookup(np.array([1, 2, 3]))["v"])

    dm.insert(pd.DataFrame({"key": [5], "v": [1.5], "txt": ["d"]}))
    with pytest.raises(TypeError, match="'v'"):
        lookup_distributed(spark, dm, keys_df)
    assert dm.lookup(np.array([5]))["v"].tolist() == [1.5]
