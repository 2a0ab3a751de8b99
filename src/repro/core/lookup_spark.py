"""Spark integration: batch lookup (Algorithm 1, "(Parallel) Batch Key
Lookup").

The hybrid structure is a read-only object once built, so it is shipped
to executors with ``SparkContext.broadcast``. The broadcast carries the
model, ``V_exist``, ``f_decode``, ``T_aux``'s key bit vector ``V_aux`` and
its partition index, but not ``T_aux``'s rows (memory pools drop their
runtime caches on pickle): executors read only ``T_aux``'s partition files
from the driver's workdir, so this needs local mode or a filesystem shared
with the executors.
Lookups then run as an Arrow-backed ``mapInPandas`` over the query-key
DataFrame — the paper's batched, parallel inference path. Each batch gets
the structure's typed result (found-mask plus native-dtype values) and
turns it into nullable columns, NULL for non-existing keys. Each Python
worker runs its batches' inference on its own thread, in buffers that
thread keeps (``MultiTaskMLP.predict``).

The structure itself is built on the driver with
:meth:`~repro.core.deepmapping.DeepMapping.build` over a pandas relation
(the paper trains centrally too); ``jobs/build_deepmapping.py`` collects
the Spark relation and calls it.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from .deepmapping import DeepMapping

__all__ = ["lookup_distributed"]


def _spark_type_for(col: str, values: np.ndarray) -> T.DataType:
    """Spark type of a value column, from its ``f_decode`` dictionary."""
    kind = np.asarray(values).dtype.kind
    if kind in "iu":
        return T.LongType()
    if kind == "f":
        return T.DoubleType()
    if kind == "b":
        return T.BooleanType()
    if kind == "O" and not all(isinstance(v, str) for v in values):
        # an int column whose dictionary became object dtype (it met a
        # string that was deleted before a retrain) still holds one type
        if all(type(v) is int and -(1 << 63) <= v < 1 << 63 for v in values):
            return T.LongType()
        raise TypeError(f"column {col!r} holds values of more than one type; a Spark column has one")
    return T.StringType()


def _nullable(found: np.ndarray, values: np.ndarray) -> pd.arrays.IntegerArray | np.ndarray:
    """A column aligned with ``found``: ``values`` where found, NULL elsewhere."""
    if values.dtype.kind in "iu":
        data = np.zeros(len(found), dtype=np.int64)
        data[found] = values
        return pd.arrays.IntegerArray(data, ~found)
    out = np.full(len(found), None, dtype=object)
    out[found] = values
    return out


def lookup_distributed(
    spark: SparkSession, dm: DeepMapping, keys_df: DataFrame, cols: list[str] | None = None
) -> DataFrame:
    """Answer a DataFrame of query keys with a DataFrame of values.

    ``keys_df`` must contain the structure's key columns. Non-existing
    keys yield NULL values (Algorithm 1 line 10). Raises ``TypeError``,
    before any job runs, for a requested column whose values are not all
    of one type (an int column that met a string).
    """
    cols = cols or dm.value_cols
    key_cols = dm.key_cols
    fields = [T.StructField(k, T.LongType(), False) for k in key_cols]
    for c in cols:
        fields.append(T.StructField(c, _spark_type_for(c, dm.codecs[c].classes_), True))
    schema = T.StructType(fields)
    bc = spark.sparkContext.broadcast(dm)

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        local = bc.value
        for pdf in batches:
            if len(pdf) == 0:
                continue
            keys = pdf[key_cols].to_numpy(np.int64)
            found, vals = local.lookup_arrays(keys, cols)
            out = {k: keys[:, i] for i, k in enumerate(key_cols)}
            for c in cols:
                out[c] = _nullable(found, vals[c])
            yield pd.DataFrame(out)

    return keys_df.select(*key_cols).mapInPandas(run, schema=schema)
