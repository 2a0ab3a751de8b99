"""Tests of the benchmark itself: its oracle, its tracer, its tail statistic
and the consistency of the program's own per-phase lookup counters.

    python3 -m pytest perfbench -q
"""
import os
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    """One set-up per run keeps the tests short."""
    monkeypatch.setattr(bench, "SETUPS", 1)


@pytest.mark.parametrize("workload", ["lookup-mem", "lookup-disk"])
def test_lookup_phases_sum_to_lookup_time(tmp_path, workload):
    """The four LookupStats phases cover DM.lookup to within 10%."""
    r = bench.Run(workload, 7, 1.0, str(tmp_path), None)
    bench.run_lookup(r)
    assert r.failed == 0 and r.attempted > 3
    assert 0.9 <= r.metrics["deepmapping.phase_coverage"] <= 1.0


def test_modify_mix_round_is_lossless(tmp_path):
    r = bench.Run("modify-mix", 7, 0.0, str(tmp_path), None)
    bench.run_modify(r)
    assert r.failed == 0
    assert len(r.latencies) == bench.MIX_CYCLES
    assert r.metrics["aux_table.rewrite_bytes_per_user_byte"] > 0


def test_traced_run_reports_layers(tmp_path):
    tracer = Tracer()
    bench.install(tracer)
    try:
        r = bench.Run("lookup-disk", 7, 1.0, str(tmp_path), tracer)
        bench.run_lookup(r)
    finally:
        tracer.restore()
    assert r.failed == 0 and r.traced and r.untraced
    assert r.metrics["model.predict_ms"] > 0
    assert r.metrics["memory_pool.misses"] > 0
    assert r.metrics["build.train_s"] > 0 and r.metrics["build.sweep_s"] > 0
    assert 0 < r.metrics["aux_table.found_ratio"] <= 1


def test_oracle_counts_wrong_values_types_and_nulls():
    df = pd.DataFrame({"k": [1, 2, 4], "v": [10, 20, 40], "s": ["a", "b", "d"]})
    o = bench.Oracle(df, ["k"], ["v", "s"], live_rows=2)  # key 4 is not live
    keys = np.array([1, 2, 3, 4, 99])
    good = {"v": np.array([10, 20, None, None, None], dtype=object),
            "s": np.array(["a", "b", None, None, None], dtype=object)}
    assert o.wrong_rows(keys, good) == 0
    for col, i, bad in (("v", 0, 11), ("v", 1, "20"), ("v", 1, 20.5), ("s", 3, "d"), ("v", 2, 0)):
        got = {c: v.copy() for c, v in good.items()}
        got[col][i] = bad
        assert o.wrong_rows(keys, got) == 1, (col, i, bad)
    got = {c: v.copy() for c, v in good.items()}
    got["v"][0] = np.int64(10)  # equal value, but not the original Python type
    assert o.wrong_rows(keys, got) == 1


def test_spark_values_read_back_through_the_spark_type():
    from pyspark.sql import types as T

    schema = T.StructType([
        T.StructField("k", T.LongType(), False),
        T.StructField("v", T.LongType(), True),
        T.StructField("w", T.DoubleType(), True),
    ])
    df = pd.DataFrame({"k": [1, 2], "v": [10, 20], "w": [10, 20]})
    o = bench.Oracle(df, ["k"], ["v", "w"], live_rows=2)
    # toPandas: a nullable LongType column with a NULL arrives as float64
    out = pd.DataFrame({"k": [1, 2, 3], "v": [10.0, 20.0, np.nan], "w": [10.0, 20.0, np.nan]})
    got = bench.spark_values(out, schema, ["v", "w"])
    assert [type(x) for x in got["v"]] == [int, int, type(None)]
    keys = out["k"].to_numpy()
    assert o.wrong_rows(keys, {"v": got["v"], "w": got["v"]}) == 0
    assert o.wrong_rows(keys, got) == 2  # DoubleType hands back floats for int values
    out.loc[0, "v"] = 10.5
    bad = bench.spark_values(out, schema, ["v", "w"])["v"]
    assert o.wrong_rows(keys, {"v": bad, "w": got["v"]}) == 1


def test_oracle_composite_keys_and_updates():
    df = pd.DataFrame({"a": [1, 1, 2], "b": [1, 2, 1], "v": [5, 6, 7]})
    o = bench.Oracle(df, ["a", "b"], ["v"], live_rows=3)
    keys = np.array([[1, 2], [2, 2], [2, 1]])
    assert o.wrong_rows(keys, {"v": np.array([6, None, 7], dtype=object)}) == 0
    o.update(np.array([[2, 1]]), {"v": np.array([9])})
    o.set_live(np.array([[1, 2]]), False)
    assert o.wrong_rows(keys, {"v": np.array([None, None, 9], dtype=object)}) == 0
    assert o.frame()["v"].tolist() == [5, 9]


def test_tail_has_ten_samples_above_it():
    samples = list(range(100))
    value, pct, n = bench.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert (pct, n) == (90.0, 100)
    assert bench.tail([3.0, 1.0])[0] == 3.0


def test_tracer_self_time_and_restore():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

        @staticmethod
        def free(x):
            return x

    originals = dict(Layer.__dict__)
    tr = Tracer()
    tr.wrap(Layer, "outer", "outer")
    tr.wrap(Layer, "inner", "inner", count=lambda a, out: {"rows": out})
    tr.wrap(Layer, "free", "free")
    tr.request = "r1"
    assert Layer().outer() == 2 and Layer.free(3) == 3
    tr.enabled = False
    Layer().outer()
    tr.restore()
    assert all(Layer.__dict__[a] is originals[a] for a in ("outer", "inner", "free"))
    assert len(tr.spans) == 3
    outer, inner = tr.spans[0], tr.spans[1]
    assert inner[3] == 0 and outer[3] is None
    st = tr.self_times({"r1"})
    assert st["outer"] == pytest.approx((outer[2] - outer[1]) - (inner[2] - inner[1]))
    assert tr.counts("inner", {"r1"}) == {"rows": 1}
    assert tr.under("outer", "free") == [1]


def test_run_refuses_a_directory_without_program_source(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_run", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lookup-mem", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0 and '"correct"' not in out.stdout
