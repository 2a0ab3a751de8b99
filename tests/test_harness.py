"""Tests for the experiment harness (repro.experiments.harness)."""
import numpy as np
import pytest

from repro.core.model import TrainConfig
from repro.core.nn import ArchSpec
from repro.experiments.harness import (
    METHODS, ExperimentConfig, build_method, run_lookup_experiment,
)
from repro.workloads.datasets import REGISTRY
from repro.workloads.queries import random_key_batch

SF = 0.003
CFG = ExperimentConfig(
    batch_sizes=(100, 500), pool_fraction=0.3, repeats=1,
    dm_arch=ArchSpec((32,), {}), dm_train=TrainConfig(epochs=10, batch_size=256),
)


@pytest.fixture(scope="module")
def workload(spark):
    wl = REGISTRY["synth_multi_high"]
    return wl, wl.pandas(spark, SF)


@pytest.mark.parametrize("method", sorted(METHODS))
def test_build_and_exact_lookup_every_method(workload, tmp_path, method):
    wl, pdf = workload
    adapter = build_method(method, wl, pdf, str(tmp_path), cfg=CFG)
    keys = random_key_batch(pdf, list(wl.key_cols), 200, seed=1)
    found, vals = adapter.lookup(keys)
    assert found.all()
    lookup = pdf.set_index(list(wl.key_cols))
    for c in wl.value_cols:
        expect = lookup.loc[[tuple(k) if len(k) > 1 else k[0] for k in keys], c].to_numpy()
        assert all(g == e for g, e in zip(vals[c], expect)), (method, c)


@pytest.mark.parametrize("method", ["AB", "ABC-Z", "HB", "DM-Z"])
def test_missing_keys_every_kind(workload, tmp_path, method):
    wl, pdf = workload
    adapter = build_method(method, wl, pdf, str(tmp_path), cfg=CFG)
    n = pdf["key"].max()
    found, vals = adapter.lookup(np.array([[n + 5], [n * 10]]))
    assert not found.any()
    assert vals["v0"][0] is None


def test_run_experiment_structure(workload, tmp_path):
    wl, pdf = workload
    res = run_lookup_experiment(wl, pdf, ["AB", "ABC-Z", "DM-Z"], str(tmp_path), CFG)
    assert set(res) == {"AB", "ABC-Z", "DM-Z"}
    for r in res.values():
        assert r.storage_mb > 0
        assert set(r.latency_s) == {100, 500}
        assert all(v > 0 for v in r.latency_s.values())
        assert 0 < r.extra["compression_ratio"]
    assert res["DM-Z"].breakdown["model"] > 0
    assert "memorized_fraction" in res["DM-Z"].extra


def test_compressed_smaller_than_uncompressed(workload, tmp_path):
    wl, pdf = workload
    res = run_lookup_experiment(wl, pdf, ["AB", "ABC-Z", "DM-Z"], str(tmp_path), CFG)
    assert res["ABC-Z"].storage_mb < res["AB"].storage_mb
    assert res["DM-Z"].storage_mb < res["AB"].storage_mb


def test_high_correlation_dm_beats_abc_storage(workload, tmp_path):
    """The paper's headline: DM compresses correlated data far better."""
    wl, pdf = workload
    res = run_lookup_experiment(wl, pdf, ["ABC-Z", "DM-Z"], str(tmp_path), CFG)
    assert res["DM-Z"].storage_mb < res["ABC-Z"].storage_mb


def test_small_pool_causes_misses(workload, tmp_path):
    wl, pdf = workload
    cfg = ExperimentConfig(batch_sizes=(500,), pool_fraction=0.05, repeats=1,
                           dm_arch=CFG.dm_arch, dm_train=CFG.dm_train)
    res = run_lookup_experiment(wl, pdf, ["ABC-Z"], str(tmp_path), cfg)
    assert res["ABC-Z"].pool_stats[500]["misses"] > 0
    assert res["ABC-Z"].pool_stats[500]["bytes_read"] > 0


def test_unbounded_pool_no_misses_after_warm(workload, tmp_path):
    wl, pdf = workload
    cfg = ExperimentConfig(batch_sizes=(500,), pool_fraction=None, repeats=2,
                           dm_arch=CFG.dm_arch, dm_train=CFG.dm_train)
    res = run_lookup_experiment(wl, pdf, ["ABC-Z"], str(tmp_path), cfg)
    stats = res["ABC-Z"].pool_stats[500]
    assert stats["evictions"] == 0
    # the warm-up pass loaded every partition; its misses are not counted
    assert stats["misses"] == 0 and stats["hits"] > 0


def test_pool_stats_scoped_to_timed_repeats(workload, tmp_path):
    """Per batch size, the pool counters cover the timed repeats only: each
    repeat asks the pool once for every partition its batch touches."""
    wl, pdf = workload
    cfg = ExperimentConfig(batch_sizes=(100, 500), pool_fraction=0.05, repeats=3,
                           dm_arch=CFG.dm_arch, dm_train=CFG.dm_train)
    res = run_lookup_experiment(wl, pdf, ["AB"], str(tmp_path / "run"), cfg)
    st = build_method("AB", wl, pdf, str(tmp_path / "ref"), cfg=cfg).obj
    ks = wl.key_space(pdf)
    for b in cfg.batch_sizes:
        batch = random_key_batch(pdf, list(wl.key_cols), b, seed=cfg.seed + b)
        touched = len(np.unique(np.searchsorted(st._lo, ks.dense_index(batch), "right")))
        stats = res["AB"].pool_stats[b]
        assert stats["misses"] > 0
        assert stats["hits"] + stats["misses"] == cfg.repeats * touched


def test_verification_catches_corruption(workload, tmp_path):
    wl, pdf = workload
    adapter = build_method("AB", wl, pdf, str(tmp_path), cfg=CFG)
    bad = pdf.copy()
    bad["v0"] = bad["v0"] + 1
    from repro.experiments.harness import _verify
    with pytest.raises(AssertionError):
        _verify(adapter, bad, wl)


def test_methods_registry_complete():
    assert set(METHODS) == {
        "AB", "HB", "ABC-D", "ABC-G", "ABC-Z", "ABC-L", "HBC-Z", "HBC-L",
        "DS", "DM-Z", "DM-L",
    }
