"""Shared fixtures/config for the per-table benchmarks.

Benchmarks measure the *lookup/modification operation* of each method at
SF≈0.02 (build cost is paid once per module in fixtures). Run with:

    pytest benchmarks/ --benchmark-only -q
"""
from __future__ import annotations

from repro.core.model import TrainConfig
from repro.core.nn import ArchSpec
from repro.experiments.harness import ExperimentConfig, build_method
from repro.workloads.datasets import REGISTRY, uncompressed_nbytes
from repro.workloads.queries import random_key_batch

SF = 0.02
B = 1000

BENCH_CFG_EXCEEDS = ExperimentConfig(
    batch_sizes=(B,), pool_fraction=0.3, repeats=1,
    dm_arch=ArchSpec((128,), {}), dm_train=TrainConfig(epochs=20, batch_size=1024),
)
BENCH_CFG_FITS = ExperimentConfig(
    batch_sizes=(B,), pool_fraction=None, repeats=1,
    dm_arch=ArchSpec((128,), {}), dm_train=TrainConfig(epochs=20, batch_size=1024),
)


def build_stores(spark, workload_name, methods, workdir, cfg, sf=SF):
    wl = REGISTRY[workload_name]
    pdf = wl.pandas(spark, sf)
    raw = uncompressed_nbytes(pdf[list(wl.key_cols) + list(wl.value_cols)])
    stores = {}
    for m in methods:
        stores[m] = build_method(m, wl, pdf, f"{workdir}/{m}", pool=cfg.pool(raw), cfg=cfg)
    keys = random_key_batch(pdf, list(wl.key_cols), B, seed=0)
    return wl, pdf, stores, keys
