"""Measurement harness behind every evaluation table (paper Sec. V).

For one workload it builds each method's store (AB, HB, ABC-D/G/Z/L,
HBC-Z/L, DS, DM-Z, DM-L), measures the at-rest storage size, and times
random-key batch lookups through an LRU memory pool of a given byte
budget — the paper's two regimes:

* *exceeds memory* (Table I): ``pool_fraction`` < 1 of the uncompressed
  (AB) bytes, so baselines continually evict/reload/decompress
  partitions while DeepMapping's resident structure fits;
* *fits memory* (Table II): unbounded pool.

DM-Z and DM-L differ only in the codec that compresses ``T_aux``, so one
network is trained per dataset and both are built around it.

Latency per batch is the mean of ``repeats`` timed runs (paper: 5),
after the store answered one warm-up batch. Pool counters are recorded
per batch size over the timed runs only: they are reset after the
warm-up.
Every row of the source relation is looked up once after the build and
cross-checked for exactness (every method must be lossless except DS,
which is checked through its corrections — also exact for categorical
data).
"""
from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np
import pandas as pd

from ..baselines.array_store import ArrayStore
from ..baselines.deepsqueeze import DeepSqueezeStore
from ..baselines.hash_store import HashStore
from ..baselines.memory_pool import MemoryPool
from ..core.deepmapping import DeepMapping, DeepMappingConfig
from ..core.nn import ArchSpec, TrainConfig
from ..workloads.datasets import Workload, uncompressed_nbytes
from ..workloads.queries import random_key_batch

__all__ = ["MethodResult", "ExperimentConfig", "run_lookup_experiment", "build_method", "METHODS"]

# simulated storage-device bandwidth of every bounded pool, bytes/s: 25 MB/s
# stands in for the paper's edge/EBS disk (DESIGN.md §2.6)
IO_BANDWIDTH = 25e6
PARTITION_BYTES = 64 * 1024  # every store's partition size, T_aux's too

# method name → (store kind, codec)
METHODS: dict[str, tuple[str, str]] = {
    "AB": ("array", "none"),
    "HB": ("hash", "none"),
    "ABC-D": ("array", "dict"),
    "ABC-G": ("array", "gzip"),
    "ABC-Z": ("array", "z"),
    "ABC-L": ("array", "lzma"),
    "HBC-Z": ("hash", "z"),
    "HBC-L": ("hash", "lzma"),
    "DS": ("deepsqueeze", "none"),
    "DM-Z": ("deepmapping", "z"),
    "DM-L": ("deepmapping", "lzma"),
}


@dataclass
class MethodResult:
    method: str
    storage_mb: float
    latency_s: dict[int, float] = field(default_factory=dict)  # batch size → sec
    breakdown: dict = field(default_factory=dict)
    pool_stats: dict = field(default_factory=dict)  # batch size → timed-run PoolStats
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentConfig:
    batch_sizes: tuple[int, ...] = (100, 1000, 10000)
    pool_fraction: float | None = 0.3  # None → unbounded (fits-memory regime)
    repeats: int = 3
    dm_arch: ArchSpec = ArchSpec((128,), {})
    dm_train: TrainConfig = TrainConfig()

    def pool(self, raw_bytes: int) -> MemoryPool:
        """A fresh pool for a store over ``raw_bytes`` of uncompressed
        data: ``pool_fraction`` of them, at least 64 KB, or unbounded."""
        budget = None
        if self.pool_fraction is not None:
            budget = max(1 << 16, int(raw_bytes * self.pool_fraction))
        return MemoryPool(budget, io_bandwidth=IO_BANDWIDTH)


class _StoreAdapter:
    """Uniform facade: lookup(raw key tuples) → (found_mask, values)."""

    def __init__(self, kind: str, obj, key_space, value_cols):
        self.kind = kind
        self.obj = obj
        self.key_space = key_space
        self.value_cols = value_cols

    def lookup(self, keys: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """(found_mask, {col: object array aligned with ``keys``, None
        where not found}) — the NULL edge of every store's typed result."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.ndim == 1:
            keys = keys[:, None]
        if self.kind == "deepmapping":
            found, vals = self.obj.lookup_arrays(keys)
        else:
            in_dom = self.key_space.contains(keys)
            found, vals = np.zeros(len(keys), dtype=bool), {}
            if in_dom.any():
                hit, vals = self.obj.lookup_batch(self.key_space.dense_index(keys[in_dom]))
                found[in_dom] = hit
        out = {}
        for c in self.value_cols:
            out[c] = np.full(len(keys), None, dtype=object)
            if found.any():
                out[c][found] = vals[c]
        return found, out

    @property
    def nbytes_disk(self) -> int:
        return self.obj.nbytes_disk

    @property
    def pool(self) -> MemoryPool | None:
        return getattr(self.obj, "pool", None)


def build_method(
    method: str,
    workload: Workload,
    pdf: pd.DataFrame,
    workdir: str,
    *,
    pool: MemoryPool | None = None,
    cfg: ExperimentConfig = ExperimentConfig(),
    dm_model=None,
) -> _StoreAdapter:
    """Build one method's store over the relation ``pdf``."""
    kind, codec = METHODS[method]
    ks = workload.key_space(pdf)
    os.makedirs(workdir, exist_ok=True)
    if kind == "deepmapping":  # encodes the relation itself
        dm_cfg = DeepMappingConfig(
            arch=cfg.dm_arch, train=cfg.dm_train, codec=codec,
            partition_bytes=PARTITION_BYTES,
        )
        dm = DeepMapping.build(
            pdf, list(workload.key_cols), list(workload.value_cols), dm_cfg,
            workdir=workdir, pool=pool, key_space=ks, model=dm_model,
        )
        return _StoreAdapter(kind, dm, ks, list(workload.value_cols))

    if kind == "deepsqueeze":
        st = DeepSqueezeStore(pool=pool)
    else:
        st = {"array": ArrayStore, "hash": HashStore}[kind](
            workdir, codec=codec, partition_bytes=PARTITION_BYTES,
            pool=pool, name=f"{method}-{workload.name}",
        )
    st.build(
        ks.dense_index(pdf[list(workload.key_cols)].to_numpy()),
        {c: pdf[c].to_numpy() for c in workload.value_cols},
    )
    return _StoreAdapter(kind, st, ks, list(workload.value_cols))


def _verify(adapter: _StoreAdapter, pdf: pd.DataFrame, workload: Workload) -> None:
    """Look up every row of ``pdf`` and check each value."""
    keys = pdf[list(workload.key_cols)].to_numpy(np.int64)
    found, vals = adapter.lookup(keys)
    if not found.all():
        raise AssertionError(f"{adapter.kind}: {int((~found).sum())} existing keys not found")
    for c in workload.value_cols:
        expect = pdf[c].to_numpy()
        got = vals[c]
        if not all(g == e for g, e in zip(got, expect)):
            bad = next(i for i, (g, e) in enumerate(zip(got, expect)) if g != e)
            raise AssertionError(
                f"{adapter.kind}: wrong value col={c} key={keys[bad]} got={got[bad]} want={expect[bad]}"
            )


def run_lookup_experiment(
    workload: Workload,
    pdf: pd.DataFrame,
    methods: list[str],
    workdir: str,
    cfg: ExperimentConfig = ExperimentConfig(),
) -> dict[str, MethodResult]:
    """Build every method and measure storage + per-batch-size latency."""
    raw_bytes = uncompressed_nbytes(pdf[list(workload.key_cols) + list(workload.value_cols)])
    results: dict[str, MethodResult] = {}
    batches = {
        b: random_key_batch(pdf, list(workload.key_cols), b, seed=b)
        for b in cfg.batch_sizes
    }
    dm_model = None  # the first DM variant's network, shared by the others
    for method in methods:
        pool = cfg.pool(raw_bytes)
        adapter = build_method(
            method, workload, pdf, os.path.join(workdir, method), pool=pool, cfg=cfg,
            dm_model=dm_model,
        )
        _verify(adapter, pdf, workload)
        pool.clear()
        pool.stats.reset()
        res = MethodResult(method=method, storage_mb=adapter.nbytes_disk / 1e6)
        if adapter.kind == "deepmapping":
            dm_model = adapter.obj.model
            res.breakdown = adapter.obj.storage_breakdown()
            res.extra["memorized_fraction"] = adapter.obj.memorized_fraction
        for b, keys in batches.items():
            adapter.lookup(keys)
            pool.stats.reset()
            times = []
            for _ in range(cfg.repeats):
                t0 = time.perf_counter()
                adapter.lookup(keys)
                times.append(time.perf_counter() - t0)
            res.latency_s[b] = float(np.mean(times))
            res.pool_stats[b] = asdict(pool.stats)
        res.extra["raw_bytes"] = raw_bytes
        res.extra["compression_ratio"] = adapter.nbytes_disk / max(1, raw_bytes)
        results[method] = res
    return results
