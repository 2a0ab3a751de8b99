"""The DeepMapping benchmark workloads; README.md says why each one exists.

Every workload builds its DeepMapping (DM) structure from the repository's
own data generators, drives it from this one process as a closed loop with
one client, checks every answer against a numpy oracle of the live relation
and returns its metrics. With a :class:`~tracer.Tracer` the same loop also
yields the per-layer metrics; requests then alternate between tracing on and
off, so the run measures its own tracing overhead.
"""
from __future__ import annotations

import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np
import pandas as pd

import repro
from repro import synth_data as sd
from repro.baselines.memory_pool import MemoryPool
from repro.core import deepmapping as deepmapping_mod
from repro.core.aux_table import AuxTable
from repro.core.bitvector import BitVector
from repro.core.deepmapping import DeepMapping, DeepMappingConfig
from repro.core.encoding import KeySpace, LabelCodec
from repro.core.model import MappingModel, TrainConfig
from repro.workloads.datasets import REGISTRY, uncompressed_nbytes

from tracer import END, NAME, REQUEST, START, Tracer

SETUPS = 3  # set-ups per run; setup_s is their median
MIX_BASE_ROWS = 100_000
MIX_STEP = 2_000  # keys per insert, update and delete
MIX_CYCLES = 8  # cycles per round; every round starts from the built structure
MIX_RANGE = 10_000
SPARK_CALLS = 4  # measured lookup_distributed calls, after one warm-up call
SPARK_THREADS = 2  # local[N]


@dataclass(frozen=True)
class Spec:
    dataset: str  # REGISTRY entry: key/value columns and key-space headroom
    epochs: int  # training config, fixed per workload
    partition_bytes: int  # T_aux partition size
    pool_fraction: float | None  # pool budget as a share of raw bytes; None = unbounded
    io_bandwidth: float | None  # simulated device, bytes/s; None = page-cache speed
    batch: int  # keys per point lookup
    spark: bool = False  # the traced run also measures core.lookup_spark


SPECS = {
    "lookup-mem": Spec("synth_multi_low", 1, 128 * 1024, None, None, 100_000, spark=True),
    "lookup-disk": Spec("tpch_lineitem", 1, 64 * 1024, 0.3, 25e6, 1_000),
    "modify-mix": Spec("synth_multi_high", 3, 128 * 1024, None, None, 10_000),
}


# --------------------------------------------------------------------- inputs
class _PandasFrames:
    """Stands in for a SparkSession in the repository's generators, which
    build a pandas frame and pass it to ``createDataFrame``: here that call
    returns the frame, so generating inputs starts no JVM."""

    def createDataFrame(self, pdf: pd.DataFrame) -> pd.DataFrame:  # noqa: N802
        return pdf


def make_relation(dataset: str, seed: int, rows: int = 0) -> pd.DataFrame:
    frames = _PandasFrames()
    if dataset == "synth_multi_low":
        return sd.synth_correlation(frames, n=200_000, n_value_cols=4, correlated=False, seed=seed)
    if dataset == "synth_multi_high":
        return sd.synth_correlation(frames, n=rows, n_value_cols=4, correlated=True, seed=seed)
    if dataset == "tpch_lineitem":
        return sd.lineitem_keyed(frames, sf=0.02, seed=seed)
    raise KeyError(dataset)


class Oracle:
    """The live relation as numpy arrays, addressed by its own slot
    arithmetic over the key universe (independent of ``KeySpace``)."""

    _type = np.frompyfunc(type, 1, 1)
    _is_none = np.frompyfunc(lambda v: v is None, 1, 1)

    def __init__(self, universe: pd.DataFrame, key_cols, value_cols, live_rows: int):
        self.key_cols, self.value_cols = list(key_cols), list(value_cols)
        keys = universe[self.key_cols].to_numpy(np.int64)
        self.lo = keys.min(0)
        self.card = keys.max(0) - self.lo + 1
        size = int(np.prod(self.card))
        slot = self.slots(keys)[0]
        self.values = {}
        for c in self.value_cols:
            v = np.full(size, None, dtype=object)
            v[slot] = universe[c].astype(object).to_numpy()
            self.values[c] = v
        self.live = np.zeros(size, dtype=bool)
        self.live[slot[:live_rows]] = True

    def copy(self) -> "Oracle":
        out = Oracle.__new__(Oracle)
        out.__dict__.update(self.__dict__)
        out.values = {c: v.copy() for c, v in self.values.items()}
        out.live = self.live.copy()
        return out

    def slots(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(slot, inside): slot of each key tuple, 0 where outside."""
        keys = np.asarray(keys, dtype=np.int64).reshape(len(keys), -1)
        off = keys - self.lo
        inside = ((off >= 0) & (off < self.card)).all(1)
        slot = np.zeros(len(keys), dtype=np.int64)
        for i, c in enumerate(self.card):
            slot = slot * c + np.where(inside, off[:, i], 0)
        return slot, inside

    def keys_of(self, slot: np.ndarray) -> np.ndarray:
        out = np.empty((len(slot), len(self.card)), dtype=np.int64)
        rem = np.asarray(slot, dtype=np.int64)
        for i in range(len(self.card) - 1, -1, -1):
            out[:, i] = rem % self.card[i] + self.lo[i]
            rem = rem // self.card[i]
        return out

    def live_slots(self) -> np.ndarray:
        return np.flatnonzero(self.live)

    def exists(self, keys: np.ndarray) -> np.ndarray:
        slot, inside = self.slots(keys)
        return inside & self.live[slot]

    def set_live(self, keys: np.ndarray, live: bool) -> None:
        self.live[self.slots(keys)[0]] = live

    def update(self, keys: np.ndarray, values: dict[str, np.ndarray]) -> None:
        slot = self.slots(keys)[0]
        for c, v in values.items():
            self.values[c][slot] = pd.Series(v).astype(object).to_numpy()

    def frame(self) -> pd.DataFrame:
        """The live rows, for raw-size accounting."""
        slot = self.live_slots()
        keys = self.keys_of(slot)
        out = {k: keys[:, i] for i, k in enumerate(self.key_cols)}
        for c in self.value_cols:
            out[c] = pd.Series(self.values[c][slot]).infer_objects().to_numpy()
        return pd.DataFrame(out)

    def wrong_rows(self, keys: np.ndarray, got: dict) -> int:
        """Rows whose answer is wrong: a live key must return its value with
        the original Python type, any other key must return None."""
        live = self.exists(keys)
        slot = self.slots(keys)[0][live]
        bad = np.zeros(len(live), dtype=bool)
        for c in self.value_cols:
            g = np.asarray(got[c], dtype=object)
            bad |= live == self._is_none(g).astype(bool)
            gl, e = g[live], self.values[c][slot]
            ok = (gl == e).astype(bool) & (self._type(gl) == self._type(e)).astype(bool)
            bad[live] |= ~ok
        return int(bad.sum())


def _absent_keys(ks: KeySpace, live_hi: int, n: int, rng) -> np.ndarray:
    """Absent simple keys: half in-domain gaps above ``live_hi``, half
    out of domain on either side."""
    lo, hi = ks.lows[0], ks.lows[0] + ks.cards[0] - 1
    gaps = rng.integers(live_hi + 1, hi + 1, n // 2)
    out = rng.integers(0, ks.cards[0], n - n // 2)
    out = np.where(out % 2 == 0, lo - 1 - out, hi + 1 + out)
    return np.concatenate([gaps, out])


# -------------------------------------------------------------------- metrics
def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least ten
    samples above it; with ten samples or fewer, the maximum."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def p50(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def dir_files(path: str) -> dict[str, tuple[int, int]]:
    out = {}
    for d, _, files in os.walk(path):
        for f in files:
            st = os.stat(os.path.join(d, f))
            out[os.path.join(d, f)] = (st.st_size, st.st_mtime_ns)
    return out


def dir_bytes(path: str) -> int:
    return sum(size for size, _ in dir_files(path).values())


def written_bytes(before: dict, after: dict) -> int:
    """Bytes of files that are new or changed between two listings."""
    return sum(v[0] for p, v in after.items() if before.get(p) != v)


# ----------------------------------------------------------------------- run
class Run:
    """State of one benchmark invocation: counters, metrics and the tracer."""

    def __init__(self, name: str, seed: int, seconds: float, work: str,
                 tracer: Tracer | None):
        self.name, self.seed, self.seconds = name, seed, seconds
        self.spec = SPECS[name]
        self.wl = REGISTRY[self.spec.dataset]
        self.key_cols, self.value_cols = list(self.wl.key_cols), list(self.wl.value_cols)
        self.work = work
        self.tracer = tracer
        self.attempted = self.failed = 0
        self.metrics: dict[str, float] = {}
        self.info: dict = {}
        self.traced: set = set()  # request ids measured with tracing on
        self.untraced: set = set()
        self.positions: dict = {}  # request position -> request ids, traced or not
        self.requests = 0
        self.latencies: dict = {}  # request id -> seconds
        self.req_keys: dict = {}  # request id -> keys the request touched

    # -- correctness ------------------------------------------------------------
    def op(self, label: str, fn):
        """Run one operation; an exception counts as a failed operation."""
        self.attempted += 1
        try:
            return fn()
        except Exception:
            self.failed += 1
            print(f"[{self.name}] {label} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None

    def check(self, label: str, wrong: int) -> None:
        if wrong:
            self.failed += 1
            print(f"[{self.name}] {label}: {wrong} wrong rows", file=sys.stderr)

    def check_frame(self, label: str, oracle: Oracle, keys: np.ndarray, df) -> None:
        if df is not None:
            self.check(label, oracle.wrong_rows(keys, {c: df[c].to_numpy() for c in self.value_cols}))

    # -- request scoping ----------------------------------------------------------
    def begin(self, rid, position=0) -> None:
        """Start measured request ``rid``. With a tracer, requests at the same
        ``position`` (a workload's cycle position; lookups have one) alternate
        between traced and untraced, so the run measures the tracer's own
        overhead on like work."""
        self.requests += 1
        if self.tracer is not None:
            seen = self.positions.setdefault(position, [])
            self.tracer.request = rid
            self.tracer.enabled = len(seen) % 2 == 0
            seen.append(rid)
            (self.traced if self.tracer.enabled else self.untraced).add(rid)

    def tag(self, rid) -> None:
        """Attribute following spans to ``rid`` (set-up, warm-up, checks)."""
        if self.tracer is not None:
            self.tracer.request = rid
            self.tracer.enabled = True

    # -- build ----------------------------------------------------------------------
    def build(self, pdf: pd.DataFrame, ks: KeySpace, workdir: str,
              budget: int | None) -> DeepMapping:
        pool = MemoryPool(budget, io_bandwidth=self.spec.io_bandwidth)
        cfg = DeepMappingConfig(
            train=TrainConfig(epochs=self.spec.epochs),
            partition_bytes=self.spec.partition_bytes,
        )
        return DeepMapping.build(
            pdf, self.key_cols, self.value_cols, cfg, workdir=workdir, pool=pool, key_space=ks
        )

    def setup(self, pdf: pd.DataFrame, ks: KeySpace, workdir: str, warm) -> DeepMapping:
        """Build and warm up ``SETUPS`` times; keep the last structure.
        ``warm(dm)`` makes the warm-up calls and returns a function that
        checks their answers, which runs outside the timed window."""
        raw = uncompressed_nbytes(pdf)
        budget = None if self.spec.pool_fraction is None else int(raw * self.spec.pool_fraction)
        times = []
        for i in range(SETUPS):
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            self.tag(f"setup-{i}")
            t0 = time.perf_counter()
            dm = self.build(pdf, ks, workdir, budget)
            check = warm(dm)
            times.append(time.perf_counter() - t0)
            self.tag("check")
            check()
        self.metrics["setup_s"] = p50(times)
        self.info["setup_s_all"] = times
        return dm

    # -- shared metrics ----------------------------------------------------------------
    def latency(self) -> None:
        lat = list(self.latencies.values())
        t, pct, n = tail(lat)
        self.metrics["request_ms_p50"] = 1e3 * p50(lat)
        self.metrics["request_ms_tail"] = 1e3 * t
        self.metrics["keys_per_s"] = sum(self.req_keys[i] for i in self.latencies) / sum(lat)
        self.info["tail_percentile"] = pct
        self.info["samples"] = n

    def storage(self, dm: DeepMapping, raw_live: int) -> None:
        sb = dm.storage_breakdown()
        self.metrics["storage_ratio"] = sum(sb.values()) / raw_live
        self.metrics["disk_ratio"] = dir_bytes(dm.workdir) / raw_live
        self.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.metrics.update({
            "storage.model_bytes": sb["model"],
            "storage.aux_bytes": sb["aux_table"],
            "storage.vexist_bytes": sb["vexist"],
            "storage.fdecode_bytes": sb["fdecode"],
            "storage.memorized_fraction": dm.memorized_fraction,
            "aux_table.workdir_bytes": dir_bytes(dm.workdir),
        })

    def lookup_phases(self, phases: dict, lookup_s: dict, keys: int) -> None:
        """Per-lookup LookupStats and pool counters, ``keys`` keys per lookup.
        Phases come from untraced lookups, so tracing does not inflate them."""
        rids = [i for i in phases if i not in self.traced]
        if not rids:
            return
        n = len(rids)
        sel = [phases[i] for i in rids]
        wall = sum(lookup_s[i] for i in rids)
        ex, inf, aux, dec, hits, misses, ev, nread, io, dcmp, dser = (sum(c) for c in zip(*sel))
        self.metrics.update({
            "deepmapping.existence_ms": 1e3 * ex / n,
            "deepmapping.inference_ms": 1e3 * inf / n,
            "deepmapping.aux_ms": 1e3 * aux / n,
            "deepmapping.decode_ms": 1e3 * dec / n,
            "deepmapping.phase_coverage": (ex + inf + aux + dec) / wall,
            "memory_pool.hit_ratio": hits / max(1, hits + misses),
            "memory_pool.misses": misses / n,
            "memory_pool.evictions": ev / n,
            "memory_pool.bytes_read_per_key": nread / (keys * n),
            "memory_pool.io_ms": 1e3 * io / n,
            "memory_pool.decompress_ms": 1e3 * dcmp / n,
            "memory_pool.deserialize_ms": 1e3 * dser / n,
        })

    def layers(self, rids: set) -> None:
        """Per-layer metrics from the spans of traced requests ``rids``."""
        tr = self.tracer
        n = max(1, len(rids))
        st = tr.self_times(rids)
        ms = lambda *names: 1e3 * sum(st.get(x, 0.0) for x in names) / n  # noqa: E731
        rows = tr.counts("model.predict", rids)
        aux = tr.counts("aux_table.lookup", rids)
        self.metrics.update({
            "encoding.keyspace_ms": ms("encoding.contains", "encoding.dense_index"),
            "encoding.featurize_ms": ms("encoding.featurize"),
            "encoding.encode_ms": ms("encoding.encode"),
            "encoding.decode_ms": ms("encoding.decode"),
            "model.predict_ms": ms("model.predict"),
            "model.rows_per_key": rows.get("rows", 0) / max(1, sum(self.req_keys.get(i, 0) for i in rids)),
            "bitvector.get_ms": ms("bitvector.get"),
            "bitvector.set_ms": ms("bitvector.set"),
            "bitvector.range_scan_ms": ms("bitvector.range_scan"),
            "aux_table.lookup_ms": ms("aux_table.lookup"),
            "aux_table.found_ratio": aux.get("found", 0) / max(1, aux.get("probed", 0)),
            "aux_table.apply_ms": ms("aux_table.apply"),
            "memory_pool.get_ms": ms("memory_pool.get"),
            "deepmapping.lookup_self_ms": ms("deepmapping.lookup"),
        })
        # build phases, median over the set-ups
        train, sweep, aux_write = [], [], []
        for i in range(SETUPS):
            r = {f"setup-{i}"}
            train.append(sum(tr.durations("model.train", r)))
            aux_write.append(sum(tr.durations("aux_table.build", r)))
            sweep.append(sum(
                s[END] - s[START]
                for s in map(tr.spans.__getitem__, tr.under("deepmapping.build", "model.train"))
                if s[REQUEST] in r and s[NAME] in ("model.predict", "encoding.featurize")
            ))
        self.metrics["build.train_s"] = p50(train)
        self.metrics["build.sweep_s"] = p50(sweep)
        self.metrics["build.aux_write_s"] = p50(aux_write)
        # traced minus untraced p50 at each request position, averaged
        diffs = []
        for ids in self.positions.values():
            on = [self.latencies[i] for i in ids if i in self.traced]
            off = [self.latencies[i] for i in ids if i in self.untraced]
            if on and off:
                diffs.append(p50(on) - p50(off))
        if diffs:
            self.metrics["trace.overhead_ms"] = 1e3 * statistics.fmean(diffs)


def install(tracer: Tracer) -> None:
    """Wrap the public methods of every layer, from outside ``src/``."""
    rows = lambda a, out: {"rows": len(a[1])}  # noqa: E731
    found = lambda a, out: {"probed": len(a[1]), "found": int(out[0].sum())}  # noqa: E731
    for owner, attr, name, count in (
        (KeySpace, "contains", "encoding.contains", None),
        (KeySpace, "dense_index", "encoding.dense_index", None),
        (KeySpace, "features_from_dense", "encoding.featurize", None),
        (LabelCodec, "encode", "encoding.encode", None),
        (LabelCodec, "decode", "encoding.decode", None),
        (BitVector, "get", "bitvector.get", None),
        (BitVector, "set", "bitvector.set", None),
        (BitVector, "set_indices_in_range", "bitvector.range_scan", None),
        (MappingModel, "predict", "model.predict", rows),
        (deepmapping_mod, "train_model", "model.train", None),
        (AuxTable, "lookup", "aux_table.lookup", found),
        (AuxTable, "apply", "aux_table.apply", None),
        (AuxTable, "build", "aux_table.build", None),
        (MemoryPool, "get", "memory_pool.get", None),
        (DeepMapping, "build", "deepmapping.build", None),
        (DeepMapping, "lookup", "deepmapping.lookup", None),
        (DeepMapping, "lookup_range", "deepmapping.range", None),
        (DeepMapping, "insert", "deepmapping.insert", None),
        (DeepMapping, "update", "deepmapping.update", None),
        (DeepMapping, "delete", "deepmapping.delete", None),
    ):
        tracer.wrap(owner, attr, name, count)


def _snapshot(dm: DeepMapping) -> tuple:
    s, p = dm.stats, dm.pool.stats
    return (s.existence_time, s.inference_time, s.aux_time, s.decode_time,
            p.hits, p.misses, p.evictions, p.bytes_read,
            p.io_time, p.decompress_time, p.deserialize_time)


def _reset(dm: DeepMapping) -> None:
    dm.stats.reset()
    dm.pool.stats.reset()


# ------------------------------------------------------------ point lookups
def _lookup_inputs(r: Run):
    """Relation, key space, oracle and a batch generator for lookup-mem
    and lookup-disk."""
    pdf = make_relation(r.spec.dataset, r.seed)
    ks = r.wl.key_space(pdf)
    oracle = Oracle(pdf, r.key_cols, r.value_cols, len(pdf))
    keys = pdf[r.key_cols].to_numpy(np.int64)
    rng = np.random.default_rng([r.seed, 1])
    simple = len(r.key_cols) == 1

    def batch() -> np.ndarray:
        b = r.spec.batch
        if not simple:  # lookup-disk: existing keys only
            return keys[rng.integers(0, len(keys), b)]
        n_absent = b // 10
        live = keys[rng.integers(0, len(keys), b - n_absent), 0]
        q = np.concatenate([live, _absent_keys(ks, int(keys.max()), n_absent, rng)])
        return rng.permutation(q)[:, None]

    return pdf, ks, oracle, batch


def run_lookup(r: Run) -> None:
    """lookup-mem and lookup-disk: one request = one ``DM.lookup`` batch."""
    pdf, ks, oracle, batch = _lookup_inputs(r)
    workdir = os.path.join(r.work, "dm")

    warm_qs = [batch(), batch()]

    def warm(dm):
        outs = [r.op("warm-up lookup", lambda: dm.lookup(q)) for q in warm_qs]
        return lambda: [r.check_frame("warm-up", oracle, q, o) for q, o in zip(warm_qs, outs)]

    dm = r.setup(pdf, ks, workdir, warm)
    phases = {}
    deadline = time.perf_counter() + r.seconds
    while time.perf_counter() < deadline:
        q = batch()
        rid = r.requests
        r.begin(rid)
        _reset(dm)
        t0 = time.perf_counter()
        out = r.op("lookup", lambda: dm.lookup(q))
        r.latencies[rid] = time.perf_counter() - t0
        r.req_keys[rid] = len(q)
        phases[rid] = _snapshot(dm)
        r.tag("check")
        r.check_frame("lookup", oracle, q, out)
    r.latency()
    final_check(r, dm, oracle, pdf)
    r.storage(dm, uncompressed_nbytes(pdf))
    r.lookup_phases(phases, r.latencies, r.spec.batch)
    r.metrics["deepmapping.lookup_ms"] = 1e3 * p50(list(r.latencies.values()))
    if r.tracer is not None:
        r.layers(r.traced)
        if r.spec.spark:
            spark_lookups(r, dm, oracle, batch())


SPARK_PYTHON_TYPES = {"LongType": int, "DoubleType": float, "StringType": str, "BooleanType": bool}


def spark_values(out: pd.DataFrame, schema, cols: list[str]) -> dict[str, np.ndarray]:
    """The values of a collected Spark answer as Spark holds them, one
    object array per value column. ``toPandas`` hands a nullable LongType
    column over as float64 with NaN for NULL; the column's Spark type says
    which Python type its values have, so an integral float in a LongType
    column reads back as ``int`` and NaN as ``None``. A value the type
    cannot hold losslessly stays as it is, and the oracle rejects it."""
    out_cols = {}
    for c in cols:
        py = SPARK_PYTHON_TYPES[type(schema[c].dataType).__name__]
        vals = []
        for v in out[c].astype(object):
            if v is None or v is pd.NA or (isinstance(v, float) and np.isnan(v)):
                v = None
            elif py is int and isinstance(v, float) and v.is_integer():
                v = int(v)
            vals.append(v)
        out_cols[c] = np.array(vals, dtype=object)
    return out_cols


def spark_lookups(r: Run, dm: DeepMapping, oracle: Oracle, q: np.ndarray) -> None:
    """``lookup_spark.*``: after the timed loop, ``lookup_distributed`` over
    a cached DataFrame of the keys ``q`` on ``local[N]``, each answer checked,
    each call paired with an untraced local ``DM.lookup`` of the same keys.
    The session and its JVM are stopped before this returns."""
    from pyspark import SparkContext
    from pyspark.sql import SparkSession

    from repro.core.lookup_spark import lookup_distributed

    # executors unpickle the structure, so they import the program too
    src = os.path.dirname(os.path.dirname(repro.__file__))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["SPARK_LOCAL_DIRS"] = r.work
    r.info["spark_master"] = f"local[{min(SPARK_THREADS, os.cpu_count() or 1)}]"
    t_start = time.perf_counter()
    spark = (
        SparkSession.builder.master(r.info["spark_master"])
        .appName("perfbench")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.driver.memory", "1g")
        .config("spark.local.dir", r.work)
        .config("spark.sql.warehouse.dir", os.path.join(r.work, "warehouse"))
        .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={r.work}")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    r.tracer.enabled = False
    plan, collect, local = [], [], []
    try:
        keys_df = spark.createDataFrame(pd.DataFrame(q, columns=r.key_cols)).cache()
        keys_df.count()
        for i in range(1 + SPARK_CALLS):
            t0 = time.perf_counter()
            sdf = r.op("spark lookup", lambda: lookup_distributed(spark, dm, keys_df))
            t1 = time.perf_counter()
            out = None if sdf is None else r.op("spark collect", sdf.toPandas)
            t2 = time.perf_counter()
            r.op("local lookup", lambda: dm.lookup(q))
            t3 = time.perf_counter()
            if i:
                plan.append(t1 - t0)
                collect.append(t2 - t1)
                local.append(t3 - t2)
            if out is not None:
                got = out[r.key_cols].to_numpy(np.int64)
                r.check("spark lookup keys", 0 if np.array_equal(
                    np.sort(got, axis=0), np.sort(q, axis=0)) else 1)
                values = spark_values(out, sdf.schema, r.value_cols)
                r.check("spark lookup", oracle.wrong_rows(got, values))
    finally:
        spark.stop()
        gateway = SparkContext._gateway
        if gateway is not None:
            gateway.shutdown()
            gateway.proc.stdin.close()  # the JVM exits when its stdin closes
            try:
                gateway.proc.wait(60)
            except subprocess.TimeoutExpired:
                gateway.proc.kill()
                gateway.proc.wait()
            SparkContext._gateway = SparkContext._jvm = None
    r.info["spark_s"] = time.perf_counter() - t_start
    r.metrics.update({
        "lookup_spark.broadcast_bytes": len(pickle.dumps(dm)),
        "lookup_spark.plan_ms": 1e3 * p50(plan),
        "lookup_spark.collect_ms": 1e3 * p50(collect),
        "lookup_spark.overhead_ratio": p50([a + b for a, b in zip(plan, collect)]) / p50(local),
    })


def final_check(r: Run, dm: DeepMapping, oracle: Oracle, pdf: pd.DataFrame) -> None:
    """Look up every key of the relation once more, untimed."""
    r.tag("final-check")
    keys = pdf[r.key_cols].to_numpy(np.int64)
    r.check_frame("final check", oracle, keys, r.op("final lookup", lambda: dm.lookup(keys)))


# ----------------------------------------------------------------- modify-mix
def run_modify(r: Run) -> None:
    """Rounds of ``MIX_CYCLES`` cycles, each round from the built structure;
    one request = one cycle of insert, update, delete, point lookup, range."""
    universe = make_relation(r.spec.dataset, r.seed, MIX_BASE_ROWS + MIX_STEP * MIX_CYCLES)
    base = universe.iloc[:MIX_BASE_ROWS]
    ks = r.wl.key_space(base)
    key = r.key_cols[0]
    domains = {c: np.unique(base[c].to_numpy()) for c in r.value_cols}
    row_bytes = uncompressed_nbytes(base) / len(base)
    oracle0 = Oracle(universe, r.key_cols, r.value_cols, MIX_BASE_ROWS)
    workdir = os.path.join(r.work, "dm")
    snapshot_dir = os.path.join(r.work, "dm-base")

    def point_keys(rng, oracle, n):
        hi = int(oracle.keys_of(oracle.live_slots()[-1:])[0, 0])
        live = rng.integers(ks.lows[0], hi + 1, n - n // 20)
        return rng.permutation(np.concatenate([live, _absent_keys(ks, hi, n // 20, rng)]))

    def range_window(rng, oracle):
        live = oracle.keys_of(oracle.live_slots())[:, 0]
        lo = int(rng.integers(live[0], live[-1] - MIX_RANGE + 1))
        return lo - ks.lows[0], lo

    def do_range(label, dm, window):
        t0 = time.perf_counter()
        out = r.op(label, lambda: dm.lookup_range(window[0], window[0] + MIX_RANGE))
        return time.perf_counter() - t0, out

    def check_range(label, oracle, window, out):
        if out is None:
            return
        klo = window[1]
        want = oracle.keys_of(oracle.live_slots())[:, 0]
        want = want[(want >= klo) & (want < klo + MIX_RANGE)]
        got = out[key].to_numpy()
        r.check(label + " keys", 0 if np.array_equal(np.sort(got), want) else 1)
        r.check_frame(label, oracle, got, out)

    rng = np.random.default_rng([r.seed, 2])
    warm_q = point_keys(rng, oracle0, r.spec.batch)
    warm_window = range_window(rng, oracle0)

    def warm(dm):
        out = r.op("warm-up lookup", lambda: dm.lookup(warm_q))
        _, range_out = do_range("warm-up range", dm, warm_window)

        def check():
            r.check_frame("warm-up", oracle0, warm_q, out)
            check_range("warm-up range", oracle0, warm_window, range_out)
        return check

    dm0 = r.setup(base, ks, workdir, warm)
    blob = pickle.dumps(dm0)
    shutil.rmtree(snapshot_dir, ignore_errors=True)
    shutil.copytree(workdir, snapshot_dir)

    ops = {k: [] for k in ("insert", "update", "delete", "lookup", "range")}
    phases, lookup_s = {}, {}
    written = user = 0.0
    deadline = time.perf_counter() + r.seconds
    while True:
        # a round always completes, so every round contributes the same cycles
        shutil.rmtree(workdir)
        shutil.copytree(snapshot_dir, workdir)
        dm = pickle.loads(blob)
        oracle = oracle0.copy()
        by_cycle = []
        for cyc in range(MIX_CYCLES):
            rng = np.random.default_rng([r.seed, 3, cyc])
            rid = r.requests
            r.begin(rid, cyc)
            t = {}

            def write(label, fn, nrows):
                nonlocal written, user
                before = dir_files(workdir)
                t0 = time.perf_counter()
                r.op(label, fn)
                t[label] = time.perf_counter() - t0
                written += written_bytes(before, dir_files(workdir))
                user += nrows * row_bytes

            ins = universe.iloc[MIX_BASE_ROWS + cyc * MIX_STEP: MIX_BASE_ROWS + (cyc + 1) * MIX_STEP]
            write("insert", lambda: dm.insert(ins), len(ins))
            oracle.set_live(ins[r.key_cols].to_numpy(), True)

            upd_keys = oracle.keys_of(rng.choice(oracle.live_slots(), MIX_STEP, replace=False))[:, 0]
            upd = pd.DataFrame({key: upd_keys, **{c: rng.choice(domains[c], MIX_STEP) for c in r.value_cols}})
            write("update", lambda: dm.update(upd), MIX_STEP)
            oracle.update(upd_keys, {c: upd[c].to_numpy() for c in r.value_cols})

            del_keys = oracle.keys_of(rng.choice(oracle.live_slots(), MIX_STEP, replace=False))[:, 0]
            write("delete", lambda: dm.delete(del_keys), MIX_STEP)
            oracle.set_live(del_keys, False)

            q = point_keys(rng, oracle, r.spec.batch)
            _reset(dm)
            t0 = time.perf_counter()
            out = r.op("lookup", lambda: dm.lookup(q))
            t["lookup"] = time.perf_counter() - t0
            phases[rid] = _snapshot(dm)
            lookup_s[rid] = t["lookup"]
            window = range_window(rng, oracle)
            t["range"], range_out = do_range("range", dm, window)
            n_range = 0 if range_out is None else len(range_out)

            r.latencies[rid] = sum(t.values())
            r.req_keys[rid] = 3 * MIX_STEP + len(q) + n_range
            for k, v in t.items():
                ops[k].append(v)
            r.tag("check")
            r.check_frame("lookup", oracle, q, out)
            check_range("range", oracle, window, range_out)
            by_cycle.append(dir_bytes(workdir))
        live = oracle.keys_of(oracle.live_slots())
        final_check(r, dm, oracle, pd.DataFrame(live, columns=r.key_cols))
        if time.perf_counter() >= deadline:
            break
    r.info["workdir_bytes_by_cycle"] = by_cycle
    r.latency()
    r.storage(dm, uncompressed_nbytes(oracle.frame()))
    r.lookup_phases(phases, lookup_s, r.spec.batch)
    writes = ops["insert"] + ops["update"] + ops["delete"]
    r.metrics.update({
        "deepmapping.insert_ms": 1e3 * p50(ops["insert"]),
        "deepmapping.update_ms": 1e3 * p50(ops["update"]),
        "deepmapping.delete_ms": 1e3 * p50(ops["delete"]),
        "deepmapping.lookup_ms": 1e3 * p50(ops["lookup"]),
        "deepmapping.range_ms": 1e3 * p50(ops["range"]),
        "deepmapping.write_ms_tail": 1e3 * tail(writes)[0],
        "aux_table.rewrite_bytes_per_user_byte": written / user,
    })
    if r.tracer is not None:
        r.layers(r.traced)
