"""Emitters for the paper's evaluation tables (Sec. V, Tables I–V).

Each ``tableN`` function runs the scaled experiment and returns a
:class:`TableResult` holding the measured rows plus a markdown rendering
that places the paper's published numbers next to ours (absolute numbers
differ — our substrate is scaled ~100×; the *shape* is what reproduces:
who wins, by roughly what factor, where the crossovers are).
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from .. import synth_data as sd
from ..core.deepmapping import DeepMapping
from ..core.nn import TrainConfig
from ..workloads.datasets import REGISTRY, uncompressed_nbytes
from ..workloads.queries import random_key_batch
from .harness import ExperimentConfig, build_method, run_lookup_experiment
from . import paper_numbers as P

__all__ = [
    "TableResult", "table1", "table2", "table3", "table4", "table5",
    "run_modification_experiment",
]

ALL_METHODS = ["AB", "HB", "ABC-D", "ABC-G", "ABC-Z", "ABC-L", "HBC-Z", "HBC-L", "DS", "DM-Z", "DM-L"]
MOD_METHODS = ["DM-Z", "DM-Z1", "AB", "ABC-Z", "HB", "HBC-Z"]

TABLE1_WORKLOADS = [
    "tpch_lineitem", "synth_single_low", "synth_single_high",
    "synth_multi_low", "synth_multi_high", "crop",
]
TABLE2_WORKLOADS = [
    "tpch_orders", "tpch_part", "tpcds_catalog_sales",
    "tpcds_customer_demographics", "tpcds_catalog_returns",
]


@dataclass
class TableResult:
    name: str
    rows: list[dict] = field(default_factory=list)
    markdown: str = ""

    def to_frame(self) -> pd.DataFrame:
        return pd.DataFrame(self.rows)


def _fmt(x, nd=3):
    if x is None:
        return "—"
    if isinstance(x, float):
        return f"{x:.{nd}g}"
    return str(x)


# --------------------------------------------------------------------------
# Tables I and II — lookup latency / storage
# --------------------------------------------------------------------------
def _lookup_table(
    spark: SparkSession,
    name: str,
    workload_names: list[str],
    paper: dict,
    workdir: str,
    *,
    sf: float,
    cfg: ExperimentConfig,
    methods: list[str],
) -> TableResult:
    res = TableResult(name=name)
    lines = [
        f"### {name} (measured at SF={sf}, pool_fraction={cfg.pool_fraction}, "
        f"B={list(cfg.batch_sizes)}; paper at SF=10, B∈{{1K,10K,100K}})",
        "",
        "| workload | method | storage MB (paper) | "
        + " | ".join(f"lat B={b} s (paper B={pb})" for b, pb in zip(cfg.batch_sizes, (1000, 10000, 100000)))
        + " |",
        "|---|---|---|" + "---|" * len(cfg.batch_sizes),
    ]
    for wname in workload_names:
        wl = REGISTRY[wname]
        pdf = wl.pandas(spark, sf)
        results = run_lookup_experiment(
            wl, pdf, methods, os.path.join(workdir, wname), cfg
        )
        for m in methods:
            r = results[m]
            prow = paper.get(wname, {}).get(m)
            row = {
                "workload": wname, "method": m, "storage_mb": r.storage_mb,
                "paper_storage_mb": prow[0] if prow else None,
                "compression_ratio": r.extra["compression_ratio"],
                **{f"latency_s_b{b}": r.latency_s[b] for b in cfg.batch_sizes},
                **{
                    f"paper_latency_s_b{pb}": (prow[i + 1] if prow else None)
                    for i, pb in enumerate((1000, 10000, 100000))
                },
                "pool": r.pool_stats, "breakdown": r.breakdown, "extra": r.extra,
            }
            res.rows.append(row)
            cells = [
                wname, m,
                f"{_fmt(r.storage_mb)} ({_fmt(prow[0] if prow else None)})",
            ]
            for i, b in enumerate(cfg.batch_sizes):
                pv = prow[i + 1] if prow else None
                cells.append(f"{_fmt(r.latency_s[b])} ({_fmt(pv)})")
            lines.append("| " + " | ".join(cells) + " |")
    res.markdown = "\n".join(lines)
    return res


def table1(
    spark: SparkSession,
    workdir: str,
    *,
    sf: float = 0.02,
    workloads: list[str] | None = None,
    methods: list[str] | None = None,
    cfg: ExperimentConfig = ExperimentConfig(
        pool_fraction=0.3, repeats=2, dm_train=TrainConfig(epochs=12, batch_size=1024)
    ),
) -> TableResult:
    """Table I: datasets exceed the memory pool (pool = 30% of raw). The
    defaults are the settings of the committed ``exp_out/table1.md``."""
    return _lookup_table(
        spark, "Table I — exceeds-memory lookup", workloads or TABLE1_WORKLOADS,
        P.PAPER_TABLE1, workdir, sf=sf, cfg=cfg, methods=methods or ALL_METHODS,
    )


def table2(
    spark: SparkSession,
    workdir: str,
    *,
    sf: float = 0.05,
    workloads: list[str] | None = None,
    methods: list[str] | None = None,
    cfg: ExperimentConfig = ExperimentConfig(
        pool_fraction=None, batch_sizes=(10000,), repeats=2,
        dm_train=TrainConfig(epochs=15, batch_size=1024),
    ),
) -> TableResult:
    """Table II: datasets fit the memory pool (unbounded pool). The
    defaults are the settings of the committed ``exp_out/table2.md``.

    The paper's small/medium/large machines differ mainly in memory
    pressure and accelerator; we report the ample-pool measurement and
    compare it against the paper's three machine columns (DESIGN.md §2.6).
    """
    return _lookup_table(
        spark, "Table II — fits-memory lookup", workloads or TABLE2_WORKLOADS,
        {w: {m: (v[0], v[1], v[2], v[3]) for m, v in d.items()} for w, d in P.PAPER_TABLE2.items()},
        workdir, sf=sf, cfg=cfg, methods=methods or ALL_METHODS,
    )


# --------------------------------------------------------------------------
# Tables III–V — modification queries
# --------------------------------------------------------------------------
def _synth_mod_data(
    spark: SparkSession, *, n_base: int, n_steps: int, step_frac: float,
    base_corr: bool, insert_corr: bool, seed: int = 50,
) -> tuple[pd.DataFrame, list[pd.DataFrame]]:
    """Base relation plus per-step insert batches (keys continue past the
    base range; values follow ``insert_corr``'s generation rule)."""
    n_total = int(n_base * (1 + n_steps * step_frac))
    base = sd.synth_correlation(
        spark, n=n_total, n_value_cols=4, correlated=base_corr, seed=seed
    ).toPandas()
    if insert_corr != base_corr:
        alt = sd.synth_correlation(
            spark, n=n_total, n_value_cols=4, correlated=insert_corr, seed=seed + 1
        ).toPandas()
        extra = alt.iloc[n_base:].reset_index(drop=True)
    else:
        extra = base.iloc[n_base:].reset_index(drop=True)
    base = base.iloc[:n_base].reset_index(drop=True)
    step_n = int(n_base * step_frac)
    steps = [extra.iloc[i * step_n : (i + 1) * step_n].reset_index(drop=True) for i in range(n_steps)]
    return base, steps


def run_modification_experiment(
    spark: SparkSession,
    workdir: str,
    *,
    corr: str,  # 'low' | 'high' — the base dataset
    op: str,  # 'insert_same' | 'insert_cross' | 'delete'
    n_base: int,
    n_steps: int = 6,
    step_frac: float = 0.1,
    batch_size: int,
    retrain_at_step: int = 2,  # the paper's 'retrain after 200MB' = 20%
    methods: list[str] | None = None,
    cfg: ExperimentConfig | None = None,
    seed: int = 0,
) -> list[dict]:
    """Shared engine for Tables III (insert, same distribution), IV
    (insert, cross distribution) and V (delete).

    DeepMapping evolves one structure through Algorithms 3–5; DM-Z1
    additionally retrains once at ``retrain_at_step``. The static
    baselines are rebuilt on the current relation each step (their
    storage/latency is a function of content only).
    """
    cfg = cfg or ExperimentConfig(pool_fraction=0.3, batch_sizes=(batch_size,))
    methods = methods or MOD_METHODS
    base_corr = corr == "high"
    insert_corr = base_corr if op != "insert_cross" else not base_corr
    wl = REGISTRY["synth_multi_low" if corr == "low" else "synth_multi_high"]

    base, insert_steps = _synth_mod_data(
        spark, n_base=n_base, n_steps=n_steps, step_frac=step_frac,
        base_corr=base_corr, insert_corr=insert_corr, seed=50 + seed,
    )
    rng = np.random.default_rng(seed)
    if op == "delete":
        perm = rng.permutation(n_base)
        step_n = int(n_base * step_frac)
        delete_steps = [perm[i * step_n : (i + 1) * step_n] for i in range(n_steps)]

    # --- DeepMapping structures evolve across steps -------------------------
    # DM-Z1 is DM-Z retrained once; the key space's headroom of 2.0 covers
    # every insert step
    raw0 = uncompressed_nbytes(base[list(wl.key_cols) + list(wl.value_cols)])
    dms: dict[str, DeepMapping] = {
        m: build_method(
            "DM-Z", wl, base, os.path.join(workdir, m), pool=cfg.pool(raw0), cfg=cfg
        ).obj
        for m in methods if m.startswith("DM")
    }

    rows: list[dict] = []
    current = base.copy()
    for step in range(0, n_steps + 1):
        if step > 0:
            if op == "delete":
                gone = base.iloc[delete_steps[step - 1]]
                gone_keys = gone[list(wl.key_cols)].to_numpy(np.int64)
                current = current[~current[wl.key_cols[0]].isin(gone_keys[:, 0])]
                for m, dm in dms.items():
                    dm.delete(gone_keys)
            else:
                batch = insert_steps[step - 1]
                current = pd.concat([current, batch], ignore_index=True)
                for m, dm in dms.items():
                    dm.insert(batch)
            if step == retrain_at_step and "DM-Z1" in dms:
                dms["DM-Z1"].retrain()
        qkeys = random_key_batch(current, list(wl.key_cols), batch_size, seed=seed + step)

        for m in methods:
            if m.startswith("DM"):
                if m == "DM-Z1" and step < retrain_at_step:
                    # the paper reports DM-Z1 only from the retrain step on
                    rows.append(dict(step=step, method=m, storage_mb=None, query_s=None))
                    continue
                dm = dms[m]
                dm.pool.clear()
                t0 = time.perf_counter()
                dm.lookup(qkeys)
                dt = time.perf_counter() - t0
                rows.append(
                    dict(step=step, method=m, storage_mb=dm.nbytes_disk / 1e6,
                         query_s=dt, aux_entries=dm.aux.n_entries,
                         memorized=dm.memorized_fraction)
                )
            else:
                raw = uncompressed_nbytes(current[list(wl.key_cols) + list(wl.value_cols)])
                adapter = build_method(
                    m, wl, current, os.path.join(workdir, f"{m}-s{step}"),
                    pool=cfg.pool(raw), cfg=cfg,
                )
                t0 = time.perf_counter()
                adapter.lookup(qkeys)
                dt = time.perf_counter() - t0
                rows.append(
                    dict(step=step, method=m, storage_mb=adapter.nbytes_disk / 1e6, query_s=dt)
                )
    return rows


def _mod_table(
    spark, workdir, name, op, paper, *, n_base, batch_size, cfg=None, corrs=("low", "high"),
    methods=None,
) -> TableResult:
    res = TableResult(name=name)
    lines = [f"### {name} (measured: n_base={n_base}, B={batch_size}; "
             f"paper: 1GB base, B=100K, steps of 100MB)", ""]
    for corr in corrs:
        rows = run_modification_experiment(
            spark, os.path.join(workdir, corr), corr=corr, op=op,
            n_base=n_base, batch_size=batch_size, cfg=cfg, methods=methods,
        )
        for r in rows:
            r["corr"] = corr
        res.rows.extend(rows)
        steps = sorted({r["step"] for r in rows})
        lines += [f"**Multi-column with {corr.capitalize()} Correlation**", "",
                  "| method | metric | " + " | ".join(f"step {s}" for s in steps) + " | paper |",
                  "|---|---|" + "---|" * (len(steps) + 1)]
        for m in sorted({r["method"] for r in rows}, key=str):
            mrows = {r["step"]: r for r in rows if r["method"] == m}
            pap = paper.get(corr, {}).get(m, {})
            lines.append(
                "| " + m + " | storage MB | "
                + " | ".join(_fmt(mrows[s]["storage_mb"]) for s in steps)
                + " | " + ",".join(_fmt(v, 4) for v in pap.get("storage", [])) + " |"
            )
            lines.append(
                "| " + m + " | query s | "
                + " | ".join(_fmt(mrows[s]["query_s"]) for s in steps)
                + " | (ms) " + ",".join(_fmt(v, 5) for v in pap.get("query_ms", [])) + " |"
            )
    res.markdown = "\n".join(lines)
    return res


# Tables III–V default to the settings of the committed exp_out/table{3,4,5}.md
def table3(spark, workdir, *, n_base=40_000, batch_size=5000, cfg=None, corrs=("low", "high"), methods=None):
    """Table III: insertions that follow the original distribution."""
    return _mod_table(spark, workdir, "Table III — insert (same distribution)",
                      "insert_same", P.PAPER_TABLE3, n_base=n_base,
                      batch_size=batch_size, cfg=cfg, corrs=corrs, methods=methods)


def table4(spark, workdir, *, n_base=40_000, batch_size=5000, cfg=None, corrs=("low", "high"), methods=None):
    """Table IV: insertions that do NOT follow the original distribution."""
    return _mod_table(spark, workdir, "Table IV — insert (cross distribution)",
                      "insert_cross", P.PAPER_TABLE4, n_base=n_base,
                      batch_size=batch_size, cfg=cfg, corrs=corrs, methods=methods)


def table5(spark, workdir, *, n_base=40_000, batch_size=5000, cfg=None, corrs=("low", "high"), methods=None):
    """Table V: deletions."""
    return _mod_table(spark, workdir, "Table V — delete",
                      "delete", P.PAPER_TABLE5, n_base=n_base,
                      batch_size=batch_size, cfg=cfg, corrs=corrs, methods=methods)
