"""DeepMapping hybrid data representation (paper Sec. IV).

``DeepMapping = ⟨M, T_aux, V_exist, f_decode⟩``:

* ``M``       — multi-task MLP memorizing key→value mappings (nn.py),
* ``T_aux``   — row-level, keyless compressed store of the misclassified
  tuples (aux_table.py),
* ``V_exist`` — existence bit vector over the dense key space,
* ``f_decode``— per-column dictionary decoding maps.

Implements:
* :meth:`DeepMapping.build` — encodes the relation
  (:func:`encode_relation`), then :meth:`DeepMapping.build_encoded` trains
  (or accepts) the model, runs every key through it and stores the
  misclassified mappings in ``T_aux``,
* :meth:`lookup` — Algorithm 1 (existence check → auxiliary validation →
  batch inference on the existing keys ``T_aux`` does not hold → decode);
  :meth:`lookup_arrays` is the same without the NULL-filled DataFrame edge,
* :meth:`insert` / :meth:`delete` / :meth:`update` — Algorithms 3/4/5,
  piggy-backing on ``T_aux`` with a size-threshold retrain trigger; insert
  and update check their keys and then share one write, :meth:`_write`,
* :meth:`lookup_range` — Sec. IV-E batch-inference range extension,
* :meth:`storage_breakdown` — the per-component sizes behind Fig. 6 and
  the Eq. 1 objective.

Lossless lookup rests on one invariant: ``T_aux`` holds exactly the tuples
the build-time sweep saw the model get wrong. Every model run therefore
goes through :func:`predict_codes`, and :func:`misclassified` is the only
place predictions are compared with true codes.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pandas as pd

from ..baselines.memory_pool import MemoryPool
from .aux_table import AuxTable
from .bitvector import BitVector
from .encoding import KeySpace, LabelCodec, decode_map_bytes
from .model import MappingModel, train_model
from .nn import ArchSpec, TrainConfig

__all__ = [
    "DeepMappingConfig", "DeepMapping", "LookupStats", "predict_codes", "misclassified",
    "encode_relation",
]

@dataclass(frozen=True)
class DeepMappingConfig:
    """Build-time configuration of the hybrid structure."""

    arch: ArchSpec = ArchSpec((128,), {})
    train: TrainConfig = TrainConfig()
    codec: str = "z"  # 'z' → DM-Z, 'lzma' → DM-L
    partition_bytes: int = 128 * 1024
    # retrain when T_aux grows beyond this many bytes (None = never; the
    # paper's DM-Z vs DM-Z1 distinction)
    retrain_threshold_bytes: int | None = None


@dataclass
class LookupStats:
    """Per-phase latency counters (the paper's Fig. 7 breakdown)."""

    inference_time: float = 0.0
    existence_time: float = 0.0
    aux_time: float = 0.0
    decode_time: float = 0.0

    def reset(self):
        self.inference_time = self.existence_time = 0.0
        self.aux_time = self.decode_time = 0.0


def predict_codes(
    model: MappingModel, ks: KeySpace, dense: np.ndarray, cols: list[str]
) -> dict[str, np.ndarray]:
    """Model-predicted int32 codes of ``cols`` for dense keys."""
    pred = model.predict(ks.hot_positions(dense), ks.blocks)
    return {c: pred[c] for c in cols}


def misclassified(
    model: MappingModel, ks: KeySpace, dense: np.ndarray, codes: dict[str, np.ndarray]
) -> np.ndarray:
    """Mask of the keys the model gets wrong on any column of ``codes`` —
    the tuples ``T_aux`` must hold, with the correct codes of all columns."""
    pred = predict_codes(model, ks, dense, list(codes))
    wrong = np.zeros(len(dense), dtype=bool)
    for c, v in codes.items():
        wrong |= pred[c] != v
    return wrong


def _key_matrix(keys: np.ndarray) -> np.ndarray:
    keys = np.asarray(keys, dtype=np.int64)
    return keys[:, None] if keys.ndim == 1 else keys


class DeepMapping:
    """The hybrid learned data mapping structure."""

    def __init__(
        self,
        key_space: KeySpace,
        key_cols: list[str],
        value_cols: list[str],
        model: MappingModel,
        codecs: dict[str, LabelCodec],
        aux: AuxTable,
        vexist: BitVector,
        config: DeepMappingConfig,
        workdir: str,
        pool: MemoryPool,
    ):
        self.key_space = key_space
        self.key_cols = list(key_cols)
        self.value_cols = list(value_cols)
        self.model = model
        self.codecs = codecs
        self.aux = aux
        self.vexist = vexist
        self.config = config
        self.workdir = workdir
        self.pool = pool
        self.stats = LookupStats()
        self.retrain_count = 0
        self._pin_residents()

    # ------------------------------------------------------------------ build
    @staticmethod
    def build(
        df: pd.DataFrame,
        key_cols: list[str],
        value_cols: list[str],
        config: DeepMappingConfig = DeepMappingConfig(),
        *,
        workdir: str,
        pool: MemoryPool | None = None,
        key_space: KeySpace | None = None,
        model: MappingModel | None = None,
    ) -> "DeepMapping":
        """Construct the hybrid structure from a pandas relation.

        ``key_space`` may be passed explicitly with headroom so later
        insertions of new keys stay inside ``V_exist``'s address range
        (the paper assumes the bit vector's "range corresponds to the key
        range"). ``model`` may be a pre-trained/MHAS-searched network.
        """
        ks = key_space or KeySpace.from_columns(df, key_cols)
        return DeepMapping.build_encoded(
            encode_relation(df, ks, key_cols, value_cols), ks, key_cols, config,
            workdir=workdir, pool=pool, model=model,
        )

    @staticmethod
    def build_encoded(
        encoded: tuple[np.ndarray, dict[str, LabelCodec], dict[str, np.ndarray]],
        key_space: KeySpace,
        key_cols: list[str],
        config: DeepMappingConfig = DeepMappingConfig(),
        *,
        workdir: str,
        pool: MemoryPool | None = None,
        model: MappingModel | None = None,
    ) -> "DeepMapping":
        """:meth:`build` from the ``(dense keys, codecs, codes)`` that
        :func:`encode_relation` made of a relation over ``key_space``; the
        value columns are the codecs'. MHAS encodes its relation once and
        builds every child it scores this way."""
        pool = pool if pool is not None else MemoryPool(None)
        dense, codecs, codes = encoded
        model, aux_keys, aux_codes = _fit(key_space, dense, codecs, codes, config, model)
        aux = AuxTable(
            workdir,
            codec=config.codec,
            partition_bytes=config.partition_bytes,
            pool=pool,
        )
        aux.build(aux_keys, aux_codes)

        vexist = BitVector(key_space.size)
        vexist.set(dense)
        return DeepMapping(
            key_space, key_cols, list(codecs), model, codecs, aux, vexist, config, workdir, pool
        )

    def _pin_residents(self) -> None:
        """Model, V_exist and f_decode stay resident in the memory pool."""
        self.pool.pin("dm:model", self.model.nbytes_resident())
        self.pool.pin("dm:vexist", self.vexist.nbytes_resident())
        self.pool.pin("dm:fdecode", decode_map_bytes(self.codecs))

    # --------------------------------------------------------------- Algorithm 1
    def lookup(self, keys: np.ndarray, cols: list[str] | None = None) -> pd.DataFrame:
        """Batch key lookup. ``keys`` is [n] or [n, n_components]; returns a
        DataFrame with the key columns and requested value columns, with
        None for non-existing keys (Algorithm 1's NULL)."""
        cols = cols or self.value_cols
        keys = _key_matrix(keys)
        found, vals = self.lookup_arrays(keys, cols)

        t0 = time.perf_counter()
        # every column is a new array made here, so the frame may adopt them
        # as they are instead of copying them into consolidated blocks
        out = {kc: keys[:, i].copy() for i, kc in enumerate(self.key_cols)}
        for c in cols:
            out[c] = np.full(len(keys), None, dtype=object)
            out[c][found] = vals[c]
        df = pd.DataFrame(out, copy=False)
        self.stats.decode_time += time.perf_counter() - t0
        return df

    def lookup_arrays(
        self, keys: np.ndarray, cols: list[str] | None = None
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Algorithm 1 without the NULL edge: ``(found, values)`` where
        ``found`` marks the existing keys and ``values[col]`` holds their
        decoded values, native dtype, in query order."""
        cols = cols or self.value_cols
        keys = _key_matrix(keys)

        t0 = time.perf_counter()
        found = np.zeros(len(keys), dtype=bool)
        dense = np.empty(0, dtype=np.int64)
        in_domain = self.key_space.contains(keys)
        if in_domain.any():
            idx = np.flatnonzero(in_domain)
            dense = self.key_space.dense_index(keys[idx])
            exists = self.vexist.get(dense)
            found[idx[exists]] = True
            dense = dense[exists]
        self.stats.existence_time += time.perf_counter() - t0

        # auxiliary validation first: T_aux is row-level, so it answers
        # every column of the keys it holds, and the model runs on the rest
        t0 = time.perf_counter()
        in_aux, aux_codes = self.aux.lookup(dense)
        rest = ~in_aux
        self.stats.aux_time += time.perf_counter() - t0

        t0 = time.perf_counter()
        pred = predict_codes(self.model, self.key_space, dense[rest], cols)
        self.stats.inference_time += time.perf_counter() - t0

        t0 = time.perf_counter()
        vals = {}
        for c in cols:
            codes = np.empty(len(dense), dtype=np.int32)
            codes[in_aux] = aux_codes[c]
            codes[rest] = pred[c]
            vals[c] = self.codecs[c].decode(codes)
        self.stats.decode_time += time.perf_counter() - t0
        return found, vals

    # ---------------------------------------------------------- Sec. IV-E range
    def lookup_range(
        self, lo: int, hi: int, cols: list[str] | None = None
    ) -> pd.DataFrame:
        """Range query (first approach of Sec. IV-E): filter ``V_exist`` for
        dense keys in [lo, hi), then batch-lookup the surviving keys.
        Bounds are dense indices (== key values for simple 0-offset keys)."""
        dense = self.vexist.set_indices_in_range(lo, hi)
        keys = self.key_space.from_dense(dense)
        return self.lookup(keys, cols)

    # ------------------------------------------------------------- Algorithm 3
    def insert(self, df: pd.DataFrame) -> None:
        """Insert rows; only model-misclassified mappings enter T_aux."""
        dense = self._batch_keys(df)
        if self.vexist.get(dense).any():
            raise ValueError("insert of an existing key — use update()")
        self._write(df, dense)
        self.vexist.set(dense)
        self._maybe_retrain()

    # ------------------------------------------------------------- Algorithm 4
    def delete(self, keys: np.ndarray) -> None:
        """Delete keys: clear existence bits, purge from T_aux."""
        dense = self.key_space.dense_index(_key_matrix(keys))
        self.aux.apply(remove_keys=dense)
        self.vexist.set(dense, False)
        self._maybe_retrain()

    # ------------------------------------------------------------- Algorithm 5
    def update(self, df: pd.DataFrame) -> None:
        """Replace values of existing keys; mis-learned values go to T_aux,
        values the model now predicts correctly leave T_aux."""
        dense = self._batch_keys(df)
        if not self.vexist.get(dense).all():
            raise KeyError("update of a non-existing key — use insert()")
        self._write(df, dense)
        self._maybe_retrain()

    # ------------------------------------------------------------ retraining
    def _maybe_retrain(self) -> None:
        th = self.config.retrain_threshold_bytes
        if th is not None and self.aux.nbytes_disk > th:
            self.retrain()

    def retrain(self) -> None:
        """Materialize current contents, retrain M, rebuild T_aux/V_exist.

        The paper triggers this offline when T_aux exceeds its threshold;
        model search (MHAS) is re-run separately — here we retrain the
        current architecture (DESIGN.md §6)."""
        dense, codecs, codes = encode_relation(
            self.materialize(), self.key_space, self.key_cols, self.value_cols
        )
        model, aux_keys, aux_codes = _fit(self.key_space, dense, codecs, codes, self.config)
        self.aux.build(aux_keys, aux_codes)
        self.model = model
        self.codecs = codecs
        self.retrain_count += 1
        self._pin_residents()

    def materialize(self) -> pd.DataFrame:
        """All currently existing rows, reconstructed through lookup, with
        each value column in its native dtype."""
        keys = self.key_space.from_dense(self.vexist.set_indices())
        _, vals = self.lookup_arrays(keys)
        return pd.DataFrame({**{kc: keys[:, i] for i, kc in enumerate(self.key_cols)}, **vals})

    # --------------------------------------------------------------- helpers
    def _batch_keys(self, df: pd.DataFrame) -> np.ndarray:
        """Dense keys of a modification batch, which must hold every key and
        value column and no key twice."""
        missing = [c for c in self.key_cols + self.value_cols if c not in df.columns]
        if missing:
            raise KeyError(f"modification batch lacks columns {missing}")
        dense = self.key_space.dense_index(df[self.key_cols].to_numpy())
        if len(np.unique(dense)) != len(dense):
            raise ValueError("duplicate keys in one modification batch")
        return dense

    def _write(self, df: pd.DataFrame, dense: np.ndarray) -> None:
        """Algorithms 3 and 5's shared step: the batch's rows the model gets
        wrong enter ``T_aux`` with the codes of every column, and its other
        keys leave ``T_aux``. A codec meeting unseen categories is replaced
        by an extended copy: the fixed-output model can never predict those,
        so the rows land in T_aux — exactly the lazy-update semantics of
        Sec. IV-D. The codecs change only once ``T_aux`` took the batch, so
        a failed write leaves the structure unchanged."""
        codecs = {c: self.codecs[c].extended(df[c]) for c in self.value_cols}
        codes = {c: codecs[c].encode(df[c]) for c in self.value_cols}
        wrong = misclassified(self.model, self.key_space, dense, codes)
        self.aux.apply(
            upsert_keys=dense[wrong],
            upsert_codes={c: v[wrong] for c, v in codes.items()},
            remove_keys=dense[~wrong],
        )
        if any(codecs[c] is not self.codecs[c] for c in codecs):
            self.codecs = codecs
            self.pool.pin("dm:fdecode", decode_map_bytes(self.codecs))

    # ---------------------------------------------------------------- sizing
    def storage_breakdown(self) -> dict[str, int]:
        """Per-component at-rest bytes (paper Fig. 6 / Eq. 1 numerator)."""
        return {
            "model": self.model.nbytes_stored(),
            "aux_table": self.aux.nbytes_disk,
            "vexist": self.vexist.nbytes_stored(),
            "fdecode": decode_map_bytes(self.codecs),
        }

    @property
    def nbytes_disk(self) -> int:
        return sum(self.storage_breakdown().values())

    def compression_ratio(self, uncompressed_bytes: int) -> float:
        """Eq. 1: hybrid structure size over raw data size."""
        return self.nbytes_disk / max(1, uncompressed_bytes)

    @property
    def memorized_fraction(self) -> float:
        """Fraction of tuples the model alone answers fully correctly —
        the paper's 'model memorized N% of the tuples' (Fig. 6)."""
        n_exist = self.vexist.count()
        if n_exist == 0:
            return 1.0
        return 1.0 - self.aux.n_entries / n_exist


def encode_relation(
    df: pd.DataFrame, ks: KeySpace, key_cols: list[str], value_cols: list[str]
) -> tuple[np.ndarray, dict[str, LabelCodec], dict[str, np.ndarray]]:
    """(dense keys, codecs, codes) of a relation whose key columns identify
    its rows. Build, retrain and MHAS encode through this routine."""
    dense = ks.dense_index(df[key_cols].to_numpy())
    if len(np.unique(dense)) != len(dense):
        raise ValueError("key columns do not uniquely identify rows")
    codecs = {c: LabelCodec(df[c]) for c in value_cols}
    codes = {c: codecs[c].encode(df[c]) for c in value_cols}
    return dense, codecs, codes


def _fit(
    ks: KeySpace,
    dense: np.ndarray,
    codecs: dict[str, LabelCodec],
    codes: dict[str, np.ndarray],
    config: DeepMappingConfig,
    model: MappingModel | None = None,
) -> tuple[MappingModel, np.ndarray, dict[str, np.ndarray]]:
    """Train the model on an encoded relation unless one is given, and sweep
    every key through it: (model, T_aux keys, T_aux codes). Build and
    retrain share this routine."""
    if model is None:
        n_classes = {c: codec.n_classes for c, codec in codecs.items()}
        model = train_model(ks, dense, codes, n_classes, config.arch, config.train)
    wrong = misclassified(model, ks, dense, codes)
    return model, dense[wrong], {c: v[wrong] for c, v in codes.items()}
