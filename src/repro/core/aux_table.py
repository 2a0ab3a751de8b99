"""Auxiliary accuracy-assurance table ``T_aux`` (paper Sec. IV-B.1).

Row-level, as in Algorithm 1 (``R[i] = T_aux[Q[i]]`` returns the row's
*values*): a key whose tuple is misclassified on any value column is
stored once, with the correct integer codes of **all** its value
columns. The store is sorted by dense key, range-partitioned, each
partition compressed with the configured codec, and served through the
LRU memory pool; a lookup routes to a partition, loads/decompresses it,
and binary-searches the key array — Algorithm 1's validation step.

On disk each code column takes the narrowest of uint8/uint16/uint32 that
holds its largest code in the generation being written, so a partition
holds more rows and the table fits a smaller pool. Lookup results and
:meth:`AuxTable.master` stay int32.

``T_aux`` exists only as its partitions: on disk, and in the pool while
resident. Modifications (Algorithms 3–5) read every partition back
through the pool, merge the delta and write the rows as a new generation
directory; the previous generation is deleted once the new one is on
disk.
"""
from __future__ import annotations

import shutil

import numpy as np

from ..baselines.array_store import ArrayStore, _min_int_dtype
from ..baselines.memory_pool import MemoryPool

__all__ = ["AuxTable"]


class AuxTable:
    """Row-level misclassified-tuple store with rebuild-on-modify."""

    def __init__(
        self,
        workdir: str,
        *,
        codec: str = "z",
        partition_bytes: int = 128 * 1024,
        pool: MemoryPool | None = None,
    ):
        self.workdir = workdir
        self.codec_name = codec
        self.partition_bytes = int(partition_bytes)
        self.pool = pool if pool is not None else MemoryPool(None)
        self.columns: list[str] = []
        self._store: ArrayStore | None = None
        self._gen = 0

    # -- construction ---------------------------------------------------------
    def build(self, keys: np.ndarray, codes: dict[str, np.ndarray]) -> None:
        """``keys`` are the dense keys of misclassified tuples; ``codes``
        holds the correct int32 code of *every* value column, aligned."""
        codes = {c: np.asarray(v, dtype=np.int32) for c, v in codes.items()}
        self._write(np.asarray(keys, dtype=np.int64), codes)

    def _write(self, keys: np.ndarray, codes: dict[str, np.ndarray]) -> None:
        """Write rows as the next on-disk generation, then make them
        current, each code column in its minimal width. The current
        generation changes only once the write succeeded (the store sorts
        the rows and rejects duplicate keys); the superseded generation's
        cached partitions and files are dropped."""
        st = ArrayStore(
            self.workdir,
            codec=self.codec_name,
            partition_bytes=self.partition_bytes,
            pool=self.pool,
            name=f"aux-g{self._gen + 1}",
        )
        try:
            st.build(keys, {
                c: v.astype(_min_int_dtype(int(v.max(initial=0)) + 1)) for c, v in codes.items()
            })
        except BaseException:
            shutil.rmtree(st.dir, ignore_errors=True)
            raise
        old = self._store
        self._gen += 1
        self.columns = list(codes)
        self._store = st
        if old is not None:
            for pi in range(old.n_partitions):
                self.pool.invalidate((old.name, pi))
            shutil.rmtree(old.dir, ignore_errors=True)

    # -- query path ------------------------------------------------------------
    def lookup(self, keys: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """(found_mask, {col: int32 codes for found keys, in query order})."""
        keys = np.asarray(keys, dtype=np.int64)
        if self._store is None:
            return np.zeros(len(keys), dtype=bool), {}
        found, codes = self._store.lookup_batch(keys)
        return found, {c: v.astype(np.int32, copy=False) for c, v in codes.items()}

    # -- modifications (driver side; Algorithms 3–5 materialize here) ---------
    def apply(
        self,
        *,
        upsert_keys: np.ndarray | None = None,
        upsert_codes: dict[str, np.ndarray] | None = None,
        remove_keys: np.ndarray | None = None,
    ) -> None:
        """Read the current rows back, drop the removed and the upserted
        keys, append the upserts and write the result as a new generation."""
        keys, codes = self.master()
        drop = [np.asarray(k, dtype=np.int64) for k in (remove_keys, upsert_keys) if k is not None]
        keep = ~np.isin(keys, np.concatenate([np.empty(0, dtype=np.int64), *drop]))
        keys, codes = keys[keep], {c: v[keep] for c, v in codes.items()}
        if upsert_keys is not None:
            keys = np.concatenate([keys, np.asarray(upsert_keys, dtype=np.int64)])
            codes = {
                c: np.concatenate([codes[c], np.asarray(upsert_codes[c], dtype=np.int32)])
                for c in self.columns
            }
        self._write(keys, codes)

    # -- size -----------------------------------------------------------------
    @property
    def n_entries(self) -> int:
        """Number of misclassified tuples resident in T_aux."""
        return self._store.n_rows if self._store is not None else 0

    @property
    def nbytes_disk(self) -> int:
        return self._store.nbytes_disk if self._store is not None else 0

    def master(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Every row of the current generation, read back from its
        partitions through the pool: (sorted int64 keys, {col: int32 codes})."""
        if self._store is None:
            return np.empty(0, dtype=np.int64), {}
        keys, codes = self._store.rows()
        return keys, {c: v.astype(np.int32) for c, v in codes.items()}
