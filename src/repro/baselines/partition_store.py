"""Range-partitioned on-disk store — shared substrate of every method.

The paper stores each representation (arrays, hash tables, DeepMapping's
auxiliary table) as key-range partitions on disk; each partition is
serialized (pickle) and optionally compressed, and is loaded through the
LRU memory pool at query time (Sec. V-A.5 "Partition Size Tuning").

Subclasses define how a partition's rows are represented
(:meth:`_make_payload`) and how a lookup proceeds within a loaded
partition (:meth:`_lookup_in_payload`); they may also change how the
payloads become file bytes and back (:meth:`_encode`, :meth:`_deserialize`),
which every baseline leaves as pickle plus codec. Keys are the *dense
indices* of the workload's :class:`~repro.core.encoding.KeySpace`, sorted
within and across partitions; query batches are sorted and sliced by the
partition bounds so each partition is decompressed at most once per batch
(paper Sec. IV-B), and partitions already in the pool are visited first.
Every partition but the last holds :attr:`rows_per_partition` rows, so
``T_aux``'s store, keyed by row number, routes by division, not :meth:`lookup_batch`.
"""
from __future__ import annotations

import os
import pickle
import time
import uuid
from typing import Any, Iterable

import numpy as np

from .compression import get_codec
from .memory_pool import MemoryPool

__all__ = ["PartitionedStore"]


class PartitionedStore:
    """Base class: sorted dense keys + per-column value arrays, partitioned."""

    key_nbytes = 8  # bytes a partition spends per row on its key

    def __init__(
        self,
        workdir: str,
        *,
        codec: str = "none",
        partition_bytes: int = 256 * 1024,
        pool: MemoryPool | None = None,
        name: str | None = None,
    ):
        self.codec = get_codec(codec)
        self.partition_bytes = int(partition_bytes)
        self.pool = pool if pool is not None else MemoryPool(None)
        self.name = name or f"{type(self).__name__}-{uuid.uuid4().hex[:8]}"
        self.dir = os.path.join(workdir, self.name)
        os.makedirs(self.dir, exist_ok=True)
        self.dtypes: dict[str, np.dtype] = {}  # value column → build dtype
        # partition i covers dense keys in [self._lo[i], self._hi[i]]
        self._lo = np.empty(0, dtype=np.int64)
        self._hi = np.empty(0, dtype=np.int64)
        self._files: list[str] = []
        self._nbytes_disk = 0
        self.n_rows = 0

    # -- subclass contract ----------------------------------------------------
    def _make_payload(self, keys: np.ndarray, values: dict[str, np.ndarray]) -> Any:
        raise NotImplementedError

    def _payload_nbytes(self, payload: Any) -> int:
        """Resident size estimate for the pool."""
        raise NotImplementedError

    def _lookup_in_payload(
        self, payload: Any, keys: np.ndarray
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Return (found_mask, {col: values for found keys in order})."""
        raise NotImplementedError

    def _encode(self, payloads: Iterable[Any]) -> list[bytes]:
        """Each partition's file bytes: its payload pickled, then compressed."""
        return [
            self.codec.compress(pickle.dumps(p, protocol=pickle.HIGHEST_PROTOCOL))
            for p in payloads
        ]

    def _deserialize(self, raw: bytes) -> Any:
        """A partition's payload from its decompressed file bytes."""
        return pickle.loads(raw)

    # -- build ------------------------------------------------------------
    def build(self, keys: np.ndarray, values: dict[str, np.ndarray]) -> None:
        """Partition sorted (key, values) rows and write them to disk.

        ``keys`` are dense int64 indices; duplicates are not allowed (the
        mapping's key identifies a tuple). Rows are sorted here, so callers
        may pass unsorted input.
        """
        keys = np.asarray(keys, dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        if len(keys) > 1 and (np.diff(keys) == 0).any():
            raise ValueError("duplicate dense keys in store build")
        values = {c: np.asarray(v)[order] for c, v in values.items()}
        self.dtypes = {c: v.dtype for c, v in values.items()}

        row_bytes = self.key_nbytes + sum(
            v.dtype.itemsize if v.dtype != object else 24 for v in values.values()
        )
        rows_per_part = self.rows_per_partition = max(1, self.partition_bytes // max(1, row_bytes))
        n = len(keys)
        starts = range(0, n, rows_per_part)
        blobs = self._encode(
            self._make_payload(
                keys[s:s + rows_per_part], {c: v[s:s + rows_per_part] for c, v in values.items()}
            )
            for s in starts
        )
        files = []
        for pi, comp in enumerate(blobs):
            path = os.path.join(self.dir, f"part_{pi:06d}.bin")
            with open(path, "wb") as f:
                f.write(comp)
            files.append(path)
        self._lo = keys[list(starts)]
        self._hi = keys[[min(n, s + rows_per_part) - 1 for s in starts]]
        self._files = files
        self._nbytes_disk = sum(map(len, blobs))
        self.n_rows = n

    # -- size ---------------------------------------------------------------
    @property
    def n_partitions(self) -> int:
        return len(self._files)

    @property
    def nbytes_disk(self) -> int:
        """Total on-disk (compressed) bytes — the paper's 'storage size'."""
        return self._nbytes_disk

    # -- lookup --------------------------------------------------------------
    def _load_partition(self, pi: int) -> Any:
        def loader():
            t0 = time.perf_counter()
            with open(self._files[pi], "rb") as f:
                comp = f.read()
            self.pool.stats.io_time += time.perf_counter() - t0
            self.pool.stats.bytes_read += len(comp)
            self.pool.simulate_io(len(comp))
            raw = self.pool.timed("decompress", lambda: self.codec.decompress(comp))
            payload = self.pool.timed("deserialize", lambda: self._deserialize(raw))
            return payload, self._payload_nbytes(payload)

        return self.pool.get((self.name, pi), loader)

    def lookup_batch(self, keys: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Batch point lookup by dense key.

        Returns ``(found_mask, values)`` where each ``values[col]`` holds
        the values of the found keys, in query order, in the column's
        build dtype.

        The query keys are sorted once; two binary searches of the
        partition bounds into them give each partition its slice, so keys
        in gaps between partitions load nothing. Partitions already in the
        pool are visited first, then the others in ascending order: a batch
        that touches more partitions than the pool holds thus hits every
        resident one before its loads evict any, rather than scanning in a
        fixed cyclic order that defeats LRU.
        """
        keys = np.asarray(keys, dtype=np.int64)
        found = np.zeros(len(keys), dtype=bool)
        order = np.argsort(keys)  # equal keys get equal answers: no need for stable
        sk = keys[order]
        start = np.searchsorted(sk, self._lo, side="left")
        end = np.searchsorted(sk, self._hi, side="right")
        touched = np.flatnonzero(end > start)
        resident = np.array([(self.name, pi) in self.pool for pi in touched.tolist()], dtype=bool)
        # values scatter to their query positions; ``found`` then picks them
        full = {c: np.empty(len(keys), dtype=dt) for c, dt in self.dtypes.items()}
        for pi in np.concatenate([touched[resident], touched[~resident]]).tolist():
            s, e = start[pi], end[pi]
            payload = self._load_partition(pi)
            mask, vals = self._lookup_in_payload(payload, sk[s:e])
            hit = order[s:e][mask]
            found[hit] = True
            for c in self.dtypes:
                full[c][hit] = vals[c]
        return found, {c: v[found] for c, v in full.items()}
