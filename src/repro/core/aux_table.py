"""Auxiliary accuracy-assurance table ``T_aux`` (paper Sec. IV-B.1).

Row-level, as in Algorithm 1 (``R[i] = T_aux[Q[i]]`` returns the row's
*values*): a key whose tuple is misclassified on any value column is
stored once, with the correct integer codes of **all** its value
columns.

The table is keyless. Its keys are a subset of ``V_exist``'s, so they are
held as a second bit vector, ``V_aux``, with one bit per dense key up to
the largest stored key: row *i* of the table is the *i*-th set bit of
``V_aux``. The partitions hold only the code columns, a fixed number of
rows each, each compressed with the configured codec and served through
the LRU memory pool. A lookup is a bounds check and a bit test against the
pinned ``V_aux``, so a key that ``T_aux`` does not hold loads nothing; a
member's row is ``V_aux.rank(key)``, and :meth:`_CodeStore.gather` reads
it from partition ``row // rows_per_partition`` at its offset. The rank
query takes the place of the paper's binary search of a partition's key
array (Algorithm 1's validation step).

In a loaded partition each code column takes the narrowest of
uint8/uint16/uint32 that holds its largest code in the generation, so a
partition holds more rows and the table fits a smaller pool. Lookup
results and :meth:`AuxTable.master` stay int32. Rows per partition follow
from these widths. A generation's partitions reach disk in one of two
layouts, whichever is smaller after the codec (per-column on a tie):

* **per-column** — the loaded payload, pickled;
* **packed** — each row's codes as one mixed-radix number, the radix of a
  column being its largest code plus 1 (Knuth, TAOCP vol. 2 §4.1), and
  the largest k numbers with ``(∏ radix) ** k <= 2 ** 64`` to a uint64
  word (word-aligned packing, as in Lemire & Boytsov, SPE 2015). A
  generation whose radix product is not below ``2 ** 64`` is written
  per-column.

Both candidates are encoded in memory and only the smaller is written.
Loading a packed partition unpacks it into the per-column payload, inside
the pool's load and counted as deserialization, so the pool and every
lookup see the same payload in either layout and a lookup never unpacks.
An insert that adds a larger code grows that column's radix in the next
generation.

``V_aux`` is kept as ``V_exist`` is: resident, pinned in the pool together
with its rank directory, and pickled with the table. Eq. 1 counts it in
:attr:`AuxTable.nbytes_disk` by the length of its packed bits compressed
with the table's codec; no file holds that blob, so a generation's
directory holds only its partitions.

``T_aux``'s rows exist only in the partitions: on disk, and in the pool
while resident. Modifications (Algorithms 3–5) gather the rows they keep
through the pool, append the upserts and write the rows as a new generation
directory; the previous generation is deleted once the new one is on disk.
"""
from __future__ import annotations

import math
import shutil

import numpy as np

from ..baselines.array_store import _min_int_dtype
from ..baselines.memory_pool import MemoryPool
from ..baselines.partition_store import PartitionedStore
from .bitvector import BitVector

__all__ = ["AuxTable"]


def _rows_per_word(base: int) -> int:
    """The largest k with ``base ** k <= 2 ** 64`` (64 for base 1, as for 2)."""
    k = 1
    while k < 64 and base ** (k + 1) <= 1 << 64:
        k += 1
    return k


def _divmod(x: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.divmod(x, d)`` as a floor division, which numpy does by
    multiplication for a scalar divisor, and a multiply-subtract."""
    d = x.dtype.type(d)
    q = x // d
    return q, x - q * d


class _CodeStore(PartitionedStore):
    """``T_aux``'s partitions: the code columns only, keyed by row number.
    A partition records its first row; a row's codes sit at its offset.

    On disk a generation's partitions are either pickled per-column arrays
    or packed words; :attr:`radix` is ``None`` for the first, and each
    column's radix for the second. Loading unpacks, so a payload in the
    pool is the same ``{"start", "cols"}`` in either layout."""

    key_nbytes = 0
    radix: list[int] | None = None

    def _make_payload(self, rows: np.ndarray, values: dict[str, np.ndarray]) -> dict:
        return {"start": int(rows[0]), "cols": values}

    def _encode(self, payloads) -> list[bytes]:
        """Both layouts' compressed partitions; the smaller total is kept,
        per-column on a tie."""
        payloads = list(payloads)
        per_column = super()._encode(payloads)
        self.radix = None
        if not payloads or not self.dtypes:
            return per_column
        radix = [max(int(p["cols"][c].max()) for p in payloads) + 1 for c in self.dtypes]
        if math.prod(radix) >= 1 << 64:
            return per_column
        packed = [self.codec.compress(self._pack(p, radix)) for p in payloads]
        if sum(map(len, packed)) >= sum(map(len, per_column)):
            return per_column
        self.radix = radix
        return packed

    @staticmethod
    def _pack(payload: dict, radix: list[int]) -> bytes:
        """A partition as ``[start, rows]`` and then its words: each row's
        codes are one mixed-radix number (first column least significant),
        and ``_rows_per_word`` such numbers fill a uint64, first row least
        significant."""
        cols = list(payload["cols"].values())
        num = np.zeros(len(cols[0]), dtype=np.uint64)
        for v, r in zip(reversed(cols), reversed(radix)):
            num = num * np.uint64(r) + v
        base = math.prod(radix)
        k = _rows_per_word(base)
        digits = np.zeros(-(-len(num) // k) * k, dtype=np.uint64)
        digits[:len(num)] = num
        digits = digits.reshape(-1, k)
        words = np.zeros(len(digits), dtype=np.uint64)
        for j in reversed(range(k)):
            words = words * np.uint64(base) + digits[:, j]
        head = np.array([payload["start"], len(num)], dtype=np.uint64)
        return np.concatenate([head, words]).tobytes()

    def _deserialize(self, raw: bytes) -> dict:
        if self.radix is None:
            return super()._deserialize(raw)
        a = np.frombuffer(raw, dtype=np.uint64)
        base = math.prod(self.radix)
        k = _rows_per_word(base)
        # row numbers and every radix fit the narrowest dtype that holds
        # ``base``, where the columns divide several times faster than in uint64
        words, num = a[2:], np.empty((len(a) - 2, k), dtype=_min_int_dtype(base + 1))
        for j in range(k):
            words, num[:, j] = _divmod(words, base)
        num, cols = num.reshape(-1)[:int(a[1])], {}
        for (c, dt), r in zip(self.dtypes.items(), self.radix):
            num, code = _divmod(num, r)
            cols[c] = code.astype(dt)
        return {"start": int(a[0]), "cols": cols}

    def _payload_nbytes(self, payload: dict) -> int:
        return sum(v.nbytes for v in payload["cols"].values())

    def gather(self, rows: np.ndarray) -> dict[str, np.ndarray]:
        """{col: int32 codes of ``rows``, in the order given}. Row r is in
        partition ``r // rows_per_partition``: one stable argsort of that id
        groups the rows, and each touched partition is loaded once, those
        already in the pool first, as in :meth:`lookup_batch`."""
        out = {c: np.empty(len(rows), dtype=np.int32) for c in self.dtypes}
        part = (rows // self.rows_per_partition).astype(_min_int_dtype(self.n_partitions))
        order = np.argsort(part, kind="stable")
        bounds = np.searchsorted(part[order], np.arange(self.n_partitions + 1))
        touched = np.flatnonzero(bounds[1:] > bounds[:-1])
        resident = np.array([(self.name, pi) in self.pool for pi in touched.tolist()], dtype=bool)
        for pi in np.concatenate([touched[resident], touched[~resident]]).tolist():
            idx = order[bounds[pi]:bounds[pi + 1]]
            payload = self._load_partition(pi)
            pos = rows[idx] - payload["start"]
            for c, v in payload["cols"].items():
                out[c][idx] = v[pos]
        return out


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
        self._store: _CodeStore | None = None
        self._vaux: BitVector | None = None
        self._vaux_nbytes = 0  # V_aux compressed; 0 when the table is empty
        self._gen = 0

    # -- construction ---------------------------------------------------------
    def build(self, keys: np.ndarray, codes: dict[str, np.ndarray]) -> None:
        """``keys`` are the dense keys of misclassified tuples; ``codes``
        holds the correct int32 code of *every* value column, aligned."""
        codes = {c: np.asarray(v, dtype=np.int32) for c, v in codes.items()}
        self._write(np.asarray(keys, dtype=np.int64), codes)

    def _write(self, keys: np.ndarray, codes: dict[str, np.ndarray]) -> None:
        """Write rows as the next on-disk generation, then make them
        current: ``V_aux`` over their keys, and each code column in its
        minimal width, in key order, in the smaller of the two on-disk
        layouts (:class:`_CodeStore`). Rows are sorted and duplicate keys
        rejected before anything is written; the current generation changes
        only once the write succeeded, and the superseded generation's
        cached partitions and files are dropped."""
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        if len(keys) > 1 and (np.diff(keys) == 0).any():
            raise ValueError("duplicate dense keys in T_aux")
        vaux = BitVector(int(keys[-1]) + 1 if len(keys) else 0)
        vaux.set(keys)
        st = _CodeStore(
            self.workdir,
            codec=self.codec_name,
            partition_bytes=self.partition_bytes,
            pool=self.pool,
            name=f"aux-g{self._gen + 1}",
        )
        try:
            vaux_nbytes = len(st.codec.compress(vaux.raw_bytes())) if len(keys) else 0
            st.build(np.arange(len(keys)), {
                c: v[order].astype(_min_int_dtype(int(v.max(initial=0)) + 1))
                for c, v in codes.items()
            })
        except BaseException:
            shutil.rmtree(st.dir, ignore_errors=True)
            raise
        old = self._store
        self._gen += 1
        self.columns = list(codes)
        self._store, self._vaux, self._vaux_nbytes = st, vaux, vaux_nbytes
        self.pool.pin("aux:vaux", vaux.nbytes_resident() + vaux.rank_directory().nbytes)
        if old is not None:
            for pi in range(old.n_partitions):
                self.pool.invalidate((old.name, pi))
            shutil.rmtree(old.dir, ignore_errors=True)

    # -- query path ------------------------------------------------------------
    def lookup(self, keys: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """(found_mask, {col: int32 codes for found keys, in query order})."""
        keys = np.asarray(keys, dtype=np.int64)
        found = np.zeros(len(keys), dtype=bool)
        if self._store is None:
            return found, {}
        inside = np.flatnonzero((keys >= 0) & (keys < self._vaux.size))
        found[inside[self._vaux.get(keys[inside])]] = True
        return found, self._store.gather(self._vaux.rank(keys[found]))

    # -- modifications (driver side; Algorithms 3–5 materialize here) ---------
    def apply(
        self,
        *,
        upsert_keys: np.ndarray | None = None,
        upsert_codes: dict[str, np.ndarray] | None = None,
        remove_keys: np.ndarray | None = None,
    ) -> None:
        """Read back the current rows whose keys are neither removed nor
        upserted, append the upserts and write the result as a new
        generation."""
        keys = self._vaux.set_indices()
        drop = [np.asarray(k, dtype=np.int64) for k in (remove_keys, upsert_keys) if k is not None]
        rows = np.flatnonzero(~np.isin(keys, np.concatenate([np.empty(0, dtype=np.int64), *drop])))
        keys, codes = keys[rows], self._store.gather(rows)
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
        """Partitions plus ``V_aux`` compressed with the table's codec."""
        return self._store.nbytes_disk + self._vaux_nbytes if self._store is not None else 0

    def master(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Every row of the current generation, read back from ``V_aux``
        and from the partitions through the pool: (sorted int64 keys,
        {col: int32 codes})."""
        if self._store is None:
            return np.empty(0, dtype=np.int64), {}
        return self._vaux.set_indices(), self._store.gather(np.arange(self.n_entries))
