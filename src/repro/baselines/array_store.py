"""Array-based baselines AB / ABC-{D,G,Z,L} (paper Sec. V-A.3).

Each partition is a serialized numpy column group: the sorted dense key
array plus one value array per column. Point lookup = route to partition
(range boundaries), load/decompress through the memory pool, then binary
search (``np.searchsorted``) on the key array — the paper's array path.

ABC-D (Dictionary Encoding) is a value-level transform: each partition
stores minimal-width integer codes plus a per-partition dictionary
instead of the raw values; no byte codec is applied (as in the paper,
where dictionary encoding *is* the compression).
"""
from __future__ import annotations

from typing import Any

import numpy as np

from .partition_store import PartitionedStore

__all__ = ["ArrayStore"]


def _min_int_dtype(n: int) -> np.dtype:
    for dt in (np.uint8, np.uint16, np.uint32):
        if n <= np.iinfo(dt).max + 1:
            return np.dtype(dt)
    return np.dtype(np.uint64)


class ArrayStore(PartitionedStore):
    """AB (codec='none'), ABC-G/Z/L (byte codecs), ABC-D (codec='dict')."""

    def _make_payload(self, keys: np.ndarray, values: dict[str, np.ndarray]) -> Any:
        if self.codec.name != "dict":
            return {"keys": keys.copy(), "cols": {c: v.copy() for c, v in values.items()}}
        cols = {}
        for c, v in values.items():
            cats, codes = np.unique(v, return_inverse=True)
            cols[c] = ("dict", cats, codes.astype(_min_int_dtype(len(cats))))
        return {"keys": keys.copy(), "cols": cols}

    def _payload_nbytes(self, payload: Any) -> int:
        n = payload["keys"].nbytes
        for v in payload["cols"].values():
            if isinstance(v, tuple):
                _, cats, codes = v
                n += codes.nbytes + (cats.nbytes if cats.dtype != object else 24 * len(cats))
            else:
                n += v.nbytes if v.dtype != object else 24 * len(v)
        return n

    def _lookup_in_payload(self, payload, keys):
        pk = payload["keys"]
        pos = np.searchsorted(pk, keys)
        pos_c = np.clip(pos, 0, len(pk) - 1)
        mask = pk[pos_c] == keys
        hit = pos_c[mask]
        vals = {}
        for c, v in payload["cols"].items():
            if isinstance(v, tuple):
                _, cats, codes = v
                vals[c] = cats[codes[hit]]
            else:
                vals[c] = v[hit]
        return mask, vals
