"""Existence bit vector ``V_exist`` (paper Sec. IV-B).

One bit per position of the dense key space; bit i == 1 iff the key with
dense index i exists. Backed by ``numpy.packbits`` (the paper uses the
``bitarray`` C library, which is not installed here — same semantics).
At-rest size is the packed bits zlib-compressed, matching the paper's
note that ``V_exist`` is (de)compressed ("randomness in decompressing
V_exist"); nothing stores that blob, so only its length is computed.
:meth:`BitVector.raw_bytes`/:meth:`BitVector.from_raw` are the vector's
one serialized form; ``T_aux`` writes them through its codec as the
``V_aux`` file.

:meth:`BitVector.rank` counts the set bits below an index in O(1): a
directory holds one int32 cumulative count per 64-bit word (Jacobson,
*Space-efficient static trees and graphs*, FOCS 1989), and the bits of
the index's own word are counted broadword (Vigna, *Broadword
implementation of rank/select queries*, WEA 2008). ``T_aux`` maps a key to
its row this way.
"""
from __future__ import annotations

import zlib

import numpy as np

__all__ = ["BitVector"]

_M1, _M2, _M4, _H01 = (
    np.uint64(m)
    for m in (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F, 0x0101010101010101)
)


def _popcount64(w: np.ndarray) -> np.ndarray:
    """Set bits of each uint64 word, SWAR (numpy 1.26 has no
    ``bitwise_count``); the multiply wraps mod 2**64 by design."""
    w = w - ((w >> np.uint64(1)) & _M1)
    w = (w & _M2) + ((w >> np.uint64(2)) & _M2)
    w = (w + (w >> np.uint64(4))) & _M4
    return ((w * _H01) >> np.uint64(56)).astype(np.int64)


class BitVector:
    """Fixed-size dense bit vector with vectorized batch get/set."""

    def __init__(self, size: int):
        if size < 0:
            raise ValueError("size must be non-negative")
        self.size = int(size)
        # whole 64-bit words, so rank can view them; bits past size stay 0
        self._bits = np.zeros(-(-self.size // 64) * 8, dtype=np.uint8)
        self._rank_dir: np.ndarray | None = None

    # -- element access -------------------------------------------------
    def _validate(self, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.size):
            raise IndexError("bit index out of range")
        return idx

    def set(self, idx: np.ndarray, value: bool = True) -> None:
        idx = self._validate(idx)
        byte, bit = idx >> 3, 7 - (idx & 7)
        self._rank_dir = None
        if value:
            np.bitwise_or.at(self._bits, byte, (1 << bit).astype(np.uint8))
        else:
            np.bitwise_and.at(self._bits, byte, (~(1 << bit)).astype(np.uint8))

    def get(self, idx: np.ndarray) -> np.ndarray:
        idx = self._validate(idx)
        byte, bit = idx >> 3, 7 - (idx & 7)
        return (self._bits[byte] >> bit) & 1 == 1

    def __getitem__(self, i: int) -> bool:
        return bool(self.get(np.array([i]))[0])

    def rank_directory(self) -> np.ndarray:
        """Set bits before each 64-bit word, int32; built on first use and
        rebuilt after a :meth:`set`."""
        if self._rank_dir is None:
            counts = _popcount64(self._bits.view(">u8"))
            self._rank_dir = (np.cumsum(counts) - counts).astype(np.int32)
        return self._rank_dir

    def rank(self, idx: np.ndarray) -> np.ndarray:
        """Number of set bits below each index, int64."""
        idx = self._validate(idx)
        word = idx >> 6
        # bit i is the (i & 63)-th most significant bit of its big-endian
        # word; two shifts keep the bits above it without a 64-bit shift
        above = (self._bits.view(">u8")[word] >> np.uint64(1)) >> (63 - (idx & 63)).astype(np.uint64)
        return self.rank_directory()[word] + _popcount64(above)

    # -- bulk operations -------------------------------------------------
    def count(self) -> int:
        """Number of set bits (population count)."""
        return int(np.unpackbits(self._bits, count=self.size).sum())

    def set_indices(self) -> np.ndarray:
        """Dense indices of all set bits, ascending."""
        return self.set_indices_in_range(0, self.size)

    def set_indices_in_range(self, lo: int, hi: int) -> np.ndarray:
        """Set bits with lo <= index < hi — the paper's range-query filter."""
        lo, hi = max(0, int(lo)), min(self.size, int(hi))
        if hi <= lo:
            return np.empty(0, dtype=np.int64)
        lob, hib = lo >> 3, (hi + 7) >> 3
        bits = np.unpackbits(self._bits[lob:hib])
        offs = np.flatnonzero(bits) + lob * 8
        return offs[(offs >= lo) & (offs < hi)].astype(np.int64)

    # -- serialization / size ---------------------------------------------
    def raw_bytes(self) -> bytes:
        """The packed bits, uncompressed: one byte per 8 positions."""
        return self._bits[: (self.size + 7) // 8].tobytes()

    @staticmethod
    def from_raw(raw: bytes, size: int) -> "BitVector":
        """Inverse of :meth:`raw_bytes`."""
        bv = BitVector(size)
        if len(raw) != (size + 7) // 8:
            raise ValueError("payload length does not match bit vector size")
        bv._bits[: len(raw)] = np.frombuffer(raw, dtype=np.uint8)
        return bv

    def nbytes_stored(self) -> int:
        """At-rest size in bytes, Eq. 1's size(V_exist): the packed bits
        zlib-compressed at level 6."""
        return len(zlib.compress(self.raw_bytes(), 6))

    def nbytes_resident(self) -> int:
        """In-memory size in bytes."""
        return int(self._bits.nbytes)
