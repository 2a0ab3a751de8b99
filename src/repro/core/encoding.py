"""Key and value encodings for DeepMapping (paper Sec. IV-A, IV-B).

The paper one-hot encodes keys ("strings or categorical data are encoded
as integers using one-hot encoding before training and inference") and
keeps a decoding map ``f_decode`` that converts predicted integer codes
back to the original values.

We provide:

* :class:`KeySpace` — describes a (possibly composite) integer key. Maps
  each key tuple to a *dense index* via mixed-radix positional encoding,
  which is what the existence bit vector ``V_exist`` is addressed by, and
  produces the one-hot digit features fed to the neural network, either as
  a matrix (training, one mini-batch at a time) or in factored form
  straight from the dense index: per merged block of one-hot columns, the
  index of the digit combination a key selects (inference, see
  :meth:`KeySpace.hot_positions`).
* :class:`LabelCodec` — per-value-column dictionary encoder: original
  values → contiguous integer class codes and back (the ``f_decode`` of
  the paper, one codec per output head).
"""
from __future__ import annotations

import math
import pickle
import zlib
from dataclasses import dataclass

import numpy as np
import pandas as pd

__all__ = ["KeySpace", "LabelCodec", "decode_map_bytes"]

# most digit combinations one merged block of one-hot columns may span: three
# decimal digits, so a block's table stays small enough to live in cache
TABLE_ROWS = 1000


def _ndigits(card: int) -> int:
    """Number of base-10 digits needed to render ``card`` distinct values."""
    return max(1, len(str(max(0, card - 1))))


@dataclass(frozen=True)
class KeySpace:
    """A composite integer key domain.

    ``lows[i]``/``cards[i]`` give the minimum value and cardinality of the
    i-th key component; component values must lie in
    ``[lows[i], lows[i] + cards[i])``. Dense index = mixed-radix value of
    the offsets, so the full key range maps to ``[0, size)`` — the address
    space of ``V_exist``.

    ``feature_radices`` optionally overrides the network input encoding:
    instead of base-10 digits per component, the *dense index* is
    decomposed in the given mixed radices (most-significant first) and
    each digit one-hot encoded. Workloads whose values are periodic in
    non-decimal radices (e.g. TPC-DS customer_demographics, a cross
    product of its dimension cardinalities) declare those radices so the
    one-hot key encoding exposes the structure the paper's models exploit
    (see DESIGN.md §6).
    """

    lows: tuple[int, ...]
    cards: tuple[int, ...]
    feature_radices: tuple[int, ...] | None = None

    @staticmethod
    def from_columns(df: pd.DataFrame, key_cols: list[str]) -> "KeySpace":
        """Infer the key space from observed key columns (min..max each)."""
        lows, cards = [], []
        for c in key_cols:
            v = df[c].to_numpy()
            lo, hi = int(v.min()), int(v.max())
            lows.append(lo)
            cards.append(hi - lo + 1)
        return KeySpace(tuple(lows), tuple(cards))

    @property
    def size(self) -> int:
        n = 1
        for c in self.cards:
            n *= c
        return n

    @property
    def n_components(self) -> int:
        return len(self.cards)

    @property
    def input_dim(self) -> int:
        """Width of the one-hot digit feature vector."""
        if self.feature_radices is not None:
            return sum(self.feature_radices)
        return sum(_ndigits(c) * 10 for c in self.cards)

    def with_radices(self, radices: tuple[int, ...]) -> "KeySpace":
        prod = 1
        for r in radices:
            prod *= r
        if prod < self.size:
            raise ValueError("feature radices cover less than the key space")
        return KeySpace(self.lows, self.cards, tuple(radices))

    def _check(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        if keys.ndim == 1:
            keys = keys[:, None]
        if keys.shape[1] != self.n_components:
            raise ValueError(
                f"expected {self.n_components} key components, got {keys.shape[1]}"
            )
        return keys

    def dense_index(self, keys: np.ndarray) -> np.ndarray:
        """Map key tuples [n, ncomp] (or [n] for simple keys) to [0, size)."""
        keys = self._check(keys)
        idx = np.zeros(len(keys), dtype=np.int64)
        for i, (lo, card) in enumerate(zip(self.lows, self.cards)):
            off = keys[:, i] - lo
            if (off < 0).any() or (off >= card).any():
                raise ValueError(f"key component {i} out of range [{lo},{lo + card})")
            idx = idx * card + off
        return idx

    def _offsets(self, idx: np.ndarray) -> list[np.ndarray]:
        """Offset of each key component within its range, from dense keys."""
        out = []
        rem = np.asarray(idx, dtype=np.int64)
        for card in self.cards[:0:-1]:
            rem, off = np.divmod(rem, card)
            out.append(off)
        return [rem] + out[::-1]

    def from_dense(self, idx: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`dense_index`; returns [n, ncomp]."""
        return np.stack(self._offsets(idx), axis=1) + np.asarray(self.lows, dtype=np.int64)

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Boolean mask of key tuples that fall inside the domain; a key
        with the wrong number of components raises ``ValueError``."""
        keys = self._check(keys)
        ok = np.ones(len(keys), dtype=bool)
        for i, (lo, card) in enumerate(zip(self.lows, self.cards)):
            ok &= (keys[:, i] >= lo) & (keys[:, i] < lo + card)
        return ok

    def features(self, keys: np.ndarray) -> np.ndarray:
        """One-hot base-10 digit features [n, input_dim], float32.

        Each key component is rendered as fixed-width decimal digits of its
        offset within the component range; each digit becomes a 10-wide
        one-hot block. This is the network's input representation.
        """
        keys = self._check(keys)
        if self.feature_radices is not None:
            return self._features_radix(self.dense_index(keys))
        n = len(keys)
        out = np.zeros((n, self.input_dim), dtype=np.float32)
        col = 0
        rows = np.arange(n)
        for i, (lo, card) in enumerate(zip(self.lows, self.cards)):
            off = keys[:, i] - lo
            nd = _ndigits(card)
            for d in range(nd - 1, -1, -1):
                digit = (off // 10**d) % 10
                out[rows, col + digit] = 1.0
                col += 10
        return out

    def _features_radix(self, dense: np.ndarray) -> np.ndarray:
        radices = self.feature_radices
        n = len(dense)
        out = np.zeros((n, self.input_dim), dtype=np.float32)
        rows = np.arange(n)
        rem = dense.copy()
        col = self.input_dim
        for r in reversed(radices):  # least-significant digit last
            digit = rem % r
            rem //= r
            col -= r
            out[rows, col + digit] = 1.0
        return out

    def _digits(self) -> list[tuple[int, int, int]]:
        """``(source, divisor, radix)`` per one-hot block, in column order:
        the block's digit is ``source // divisor % radix``. The source is a
        key component's offset, or the dense index with ``feature_radices``
        (source 0 either way for simple keys)."""
        if self.feature_radices is not None:
            digits = [(0, r) for r in self.feature_radices]
        else:
            digits = [(i, 10) for i, c in enumerate(self.cards) for _ in range(_ndigits(c))]
        out: list[tuple[int, int, int]] = []
        divisor: dict[int, int] = {}
        for src, r in reversed(digits):  # least significant first
            div = divisor.get(src, 1)
            out.append((src, div, r))
            divisor[src] = div * r
        return out[::-1]

    def _sources(self, idx: np.ndarray) -> list[np.ndarray]:
        """The sources :meth:`_digits` refers to, of dense keys ``idx``."""
        idx = np.asarray(idx, dtype=np.int64)
        return [idx] if self.feature_radices is not None else self._offsets(idx)

    def _runs(self) -> list[tuple[int, int, tuple[int, ...]]]:
        """``(source, divisor, radices)`` per merged block, in column order.

        A merged block is a run of consecutive one-hot blocks (:meth:`_digits`)
        of one source, as long as the product of its radices stays ≤
        ``TABLE_ROWS``. The run's digits, read as one mixed-radix number, are
        ``source // divisor % prod(radices)``.
        """
        runs: list[tuple[int, int, tuple[int, ...]]] = []
        for src, div, r in reversed(self._digits()):
            if runs and runs[-1][0] == src and math.prod(runs[-1][2]) * r <= TABLE_ROWS:
                runs[-1] = (src, runs[-1][1], (r,) + runs[-1][2])
            else:
                runs.append((src, div, (r,)))
        return runs[::-1]

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Radices of each merged block, in column order."""
        return tuple(radices for _, _, radices in self._runs())

    def hot_positions(self, idx: np.ndarray) -> np.ndarray:
        """One-hot features of dense keys in factored form, [n, n_blocks]
        intp: ``hot[i, g]`` is the row-major index of key ``i``'s digits in
        merged block ``g``, whose radices are ``blocks[g]``. Column-major, so
        each block's positions are contiguous."""
        src = self._sources(idx)
        runs = self._runs()
        hot = np.empty((len(src[0]), len(runs)), dtype=np.intp, order="F")
        for g, (s, div, radices) in enumerate(runs):
            np.floor_divide(src[s], div, out=hot[:, g])
            hot[:, g] %= math.prod(radices)
        return hot

    def features_from_dense(self, idx: np.ndarray) -> np.ndarray:
        """:meth:`features` of the keys at dense indices ``idx``: a zero
        matrix with each one-hot block's one written at its digit's column,
        through one flat index per key and block."""
        src = self._sources(idx)
        n = len(src[0])
        out = np.zeros((n, self.input_dim), dtype=np.float32)
        row = np.arange(0, n * self.input_dim, self.input_dim, dtype=np.int64)
        pos = np.empty(n, dtype=np.int64)
        col = 0
        for s, div, r in self._digits():
            np.floor_divide(src[s], div, out=pos)
            pos %= r
            pos += row
            pos += col
            out.ravel()[pos] = 1.0
            col += r
        return out


class LabelCodec:
    """Dictionary encoder for one value column (one entry of ``f_decode``).

    Maps arbitrary hashable column values to contiguous int32 codes
    ``[0, n_classes)`` and back. Fitting sorts the distinct values so the
    code assignment is deterministic for a given data set.
    """

    def __init__(self, values: np.ndarray | pd.Series):
        vals = pd.Series(values)
        cats = pd.unique(vals)
        try:
            cats = np.sort(cats)
        except TypeError:  # mixed types — keep first-seen order
            pass
        self.classes_ = np.asarray(cats)
        self._index = pd.Index(self.classes_)

    @property
    def n_classes(self) -> int:
        return len(self.classes_)

    def encode(self, values: np.ndarray | pd.Series) -> np.ndarray:
        codes = self._index.get_indexer(pd.Series(values))
        if (codes < 0).any():
            raise KeyError("value not present in the fitted dictionary")
        return codes.astype(np.int32)

    def extended(self, values: np.ndarray | pd.Series) -> "LabelCodec":
        """This codec if it knows every one of ``values``; otherwise a copy
        whose dictionary appends the unseen ones. Existing codes keep their
        value and type: the dictionary keeps its dtype when the new values
        are of the same kind, and becomes object dtype when they are not
        (an int column meeting a string)."""
        vals = np.asarray(pd.unique(pd.Series(values)))
        unseen = vals[self._index.get_indexer(vals) < 0]
        if not len(unseen):
            return self
        old = self.classes_
        if unseen.dtype.kind != old.dtype.kind:
            old, unseen = old.astype(object), unseen.astype(object)
        codec = LabelCodec.__new__(LabelCodec)
        codec.__setstate__({"classes_": np.concatenate([old, unseen])})
        return codec

    def decode(self, codes: np.ndarray) -> np.ndarray:
        codes = np.asarray(codes)
        if ((codes < 0) | (codes >= self.n_classes)).any():
            raise IndexError("code out of range for decode map")
        return self.classes_[codes]

    def __getstate__(self):  # the pd.Index is rebuilt on load
        return {"classes_": self.classes_}

    def __setstate__(self, state):
        self.classes_ = state["classes_"]
        self._index = pd.Index(self.classes_)


def decode_map_bytes(codecs: dict[str, LabelCodec]) -> int:
    """Serialized (zlib-compressed pickle) size of ``f_decode`` in bytes."""
    raw = pickle.dumps({k: v.classes_ for k, v in codecs.items()})
    return len(zlib.compress(raw, 6))
