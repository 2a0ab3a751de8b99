"""DeepSqueeze (DS) baseline — semantic compression (Ilkhechi et al.,
SIGMOD '20), reimplemented minimally (paper Sec. V-A.3; DESIGN.md §2.7).

An autoencoder maps each row's (normalized) column codes to a small
latent; storage = decoder weights + quantized latents + per-column
correction lists that repair rows whose reconstruction misses the error
bound (for categorical/integer data the bound is exact-match, which is
why DS compresses such data poorly — the paper's observation).

Lookup must *reconstruct* rows through the decoder before a key can be
answered — there is no index — so the whole table is decoded per query
batch. This reproduces DS's orders-of-magnitude latency gap in Table I.
"""
from __future__ import annotations

import pickle
import zlib

import numpy as np

from ..core.encoding import LabelCodec

__all__ = ["DeepSqueezeStore"]

# the autoencoder d -> HIDDEN -> LATENT_DIM -> HIDDEN -> d and its training
LATENT_DIM, HIDDEN = 12, 32
EPOCHS, LR, SEED = 3, 1e-2, 0


def _relu(x):
    return np.maximum(x, 0.0)


class DeepSqueezeStore:
    """Autoencoder-compressed table with exact-match corrections."""

    def __init__(self, *, pool=None):
        """``pool`` (a MemoryPool) charges each query batch the simulated
        device read of the whole stored representation: DS has no
        partition/index structure, so answering any key means loading the
        full compressed table and decoding it through the autoencoder —
        the behaviour behind its huge latencies (and OOMs) in the paper."""
        self.pool = pool
        self.columns: list[str] = []
        self._built = False

    # ------------------------------------------------------------------ build
    def build(self, keys: np.ndarray, values: dict[str, np.ndarray]) -> None:
        rng = np.random.default_rng(SEED)
        self.columns = list(values)
        order = np.argsort(np.asarray(keys, dtype=np.int64), kind="stable")
        self._keys = np.asarray(keys, dtype=np.int64)[order]

        self._codecs = {c: LabelCodec(v) for c, v in values.items()}
        codes = {c: self._codecs[c].encode(np.asarray(v)[order]) for c, v in values.items()}
        self._scales = {c: max(1, self._codecs[c].n_classes - 1) for c in self.columns}
        x = np.stack(
            [codes[c].astype(np.float32) / self._scales[c] for c in self.columns], axis=1
        )
        n, d = x.shape

        # --- train a tiny AE: d -> hidden -> latent -> hidden -> d (MSE) ---
        def init(a, b):
            return (rng.standard_normal((a, b)) * np.sqrt(2.0 / a)).astype(np.float32)

        w1, w2 = init(d, HIDDEN), init(HIDDEN, LATENT_DIM)
        w3, w4 = init(LATENT_DIM, HIDDEN), init(HIDDEN, d)
        b1 = np.zeros(HIDDEN, np.float32)
        b2 = np.zeros(LATENT_DIM, np.float32)
        b3 = np.zeros(HIDDEN, np.float32)
        b4 = np.zeros(d, np.float32)
        bs = 4096
        for _ in range(EPOCHS):
            perm = rng.permutation(n)
            for s in range(0, n, bs):
                xb = x[perm[s : s + bs]]
                h1 = _relu(xb @ w1 + b1)
                z = h1 @ w2 + b2
                h2 = _relu(z @ w3 + b3)
                xr = h2 @ w4 + b4
                g = 2.0 * (xr - xb) / len(xb)
                gw4, gb4 = h2.T @ g, g.sum(0)
                gh2 = (g @ w4.T) * (h2 > 0)
                gw3, gb3 = z.T @ gh2, gh2.sum(0)
                gz = gh2 @ w3.T
                gw2, gb2 = h1.T @ gz, gz.sum(0)
                gh1 = (gz @ w2.T) * (h1 > 0)
                gw1, gb1 = xb.T @ gh1, gh1.sum(0)
                for p, gr in ((w1, gw1), (w2, gw2), (w3, gw3), (w4, gw4),
                              (b1, gb1), (b2, gb2), (b3, gb3), (b4, gb4)):
                    p -= LR * gr
        self._dec = (w3, b3, w4, b4)

        # --- quantize latents to uint8 bins (the paper's quantization) ---
        h1 = _relu(x @ w1 + b1)
        z = h1 @ w2 + b2
        self._zmin = z.min(axis=0)
        zrange = np.maximum(z.max(axis=0) - self._zmin, 1e-9)
        self._zscale = zrange / 255.0
        self._zq = np.clip(np.round((z - self._zmin) / self._zscale), 0, 255).astype(np.uint8)

        # --- exact-match corrections per column (lossless requirement on
        # categorical data → every mis-reconstructed row is stored) ---
        recon = self._decode_all()
        self._corrections = {}
        for j, c in enumerate(self.columns):
            wrong = np.flatnonzero(recon[:, j] != codes[c])
            self._corrections[c] = (wrong.astype(np.int64), codes[c][wrong])
        self._built = True

    def _decode_all(self) -> np.ndarray:
        w3, b3, w4, b4 = self._dec
        z = self._zq.astype(np.float32) * self._zscale + self._zmin
        xr = _relu(z @ w3 + b3) @ w4 + b4
        out = np.empty((len(xr), len(self.columns)), dtype=np.int64)
        for j, c in enumerate(self.columns):
            nc = self._codecs[c].n_classes
            out[:, j] = np.clip(np.round(xr[:, j] * self._scales[c]), 0, nc - 1)
        return out

    # ------------------------------------------------------------------- size
    @property
    def nbytes_disk(self) -> int:
        dec = pickle.dumps(self._dec)
        lat = zlib.compress(self._zq.tobytes(), 6)
        keys = zlib.compress(self._keys.tobytes(), 6)
        corr = zlib.compress(
            pickle.dumps({c: (i, v) for c, (i, v) in self._corrections.items()}), 6
        )
        dicts = zlib.compress(
            pickle.dumps({c: self._codecs[c].classes_ for c in self.columns}), 6
        )
        return len(dec) + len(lat) + len(keys) + len(corr) + len(dicts)

    # ------------------------------------------------------------------ lookup
    def lookup_batch(self, keys: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Reconstruct the table through the decoder, then answer keys:
        ``(found_mask, {col: values of the found keys, in query order})``.

        Reconstruction happens per batch — DS has no partition/index
        structure to load selectively, which is what makes it slow."""
        if not self._built:
            raise RuntimeError("store not built")
        if self.pool is not None:
            self.pool.stats.bytes_read += self.nbytes_disk
            self.pool.simulate_io(self.nbytes_disk)
        recon = self._decode_all()
        for j, c in enumerate(self.columns):
            idx, vals = self._corrections[c]
            recon[idx, j] = vals
        keys = np.asarray(keys, dtype=np.int64)
        pos = np.searchsorted(self._keys, keys)
        pos_c = np.clip(pos, 0, len(self._keys) - 1)
        mask = self._keys[pos_c] == keys
        return mask, {
            c: self._codecs[c].decode(recon[pos_c[mask], j]) for j, c in enumerate(self.columns)
        }
