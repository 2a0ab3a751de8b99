"""Mapping model: the multi-task network plus value-label codecs shared
by DeepMapping and MHAS.

High-cardinality value columns (e.g. TPC-H ``l_partkey``: millions of
distinct values at the paper's scale) cannot be one softmax head — the
output layer alone would dwarf the data. Like the keys, such values are
decomposed into base-10 digits, one 10-class sub-task per digit
(:class:`MappingModel`); a column's prediction is correct iff every
digit is correct, and any mismatch is repaired by ``T_aux`` exactly as
for direct heads. Low-cardinality columns keep one direct softmax head.

A model is stored as its pickle and nothing else: Eq. 1's size(M) is the
length of that pickle, the same bytes the model adds to the pickled
structure that the Spark path broadcasts.
"""
from __future__ import annotations

import pickle

import numpy as np

from .encoding import KeySpace
from .nn import ArchSpec, MultiTaskMLP, TrainConfig

__all__ = ["TrainConfig", "MappingModel", "train_model"]

# columns with more classes than this get per-digit sub-task heads
DIGIT_THRESHOLD = 64


class MappingModel:
    """Column-level facade over :class:`MultiTaskMLP`.

    ``fit``/``predict`` speak column codes; internally, columns whose
    cardinality exceeds ``DIGIT_THRESHOLD`` are split into base-10 digit
    sub-tasks (named ``col#d<i>``). Private-layer specs given per column
    are applied to each of that column's sub-task heads.
    """

    def __init__(
        self,
        input_dim: int,
        arch: ArchSpec,
        n_classes: dict[str, int],
        seed: int = 0,
        layer_factory=None,
    ):
        self.col_classes = dict(n_classes)
        self._digits: dict[str, int] = {}
        model_classes: dict[str, int] = {}
        private: dict[str, tuple[int, ...]] = {}
        for c, nc in n_classes.items():
            spec = tuple(arch.private.get(c, ()))
            if nc > DIGIT_THRESHOLD:
                nd = len(str(nc - 1))
                self._digits[c] = nd
                for d in range(nd):
                    model_classes[f"{c}#d{d}"] = 10
                    private[f"{c}#d{d}"] = spec
            else:
                self._digits[c] = 0
                model_classes[c] = nc
                private[c] = spec
        self.net = MultiTaskMLP(
            input_dim, ArchSpec(arch.shared, private), model_classes,
            seed=seed, layer_factory=layer_factory,
        )

    # -- label translation ---------------------------------------------------
    def split_labels(self, codes: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        out = {}
        for c, v in codes.items():
            v = np.asarray(v, dtype=np.int64)
            nd = self._digits[c]
            if nd == 0:
                out[c] = v
            else:
                for d in range(nd):
                    out[f"{c}#d{d}"] = (v // 10**d) % 10
        return out

    def predict(self, hot: np.ndarray, blocks: tuple[tuple[int, ...], ...]) -> dict[str, np.ndarray]:
        """Column-level argmax codes (digit heads recombined) of keys given
        as factored one-hot features (:meth:`MultiTaskMLP.predict`)."""
        sub = self.net.predict(hot, blocks)
        out = {}
        for c, nd in self._digits.items():
            if nd == 0:
                out[c] = sub[c]
            else:
                code = np.zeros(len(hot), dtype=np.int64)
                for d in range(nd):
                    code += sub[f"{c}#d{d}"].astype(np.int64) * 10**d
                # recombined digits may form a code outside the dictionary;
                # clip so downstream decode stays in range (such rows are
                # misclassified by construction and live in T_aux)
                out[c] = np.minimum(code, self.col_classes[c] - 1).astype(np.int32)
        return out

    def fit(
        self, x: np.ndarray, codes: dict[str, np.ndarray], cfg: TrainConfig = TrainConfig()
    ) -> list[float]:
        return self.net.fit(x, self.split_labels(codes), cfg)

    # -- delegation -------------------------------------------------------------
    @property
    def input_dim(self) -> int:
        return self.net.input_dim

    @property
    def n_params(self) -> int:
        return self.net.n_params

    def nbytes_resident(self) -> int:
        return self.net.nbytes_resident()

    def nbytes_stored(self) -> int:
        """At-rest size, Eq. 1's size(M): the length of the pickle."""
        return len(pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL))


class _BatchFeatures:
    """The one-hot features of ``dense_keys`` as :meth:`MultiTaskMLP.fit`
    reads them, built one mini-batch at a time: ``x[b]`` is
    ``key_space.features_from_dense(dense_keys[b])``."""

    def __init__(self, key_space: KeySpace, dense_keys: np.ndarray):
        self.key_space, self.dense_keys = key_space, dense_keys

    def __len__(self) -> int:
        return len(self.dense_keys)

    def __getitem__(self, b: np.ndarray) -> np.ndarray:
        return self.key_space.features_from_dense(self.dense_keys[b])


def train_model(
    key_space: KeySpace,
    dense_keys: np.ndarray,
    codes: dict[str, np.ndarray],
    n_classes: dict[str, int],
    arch: ArchSpec,
    cfg: TrainConfig = TrainConfig(),
) -> MappingModel:
    """Train a multi-task mapping model to memorize ``dense_keys -> codes``.

    Each mini-batch's one-hot features are built when the batch is drawn,
    so training holds one batch of them, never the ``[n, input_dim]``
    matrix (46 MB for 200K keys of 60 columns, ~20 GB at the paper's
    SF=10 lineitem). The weights equal those of ``fit`` on the whole
    matrix with the same seed."""
    model = MappingModel(key_space.input_dim, arch, n_classes, seed=cfg.seed)
    model.fit(
        _BatchFeatures(key_space, np.asarray(dense_keys, dtype=np.int64)),
        {c: np.asarray(v, dtype=np.int64) for c, v in codes.items()},
        cfg,
    )
    return model

