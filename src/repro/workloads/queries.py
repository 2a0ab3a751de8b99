"""Lookup workload generation (paper Sec. V-B: batches of B randomly
selected keys, B ∈ {1K, 10K, 100K}; scaled here to {100, 1K, 10K})."""
from __future__ import annotations

import numpy as np
import pandas as pd

__all__ = ["random_key_batch"]


def random_key_batch(
    pdf: pd.DataFrame,
    key_cols: list[str],
    batch_size: int,
    *,
    seed: int = 0,
) -> np.ndarray:
    """Sample ``batch_size`` keys uniformly (with replacement, as random
    point queries do) from the relation's existing keys."""
    rng = np.random.default_rng(seed)
    keys = pdf[list(key_cols)].to_numpy(dtype=np.int64)
    idx = rng.integers(0, len(keys), batch_size)
    return keys[idx]
