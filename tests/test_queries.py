"""Tests for lookup workload generation (repro.workloads.queries)."""
import numpy as np
import pandas as pd

from repro.workloads.queries import random_key_batch

PDF = pd.DataFrame({"k1": np.arange(1, 101), "k2": np.arange(1, 101) % 7 + 1})


def test_batch_size():
    b = random_key_batch(PDF, ["k1"], 37, seed=0)
    assert b.shape == (37, 1)


def test_keys_exist_by_default():
    b = random_key_batch(PDF, ["k1"], 50, seed=1)
    assert np.isin(b[:, 0], PDF["k1"]).all()


def test_composite_keys_sampled_rowwise():
    b = random_key_batch(PDF, ["k1", "k2"], 50, seed=2)
    valid = set(zip(PDF["k1"], PDF["k2"]))
    assert all(tuple(r) in valid for r in b)


def test_deterministic_seed():
    a = random_key_batch(PDF, ["k1"], 10, seed=9)
    b = random_key_batch(PDF, ["k1"], 10, seed=9)
    assert (a == b).all()

