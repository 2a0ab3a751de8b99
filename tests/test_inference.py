"""The inference kernel (`MultiTaskMLP.predict` behind `predict_codes`)
against the dense one-hot reference `MultiTaskMLP.logits`.

The kernel sums first-layer table rows in place of a one-hot matmul, so its
logits differ from the reference in the last float32 bits: it must give the
reference's argmax wherever the top two logits are more than 1e-3 apart.
Build sweep and lookup both run the kernel, so it must also give every key
the same code whatever batch the key runs in, and whatever thread calls it.
"""
import os
import sys
import threading

import numpy as np
import pytest

from repro.core import nn
from repro.core.deepmapping import predict_codes
from repro.core.encoding import KeySpace
from repro.core.model import DIGIT_THRESHOLD, MappingModel
from repro.core.nn import INFER_BATCH, ArchSpec

KEY_SPACES = {
    "decimal": KeySpace((1,), (5000,)),
    "composite": KeySpace((1, 1), (500, 8)),
    "radices": KeySpace((0,), (7 * 11 * 13 * 2,)).with_radices((7, 11, 13, 2)),
}
ARCHS = {
    "trunk": ArchSpec((32,)),
    "deep-trunk-private-head": ArchSpec((16, 8), {"a": (6,)}),
    "no-trunk": ArchSpec(()),
    "no-trunk-private-head": ArchSpec((), {"a": (6, 4)}),
}
CLASSES = {"a": 5, "big": 300, "s": 3}  # "big" has digit heads


def _model(ks: KeySpace, arch: ArchSpec, seed: int = 1) -> MappingModel:
    """A model with random weights and random, non-zero biases."""
    m = MappingModel(ks.input_dim, arch, CLASSES, seed=seed)
    rng = np.random.default_rng(seed)
    for lyr in m.net.all_layers():
        lyr.b[:] = rng.standard_normal(lyr.b.shape).astype(np.float32)
    return m


@pytest.mark.parametrize("arch", ARCHS.values(), ids=ARCHS)
@pytest.mark.parametrize("ks", KEY_SPACES.values(), ids=KEY_SPACES)
def test_argmax_equals_dense_reference(ks, arch):
    m = _model(ks, arch)
    assert CLASSES["big"] > DIGIT_THRESHOLD and m._digits["big"] == 3
    dense = np.random.default_rng(0).permutation(ks.size)
    got = m.net.predict(ks.hot_positions(dense), ks.blocks)
    ref = m.net.logits(ks.features_from_dense(dense))
    assert set(got) == set(ref) == set(m.net.n_classes)
    for t, z in ref.items():
        top2 = np.sort(z, axis=1)[:, -2:]
        clear = top2[:, 1] - top2[:, 0] > 1e-3
        assert clear.mean() > 0.9, t
        assert got[t].dtype == np.int32
        assert (got[t][clear] == z.argmax(axis=1)[clear]).all(), t


@pytest.mark.parametrize("ks", KEY_SPACES.values(), ids=KEY_SPACES)
def test_argmax_ignores_batch_boundaries(ks):
    """Codes over all keys equal the codes computed in batches of 1, 7 and
    INFER_BATCH ± 1, so the kernel's own batching cuts in other places."""
    m = _model(ks, ArchSpec((16,), {"s": (4,)}))
    rng = np.random.default_rng(2)
    dense = rng.integers(0, ks.size, 2 * INFER_BATCH + 3)
    cols = list(CLASSES)
    whole = predict_codes(m, ks, dense, cols)
    for batch in (1, 7, INFER_BATCH - 1, INFER_BATCH + 1):
        n = 3000 if batch == 1 else len(dense)  # one call per key: keep it short
        parts = [predict_codes(m, ks, dense[s : s + batch], cols) for s in range(0, n, batch)]
        for c in cols:
            assert (np.concatenate([p[c] for p in parts]) == whole[c][:n]).all(), (batch, c)


@pytest.mark.parametrize("arch", ARCHS.values(), ids=ARCHS)
def test_empty_batch(arch, monkeypatch):
    """No keys, no inference: every column is an empty int32 array, and
    no buffer is taken."""
    def no_buffers(*args):
        raise AssertionError("inference ran on an empty batch")

    monkeypatch.setattr(nn, "_buffers", no_buffers)
    ks = KEY_SPACES["composite"]
    out = predict_codes(_model(ks, arch), ks, np.empty(0, np.int64), list(CLASSES))
    assert list(out) == list(CLASSES)
    assert all(len(v) == 0 and v.dtype == np.int32 for v in out.values())


def _keys(ks: KeySpace, n: int, seed: int = 3) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, ks.size, n)


@pytest.mark.parametrize("arch", ARCHS.values(), ids=ARCHS)
def test_span_buffers_kept_between_calls(arch):
    """A second call of the same size on one thread runs in the buffer of
    the first, a smaller call reuses it too, and both give the same codes
    as the first."""
    ks = KEY_SPACES["composite"]
    m = _model(ks, arch)
    hot = ks.hot_positions(_keys(ks, 2 * INFER_BATCH + 3))
    first = m.net.predict(hot, ks.blocks)
    kept = nn._kept.buf
    second = m.net.predict(hot, ks.blocks)
    assert nn._kept.buf is kept
    assert all((first[t] == second[t]).all() for t in first)
    small = m.net.predict(hot[:100], ks.blocks)
    assert nn._kept.buf is kept
    assert all((small[t] == first[t][:100]).all() for t in first)


def test_concurrent_callers_get_sequential_codes():
    """More calling threads than cores, each with its own batch size and
    all calling predict at once, get the codes of one sequential call per
    batch and never share a buffer."""
    ks = KEY_SPACES["decimal"]
    m = _model(ks, ARCHS["deep-trunk-private-head"])
    n_threads = len(os.sched_getaffinity(0)) + 1
    sizes = [INFER_BATCH + 5 + 2 * i * INFER_BATCH // n_threads for i in range(n_threads)]
    hots = [ks.hot_positions(_keys(ks, n, seed=n)) for n in sizes]
    want = [m.net.predict(hot, ks.blocks) for hot in hots]
    start = threading.Barrier(n_threads)
    got, kept, errors = [None] * n_threads, [None] * n_threads, []

    def call(i):
        try:
            start.wait()
            for _ in range(3):
                got[i] = m.net.predict(hots[i], ks.blocks)
            kept[i] = nn._kept.buf
        except Exception as e:  # reraised below, on the test's thread
            errors.append(e)

    threads = [threading.Thread(target=call, args=(i,)) for i in range(n_threads)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    for g, w in zip(got, want):
        assert all((g[t] == w[t]).all() for t in w)
    for i in range(n_threads):
        for j in range(i):
            assert not np.shares_memory(kept[i], kept[j])
