"""Multi-task fully-connected network `M` (paper Sec. IV-A) in numpy.

No NN framework is installed in this container (see DESIGN.md §2), so the
network — a trunk of *shared* dense+ReLU layers feeding one *private*
dense+ReLU stack and softmax output head per value column — is
implemented directly: forward, softmax cross-entropy backward, and Adam.

Training runs on one-hot feature rows, one mini-batch at a time:
:meth:`MultiTaskMLP.fit` takes the rows of a batch as ``x[b]``, from a
matrix or from an object that featurizes the batch's keys when it is
drawn, and no gradient is computed for the features themselves. Batch
inference (:meth:`MultiTaskMLP.predict`) never builds feature rows: the
input arrives in factored form, so the layer that reads it is a sum of a
few rows of tables derived from that layer's weights, and the rest of the
forward pass is float32 matmul with in-place bias and ReLU, ``INFER_BATCH``
keys at a time on the calling thread, in buffers that thread keeps between
calls. :meth:`MultiTaskMLP.logits` is the dense reference the tests compare
it with.

Weights may be *views into a shared weight bank* (MHAS / ENAS parameter
sharing): layers are created through a factory so `mhas.py` can hand out
bank-owned arrays that persist across sampled child models.

The network's only serialized form is its pickle: each layer pickles its
weights and bias and nothing of training, and Eq. 1's size(M) is the
length of the pickled :class:`~repro.core.model.MappingModel` around it.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = ["ArchSpec", "TrainConfig", "MultiTaskMLP", "softmax", "adam_update", "INFER_BATCH"]

INFER_BATCH = 8192  # keys per forward pass at inference; set by measurement


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
LR_DECAY = 0.999  # learning-rate factor per training step


def adam_update(p, g, m, v, lr: float, t: int) -> None:
    """Adam step ``t`` (from 1) of ``p`` along ``g`` (Kingma & Ba, ICLR 2015),
    in place: the moments ``m`` and ``v`` first, then the bias-corrected step."""
    m *= ADAM_BETA1
    m += (1 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1 - ADAM_BETA2) * g * g
    p -= lr * (m / (1 - ADAM_BETA1**t)) / (np.sqrt(v / (1 - ADAM_BETA2**t)) + ADAM_EPS)


@dataclass(frozen=True)
class ArchSpec:
    """Architecture of the multi-task network.

    ``shared``: hidden sizes of the shared trunk (may be empty).
    ``private``: per-task hidden sizes, keyed by value-column name
    (may be empty lists — the head is then a single output layer).
    """

    shared: tuple[int, ...]
    private: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def for_tasks(self, tasks: list[str]) -> "ArchSpec":
        return ArchSpec(
            self.shared, {t: tuple(self.private.get(t, ())) for t in tasks}
        )


@dataclass(frozen=True)
class TrainConfig:
    """Training hyper-parameters (paper Sec. V-A.6, scaled — DESIGN.md §6)."""

    epochs: int = 30
    batch_size: int = 512
    lr: float = 1e-3
    seed: int = 0
    tol: float = 1e-4


class _Dense:
    """One fully-connected layer with optional externally-owned weights."""

    def __init__(self, w: np.ndarray, b: np.ndarray):
        self.w, self.b = w, b
        self.adam: list[np.ndarray] | None = None  # mw, vw, mb, vb

    def __getstate__(self):  # the Adam moments are training state only
        return {"w": self.w, "b": self.b}

    def __setstate__(self, state):
        self.__init__(state["w"], state["b"])

    @staticmethod
    def init(d_in: int, d_out: int, rng: np.random.Generator) -> "_Dense":
        scale = np.sqrt(2.0 / d_in).astype(np.float32)
        w = (rng.standard_normal((d_in, d_out)) * scale).astype(np.float32)
        return _Dense(w, np.zeros(d_out, dtype=np.float32))

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x @ self.w + self.b

    def adam_step(self, gw, gb, lr, t):
        if self.adam is None:
            self.adam = [np.zeros_like(p) for p in (self.w, self.w, self.b, self.b)]
        mw, vw, mb, vb = self.adam
        adam_update(self.w, gw, mw, vw, lr, t)
        adam_update(self.b, gb, mb, vb, lr, t)

    @property
    def nbytes(self) -> int:
        return int(self.w.nbytes + self.b.nbytes)


def _dense_relu(a: np.ndarray, lyr: _Dense) -> np.ndarray:
    z = a @ lyr.w
    z += lyr.b
    return np.maximum(z, 0.0, out=z)


def _argmax_rows(z: np.ndarray) -> np.ndarray:
    """``z.argmax(axis=0)`` for logits ``z`` [classes, keys], as a few
    whole-array passes instead of numpy's per-key loop: the first class
    that holds the maximum carries the largest rank ``k-1-j``. A key with
    no maximum (NaN logits) gets the last class, which stays in range. A
    head with no classes (trained on an empty relation) predicts -1, which
    matches no code, so every key it serves goes to ``T_aux``."""
    k = len(z)
    if k == 0:
        return np.full(z.shape[1], -1)
    rank = np.arange(k - 1, -1, -1, dtype=np.min_scalar_type(k))[:, None]
    return (k - 1) - ((z == z.max(axis=0)) * rank).max(axis=0)


# per calling thread, predict's buffers, kept between calls
_kept = threading.local()


def _buffers(m: int, width: int, n_logits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(z, part, lg)`` buffers for batches of at most ``m`` keys: ``z``
    and ``part`` [m, width], and ``lg`` [n_logits, m]. ``lg`` has no rows
    when no stacked head has a class (a model trained on an empty
    relation), and the matmul into it yields no logits.

    The three are contiguous views into one flat float32 array that the
    calling thread keeps between calls and replaces only when it is too
    small, so two threads never share one. glibc maps buffers of a few MB
    afresh on each allocation while its mmap threshold is low, so
    allocating them per call costs thousands of page faults per lookup.
    """
    # the views start 64 bytes past a multiple of 4 KB from each other: a
    # load at the same offset within 4 KB as a store still in flight waits
    # for it (4K aliasing), which ``z += part`` would hit on every element
    step = -(-(m * width - 16) // 1024) * 1024 + 16
    need = 2 * step + n_logits * m
    a = getattr(_kept, "buf", None)
    if a is None or len(a) < need:
        a = _kept.buf = np.empty(need, np.float32)
    return (
        a[: m * width].reshape(m, width),
        a[step : step + m * width].reshape(m, width),
        a[2 * step : need].reshape(n_logits, m),
    )


class MultiTaskMLP:
    """Shared-trunk / private-head classifier over one-hot key features."""

    def __init__(
        self,
        input_dim: int,
        spec: ArchSpec,
        n_classes: dict[str, int],
        seed: int = 0,
        layer_factory=None,
    ):
        """``layer_factory(scope, slot, d_in, d_out, rng) -> _Dense`` lets
        MHAS substitute bank-shared layers; default creates fresh ones."""
        self.input_dim = input_dim
        self.spec = spec.for_tasks(list(n_classes))
        self.n_classes = dict(n_classes)
        rng = np.random.default_rng(seed)
        mk = layer_factory or (lambda scope, slot, di, do, r: _Dense.init(di, do, r))

        self.shared: list[_Dense] = []
        d = input_dim
        for i, h in enumerate(self.spec.shared):
            self.shared.append(mk("shared", i, d, h, rng))
            d = h

        self.heads: dict[str, list[_Dense]] = {}
        for task, nc in self.n_classes.items():
            layers, di = [], d
            for i, h in enumerate(self.spec.private[task]):
                layers.append(mk(f"private:{task}", i, di, h, rng))
                di = h
            layers.append(mk(f"out:{task}", 0, di, nc, rng))
            self.heads[task] = layers
        self._t = 0  # Adam step counter

    # -- forward -----------------------------------------------------------
    def _trunk(self, x: np.ndarray, keep: bool = False):
        acts = [x]
        h = x
        for lyr in self.shared:
            h = np.maximum(lyr.forward(h), 0.0)
            acts.append(h)
        return (h, acts) if keep else (h, None)

    def logits(self, x: np.ndarray) -> dict[str, np.ndarray]:
        h, _ = self._trunk(x)
        out = {}
        for task, layers in self.heads.items():
            a = h
            for lyr in layers[:-1]:
                a = np.maximum(lyr.forward(a), 0.0)
            out[task] = layers[-1].forward(a)
        return out

    def predict(self, hot: np.ndarray, blocks: tuple[tuple[int, ...], ...]) -> dict[str, np.ndarray]:
        """Argmax class code per task — the paper's ``M.infer`` batch path.

        The input is one-hot features in factored form: the feature columns
        fall into consecutive blocks, block ``g`` spanning one-hot digits of
        radices ``blocks[g]`` (most significant first), and ``hot[i, g]`` is
        the row-major index of key ``i``'s digit combination in block ``g``.
        The layer that reads the features (the first shared layer, or every
        head's first layer when there is no trunk) is therefore a sum of
        table rows plus bias: table ``g`` holds the layer's output for every
        digit combination of block ``g``. The tables are derived from the
        weights here, on every call with keys, and never kept; a call with
        no keys returns empty arrays at once. The logits of the heads
        without private layers come from one stacked matrix. Keys run
        ``INFER_BATCH`` at a time on the calling thread; no key's result
        depends on the others.

        The first-layer and logit buffers are kept by the calling thread
        (:func:`_buffers`), never by the model, so they are not pickled and
        two threads never share them. Allocated per call, they cost
        thousands of minor page faults per 100K-key lookup and a few
        percent of its latency, because glibc maps buffers of this size
        afresh on every allocation.
        """
        if not len(hot):
            return {t: np.empty(0, dtype=np.int32) for t in self.heads}
        first = self.shared[:1] or [layers[0] for layers in self.heads.values()]
        w = np.hstack([lyr.w for lyr in first])
        tables, col = [], 0
        for radices in blocks:
            t = np.zeros((1, w.shape[1]), dtype=np.float32)
            for r in radices:  # every combination of the digits so far
                t = (t[:, None, :] + w[None, col : col + r]).reshape(-1, w.shape[1])
                col += r
            tables.append(t)
        tables[0] += np.concatenate([lyr.b for lyr in first])

        # the first-layer output holds every head's columns without a trunk;
        # with one, the heads with no private layers run as one stacked matmul
        private = [t for t, layers in self.heads.items() if len(layers) > 1]
        direct = [t for t in self.heads if t not in private]
        stacked = direct if self.shared else list(self.heads)
        widths = [len(self.heads[t][0].b) for t in stacked]
        span = {t: slice(e - k, e) for t, k, e in zip(stacked, widths, np.cumsum(widths))}
        if self.shared and direct:
            w_out = np.hstack([self.heads[t][0].w for t in direct]).T
            b_out = np.concatenate([self.heads[t][0].b for t in direct])[:, None]

        n = len(hot)
        out = {t: np.empty(n, dtype=np.int32) for t in self.heads}
        n_logits = len(b_out) if self.shared and direct else 0
        z, part, lg = _buffers(min(n, INFER_BATCH), w.shape[1], n_logits)
        for s in range(0, n, INFER_BATCH):
            e = min(n, s + INFER_BATCH)
            zb = z[: e - s]
            # positions are in range by construction; mode "clip" lets take
            # write straight into ``out`` where "raise" would buffer
            np.take(tables[0], hot[s:e, 0], axis=0, out=zb, mode="clip")
            for g in range(1, len(tables)):
                np.take(tables[g], hot[s:e, g], axis=0, out=part[: e - s], mode="clip")
                zb += part[: e - s]
            if self.shared:
                h = np.maximum(zb, 0.0, out=zb)
                for lyr in self.shared[1:]:
                    h = _dense_relu(h, lyr)
                head_in = {t: (h, self.heads[t]) for t in private}
                if direct:  # logits [classes, keys], as _argmax_rows wants
                    logits = np.matmul(w_out, h.T, out=lg[:, : e - s])
                    logits += b_out
            else:
                head_in = {t: (np.maximum(zb[:, span[t]], 0.0), self.heads[t][1:]) for t in private}
                logits = zb.T
            for t in direct:
                out[t][s:e] = _argmax_rows(logits[span[t]])
            for t, (a, layers) in head_in.items():
                for lyr in layers[:-1]:
                    a = _dense_relu(a, lyr)
                zt = layers[-1].w.T @ a.T
                zt += layers[-1].b[:, None]
                out[t][s:e] = _argmax_rows(zt)
        return out

    # -- training ------------------------------------------------------------
    def train_batch(self, x: np.ndarray, y: dict[str, np.ndarray], lr: float) -> float:
        """One Adam step on summed softmax cross-entropy; returns mean loss.
        The layers that read ``x`` pass no gradient back: nothing learns the
        input features."""
        n = len(x)
        h, acts = self._trunk(x, keep=True)
        self._t += 1
        total_loss = 0.0
        d_trunk = np.zeros_like(h) if self.shared else None

        for task, layers in self.heads.items():
            # head forward with activations kept
            a_list = [h]
            a = h
            for lyr in layers[:-1]:
                a = np.maximum(lyr.forward(a), 0.0)
                a_list.append(a)
            z = layers[-1].forward(a)
            p = softmax(z)
            yt = y[task]
            total_loss += float(-np.log(p[np.arange(n), yt] + 1e-12).mean())
            # backward through the head
            dz = p
            dz[np.arange(n), yt] -= 1.0
            dz /= n
            grad = dz
            for li in range(len(layers) - 1, -1, -1):
                lyr = layers[li]
                a_in = a_list[li]
                gw = a_in.T @ grad
                gb = grad.sum(axis=0)
                d_in = grad @ lyr.w.T if li > 0 or self.shared else None
                if li > 0:
                    d_in *= a_list[li] > 0  # ReLU of this head layer's input
                lyr.adam_step(gw, gb, lr, self._t)
                grad = d_in
            if self.shared:
                d_trunk += grad

        # backward through the shared trunk
        grad = d_trunk
        for li in range(len(self.shared) - 1, -1, -1):
            lyr = self.shared[li]
            grad = grad * (acts[li + 1] > 0)
            gw = acts[li].T @ grad
            gb = grad.sum(axis=0)
            if li > 0:
                grad = grad @ lyr.w.T
            lyr.adam_step(gw, gb, lr, self._t)
        return total_loss

    def fit(
        self, x: np.ndarray, y: dict[str, np.ndarray], cfg: TrainConfig = TrainConfig()
    ) -> list[float]:
        """Mini-batch training; stops early when the loss change < ``cfg.tol``
        (the paper's convergence criterion). Returns per-epoch losses.

        ``x`` is the feature matrix, or anything with ``len(x)`` whose
        ``x[b]`` gives the feature rows of the keys at positions ``b``; each
        batch's rows are read once, when the batch is drawn."""
        rng = np.random.default_rng(cfg.seed)
        n = len(x)
        losses: list[float] = []
        cur_lr = cfg.lr
        for _ in range(cfg.epochs):
            order = rng.permutation(n)
            ep_loss, steps = 0.0, 0
            for s in range(0, n, cfg.batch_size):
                b = order[s : s + cfg.batch_size]
                ep_loss += self.train_batch(x[b], {t: v[b] for t, v in y.items()}, cur_lr)
                steps += 1
                cur_lr *= LR_DECAY
            losses.append(ep_loss / max(1, steps))
            if len(losses) >= 2 and abs(losses[-1] - losses[-2]) < cfg.tol:
                break
        return losses

    # -- size accounting -----------------------------------------------------
    def all_layers(self) -> list[_Dense]:
        out = list(self.shared)
        for layers in self.heads.values():
            out.extend(layers)
        return out

    @property
    def n_params(self) -> int:
        return sum(l.w.size + l.b.size for l in self.all_layers())

    def nbytes_resident(self) -> int:
        """In-memory float32 parameter bytes (what the pool must hold)."""
        return sum(l.nbytes for l in self.all_layers())
