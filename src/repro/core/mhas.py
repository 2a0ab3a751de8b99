"""Multi-task Hybrid Architecture Search (MHAS) — paper Sec. IV-C, Alg. 2.

ENAS-style [Pham et al. '18] search over the paper's space: up to
``max_shared`` shared hidden layers and up to ``max_private`` private
hidden layers per task, each layer's width chosen from a size grid
(paper: [100, 2000]; scaled here, DESIGN.md §6).

* **Controller** — an LSTM (64 hidden units, as in the paper) sampling
  decisions autoregressively via softmax heads: number of shared layers,
  each shared layer's size, then per task the number and sizes of private
  layers. Trained with REINFORCE against the Eq. 1 objective
  ``(size(M)+size(T_aux)+size(V_exist)+size(f_decode)) / size(D)``
  (reward = −ratio, exponential-moving-average baseline). Implemented in
  numpy (forward + full BPTT) since no NN framework is installed.
* **Eq. 1 score** — :func:`eq1_ratio` is the ratio of the structure
  ``DeepMapping.build_encoded`` makes around a sampled child from the
  relation encoded once per search: its real sweep, ``T_aux``, pickled
  model, ``V_exist`` and ``f_decode``.
* **Shared weight bank** — sampled child models draw their layers from a
  bank keyed by (scope, slot, fan-in, fan-out), so weights persist across
  sampled architectures (ENAS parameter sharing; also the mechanism that
  encourages cross-task layer sharing).
* **Algorithm 2 loop** — alternating model-training iterations (train the
  sampled child on data mini-batches, controller fixed) and controller
  iterations (update θ from sampled-architecture rewards, weights fixed).
"""
from __future__ import annotations

import tempfile
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from .deepmapping import DeepMapping, DeepMappingConfig, encode_relation
from .encoding import KeySpace, LabelCodec
from .model import MappingModel
from .nn import ArchSpec, _Dense, adam_update, softmax

__all__ = ["MHASConfig", "MHASResult", "mhas_search", "WeightBank", "eq1_ratio"]


@dataclass(frozen=True)
class MHASConfig:
    size_grid: tuple[int, ...] = (16, 32, 64, 128, 256)
    max_shared: int = 2  # paper: up to two shared hidden layers
    max_private: int = 2  # paper: up to two private hidden layers per task
    n_iterations: int = 40  # N_t (paper 2000, scaled)
    n_model_train: int = 30  # N_m
    n_controller_train: int = 8  # N_c
    child_epochs: int = 1  # m_epochs per model-training iteration
    child_batch: int = 4096
    child_lr: float = 1e-3
    controller_lr: float = 3.5e-4  # paper Sec. V-A.6
    controller_hidden: int = 64  # paper Sec. V-A.6
    controller_samples: int = 4  # architectures sampled per controller step
    baseline_decay: float = 0.8
    seed: int = 0


@dataclass
class MHASResult:
    best_arch: ArchSpec
    best_ratio: float
    history: list = field(default_factory=list)  # (iteration, ratio, arch)


# --------------------------------------------------------------------------
# shared weight bank (ENAS parameter sharing)
# --------------------------------------------------------------------------
class WeightBank:
    """Layer cache keyed by (scope, slot, d_in, d_out); layers persist and
    keep their Adam state across sampled child models."""

    def __init__(self, seed: int = 0):
        self._bank: dict[tuple, _Dense] = {}
        self._rng = np.random.default_rng(seed)

    def factory(self, scope: str, slot: int, d_in: int, d_out: int, rng) -> _Dense:
        key = (scope, slot, d_in, d_out)
        if key not in self._bank:
            self._bank[key] = _Dense.init(d_in, d_out, self._rng)
        return self._bank[key]

    def __len__(self) -> int:
        return len(self._bank)


# --------------------------------------------------------------------------
# Eq. 1 objective
# --------------------------------------------------------------------------
def eq1_ratio(
    model: MappingModel,
    encoded: tuple[np.ndarray, dict[str, LabelCodec], dict[str, np.ndarray]],
    key_cols: list[str], data_bytes: int, *, config: DeepMappingConfig, key_space: KeySpace,
) -> float:
    """Eq. 1 of the structure ``DeepMapping.build_encoded`` makes around
    ``model`` over the whole relation (as :func:`encode_relation` encoded it
    over ``key_space``), in a temporary directory removed once the structure
    is sized. ``data_bytes`` is size(D)."""
    with tempfile.TemporaryDirectory(prefix="mhas-") as workdir:
        dm = DeepMapping.build_encoded(
            encoded, key_space, key_cols, config, workdir=workdir, model=model,
        )
        return dm.compression_ratio(data_bytes)


# --------------------------------------------------------------------------
# LSTM controller (numpy, REINFORCE)
# --------------------------------------------------------------------------
def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


class LSTMController:
    """Autoregressive architecture sampler.

    Decision types: ``('n', k)`` — how many layers (choices 0..k) — and
    ``('size', g)`` — which width from the grid. Each step feeds the
    embedding of the previous decision into the LSTM and samples the next
    decision from a per-type softmax head.
    """

    EMB = 24

    def __init__(self, cfg: MHASConfig, seed: int = 0):
        self.cfg = cfg
        H, E = cfg.controller_hidden, self.EMB
        rng = np.random.default_rng(seed)
        # paper: parameters initialized uniformly-ish around 0 (N(0, 0.05^2))
        def init(*shape):
            return (rng.standard_normal(shape) * 0.05).astype(np.float64)

        self.params: dict[str, np.ndarray] = {
            "Wx": init(E, 4 * H),
            "Wh": init(H, 4 * H),
            "b": np.zeros(4 * H),
            "start": init(E),
        }
        self._types: dict[str, int] = {  # type name -> n_choices
            "n_layers": max(cfg.max_shared, cfg.max_private) + 1,
            "size": len(cfg.size_grid),
        }
        for name, n in self._types.items():
            self.params[f"emb:{name}"] = init(n, E)
            self.params[f"Wo:{name}"] = init(self.cfg.controller_hidden, n)
            self.params[f"bo:{name}"] = np.zeros(n)
        self._adam = {k: (np.zeros_like(v), np.zeros_like(v)) for k, v in self.params.items()}
        self._t = 0
        self.baseline: float | None = None

    # -- one forward pass, sampling a full decision sequence ---------------
    def sample(self, n_tasks: int, rng: np.random.Generator, greedy: bool = False):
        """Returns (decisions, cache). ``decisions`` is a flat list of
        (type, choice); ``cache`` holds everything BPTT needs."""
        H = self.cfg.controller_hidden
        h = np.zeros(H)
        c = np.zeros(H)
        x = self.params["start"]
        steps = []  # per step: dict of forward tensors
        decisions: list[tuple[str, int]] = []

        def step(dtype: str, max_choice: int | None = None) -> int:
            nonlocal h, c, x
            z = x @ self.params["Wx"] + h @ self.params["Wh"] + self.params["b"]
            i, f, g, o = (
                _sigmoid(z[:H]),
                _sigmoid(z[H : 2 * H]),
                np.tanh(z[2 * H : 3 * H]),
                _sigmoid(z[3 * H :]),
            )
            c_new = f * c + i * g
            h_new = o * np.tanh(c_new)
            logits = h_new @ self.params[f"Wo:{dtype}"] + self.params[f"bo:{dtype}"]
            p = softmax(logits[None, :])[0]
            if max_choice is not None:  # e.g. n_private capped below n_layers max
                mask = np.zeros_like(p)
                mask[: max_choice + 1] = 1
                p = p * mask
                p = p / p.sum()
            choice = int(p.argmax()) if greedy else int(rng.choice(len(p), p=p))
            steps.append(
                dict(dtype=dtype, x=x, h_prev=h, c_prev=c, i=i, f=f, g=g, o=o,
                     c=c_new, h=h_new, p=p, choice=choice)
            )
            decisions.append((dtype, choice))
            h, c = h_new, c_new
            x = self.params[f"emb:{dtype}"][choice]
            return choice

        n_shared = step("n_layers", self.cfg.max_shared)
        for _ in range(n_shared):
            step("size")
        for _ in range(n_tasks):
            n_priv = step("n_layers", self.cfg.max_private)
            for _ in range(n_priv):
                step("size")
        return decisions, steps

    def decisions_to_arch(self, decisions, tasks: list[str]) -> ArchSpec:
        grid = self.cfg.size_grid
        it = iter(decisions)
        n_shared = next(it)[1]
        shared = tuple(grid[next(it)[1]] for _ in range(n_shared))
        private = {}
        for t in tasks:
            n_priv = next(it)[1]
            private[t] = tuple(grid[next(it)[1]] for _ in range(n_priv))
        return ArchSpec(shared, private)

    # -- REINFORCE update over a set of sampled sequences --------------------
    def update(self, traces: list[tuple[list[dict], float]]) -> None:
        """``traces`` = [(steps, reward)]. Minimizes −E[advantage·log π]."""
        grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        H = self.cfg.controller_hidden
        for steps, reward in traces:
            if self.baseline is None:
                self.baseline = reward
            adv = reward - self.baseline
            self.baseline = (
                self.cfg.baseline_decay * self.baseline
                + (1 - self.cfg.baseline_decay) * reward
            )
            dh_next = np.zeros(H)
            dc_next = np.zeros(H)
            dx_next = np.zeros(self.EMB)  # grad wrt the embedding fed forward
            for t in range(len(steps) - 1, -1, -1):
                s = steps[t]
                # output-head gradient: d(−adv·log p[choice])/dlogits
                dlogit = s["p"].copy()
                dlogit[s["choice"]] -= 1.0
                dlogit *= adv
                grads[f"Wo:{s['dtype']}"] += np.outer(s["h"], dlogit)
                grads[f"bo:{s['dtype']}"] += dlogit
                dh = dlogit @ self.params[f"Wo:{s['dtype']}"].T + dh_next
                # the embedding of this step's choice was the *next* step's x
                if t + 1 < len(steps):
                    grads[f"emb:{s['dtype']}"][s["choice"]] += dx_next
                # LSTM cell backward
                do = dh * np.tanh(s["c"])
                dct = dh * s["o"] * (1 - np.tanh(s["c"]) ** 2) + dc_next
                di = dct * s["g"]
                dg = dct * s["i"]
                df = dct * s["c_prev"]
                dc_next = dct * s["f"]
                dz = np.concatenate(
                    [
                        di * s["i"] * (1 - s["i"]),
                        df * s["f"] * (1 - s["f"]),
                        dg * (1 - s["g"] ** 2),
                        do * s["o"] * (1 - s["o"]),
                    ]
                )
                grads["Wx"] += np.outer(s["x"], dz)
                grads["Wh"] += np.outer(s["h_prev"], dz)
                grads["b"] += dz
                dx_next = dz @ self.params["Wx"].T
                dh_next = dz @ self.params["Wh"].T
            grads["start"] += dx_next  # x at t=0 is the start token
        self._adam_step(grads, scale=1.0 / max(1, len(traces)))

    def _adam_step(self, grads, scale=1.0):
        self._t += 1
        for k, p in self.params.items():
            m, v = self._adam[k]
            adam_update(p, grads[k] * scale, m, v, self.cfg.controller_lr, self._t)


# --------------------------------------------------------------------------
# Algorithm 2
# --------------------------------------------------------------------------
def mhas_search(
    df: pd.DataFrame,
    key_cols: list[str],
    value_cols: list[str],
    data_bytes: int,
    cfg: MHASConfig = MHASConfig(),
    *,
    config: DeepMappingConfig = DeepMappingConfig(),
    key_space: KeySpace | None = None,
) -> MHASResult:
    """Run the MHAS loop over a relation and return the best architecture
    found. Children are scored by :func:`eq1_ratio` with ``config``;
    ``data_bytes`` is size(D). The returned architecture is then trained
    from scratch by ``DeepMapping.build`` (post-search fine-tuning)."""
    tasks = list(value_cols)
    key_space = key_space or KeySpace.from_columns(df, key_cols)
    encoded = encode_relation(df, key_space, key_cols, value_cols)
    dense_keys, codecs, codes = encoded
    n_classes = {c: codecs[c].n_classes for c in tasks}
    rng = np.random.default_rng(cfg.seed)
    bank = WeightBank(seed=cfg.seed)
    controller = LSTMController(cfg, seed=cfg.seed)
    n = len(dense_keys)

    def make_child(arch: ArchSpec) -> MappingModel:
        return MappingModel(
            key_space.input_dim, arch, n_classes, seed=cfg.seed, layer_factory=bank.factory
        )

    def ratio_of(model: MappingModel) -> float:
        return eq1_ratio(
            model, encoded, key_cols, data_bytes, config=config, key_space=key_space
        )

    result = MHASResult(best_arch=ArchSpec((cfg.size_grid[0],), {}), best_ratio=np.inf)
    every_m = max(1, cfg.n_iterations // max(1, cfg.n_model_train))
    every_c = max(1, cfg.n_iterations // max(1, cfg.n_controller_train))

    for it in range(1, cfg.n_iterations + 1):
        if it % every_m == 0:  # model-training iteration (θ fixed)
            decisions, _ = controller.sample(len(tasks), rng)
            arch = controller.decisions_to_arch(decisions, tasks)
            child = make_child(arch)
            for _ in range(cfg.child_epochs):
                order = rng.permutation(n)
                for s in range(0, n, cfg.child_batch):
                    b = order[s : s + cfg.child_batch]
                    child.net.train_batch(
                        key_space.features_from_dense(dense_keys[b]),
                        child.split_labels({c: v[b] for c, v in codes.items()}),
                        cfg.child_lr,
                    )
        if it % every_c == 0:  # controller-training iteration (W fixed)
            traces = []
            for _ in range(cfg.controller_samples):
                decisions, steps = controller.sample(len(tasks), rng)
                arch = controller.decisions_to_arch(decisions, tasks)
                r = ratio_of(make_child(arch))
                result.history.append((it, r, arch))
                if r < result.best_ratio:
                    result.best_ratio, result.best_arch = r, arch
                traces.append((steps, -r))  # reward = −Eq.1 ratio
            controller.update(traces)

    # final greedy sample — often the converged architecture
    decisions, _ = controller.sample(len(tasks), rng, greedy=True)
    arch = controller.decisions_to_arch(decisions, tasks)
    r = ratio_of(make_child(arch))
    result.history.append((cfg.n_iterations, r, arch))
    if r < result.best_ratio:
        result.best_ratio, result.best_arch = r, arch
    return result
