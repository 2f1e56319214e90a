"""Two-architecture separation experiment for categorical-feature lookups.

The task: inputs (u, q) where u indexes a fixed random feature table and q
is a continuous vector; the target score is the dot product of the table
row with a fixed nonlinear transform of q, realizable by a ReLU MLP of
width d. One trained architecture feeds the u-embedding only at the input
(mixed with q by gated summation); the other additionally reads a second
u-embedding at the output layer, scoring by a dot product with the network
state. At width d the latter can represent the target exactly; the former
has to carry both streams through the same width-d trunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, no_grad
from .reporting import write_csv
from .train import AdamState, DivergenceError, checked_step

ARCHITECTURES = ("input_only", "per_layer")


@dataclass(frozen=True)
class SeparationConfig:
    d: int = 16
    u_count: int = 64
    depth: int = 2
    width: int = 16
    architecture: str = "input_only"
    train_size: int = 4096
    test_size: int = 1024
    steps: int = 1500
    batch: int = 32
    learning_rate: float = 1e-2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"architecture must be one of {ARCHITECTURES}")
        if min(self.d, self.u_count, self.depth, self.width, self.train_size,
               self.test_size, self.steps, self.batch) < 1:
            raise ValueError("all sizes must be positive")


@dataclass
class GroundTruth:
    """Fixed feature table and the fixed deep transform defining the score."""

    table: np.ndarray              # (u_count, d), unit rows
    weights: list[np.ndarray]      # depth matrices (d, d)
    biases: list[np.ndarray]       # depth vectors (d,)

    @classmethod
    def build(cls, d: int, u_count: int, depth: int, seed) -> "GroundTruth":
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
        table = rng.standard_normal((u_count, d))
        table /= np.linalg.norm(table, axis=1, keepdims=True)
        weights = [rng.standard_normal((d, d)) / np.sqrt(d) for _ in range(depth)]
        biases = [0.1 * rng.standard_normal(d) for _ in range(depth)]
        return cls(table=table, weights=weights, biases=biases)

    def transform(self, q: np.ndarray) -> np.ndarray:
        """Apply the fixed ReLU network to rows of q."""
        h = q
        for w, b in zip(self.weights, self.biases):
            h = np.maximum(h @ w + b, 0.0)
        return h

    def score(self, u: np.ndarray, q: np.ndarray) -> np.ndarray:
        return np.einsum("bd,bd->b", self.table[u], self.transform(q))


@dataclass
class SeparationNet:
    """Trainable network; per_layer adds an output-side embedding table."""

    config: SeparationConfig
    in_table: Tensor              # (u_count, width)
    q_proj: Tensor                # (d, width)
    gate_u: Tensor                # scalar
    gate_q: Tensor                # scalar
    weights: list[Tensor]         # depth matrices (width, width)
    biases: list[Tensor]          # depth vectors (width,)
    out_vec: Tensor | None        # (width,) for input_only
    out_table: Tensor | None      # (u_count, width) for per_layer

    @classmethod
    def build(cls, config: SeparationConfig) -> "SeparationNet":
        h, d, nu = config.width, config.d, config.u_count
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(1,)))

        def draw(shape, fan):
            return Tensor(rng.standard_normal(shape) / np.sqrt(fan), requires_grad=True)

        weights = [draw((h, h), h) for _ in range(config.depth)]
        biases = [Tensor(np.zeros(h), requires_grad=True) for _ in range(config.depth)]
        out_vec = out_table = None
        if config.architecture == "input_only":
            out_vec = draw((h,), h)
        else:
            out_table = draw((nu, h), h)
        return cls(config=config, in_table=draw((nu, h), h), q_proj=draw((d, h), d),
                   gate_u=Tensor(np.ones(1), requires_grad=True),
                   gate_q=Tensor(np.ones(1), requires_grad=True),
                   weights=weights, biases=biases, out_vec=out_vec, out_table=out_table)

    def parameters(self) -> dict[str, Tensor]:
        out = {"in_table": self.in_table, "q_proj": self.q_proj,
               "gate_u": self.gate_u, "gate_q": self.gate_q}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"w{i}"] = w
            out[f"b{i}"] = b
        if self.out_vec is not None:
            out["out_vec"] = self.out_vec
        if self.out_table is not None:
            out["out_table"] = self.out_table
        return out

    def forward(self, u: np.ndarray, q: np.ndarray) -> Tensor:
        """Predicted scores for a batch: u int (B,), q float (B, d)."""
        z = self.gate_u * self.in_table.take(u) + self.gate_q * (Tensor(q) @ self.q_proj)
        h = z
        for w, b in zip(self.weights, self.biases):
            h = (h @ w + b).relu()
        if self.config.architecture == "input_only":
            return h @ self.out_vec
        return (h * self.out_table.take(u)).sum(axis=1)

    def mse(self, u: np.ndarray, q: np.ndarray, target: np.ndarray) -> Tensor:
        diff = self.forward(u, q) - Tensor(target)
        return (diff * diff).mean()

    def copy_oracle(self, truth: GroundTruth) -> None:
        """Install the exact solution (per_layer at width d only)."""
        cfg = self.config
        if cfg.architecture != "per_layer" or cfg.width != cfg.d:
            raise ValueError("oracle weights exist only for per_layer at width d")
        if len(truth.weights) != cfg.depth:
            raise ValueError("depth mismatch with the ground truth")
        self.gate_u.data[:] = 0.0
        self.gate_q.data[:] = 1.0
        self.q_proj.data[:] = np.eye(cfg.d)
        for w, b, tw, tb in zip(self.weights, self.biases, truth.weights, truth.biases):
            w.data[:] = tw
            b.data[:] = tb
        self.out_table.data[:] = truth.table


def make_dataset(truth: GroundTruth, size: int, d: int, u_count: int,
                 seed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    u = rng.integers(0, u_count, size=size)
    q = rng.standard_normal((size, d))
    return u, q, truth.score(u, q)


def train_separation(config: SeparationConfig) -> dict:
    """Train one cell; returns final train/test MSE (plus the target variance)."""
    truth = GroundTruth.build(config.d, config.u_count, config.depth, config.seed)
    ss = np.random.SeedSequence(entropy=config.seed, spawn_key=(2,))
    s_train, s_test, s_batch = ss.spawn(3)
    u_tr, q_tr, y_tr = make_dataset(truth, config.train_size, config.d,
                                    config.u_count, s_train)
    u_te, q_te, y_te = make_dataset(truth, config.test_size, config.d,
                                    config.u_count, s_test)
    net = SeparationNet.build(config)
    opt = AdamState(net.parameters(), config.learning_rate)
    rng = np.random.default_rng(s_batch)
    for step in range(config.steps):
        idx = rng.integers(0, config.train_size, size=config.batch)
        checked_step(opt, lambda: net.mse(u_tr[idx], q_tr[idx], y_tr[idx]), step)
    with no_grad():
        train_mse = float(net.mse(u_tr, q_tr, y_tr).data)
        test_mse = float(net.mse(u_te, q_te, y_te).data)
    if not (math.isfinite(train_mse) and math.isfinite(test_mse)):
        raise DivergenceError(f"training diverged: readout after step {config.steps}: "
                              f"train MSE {train_mse}, test MSE {test_mse}")
    return {
        "architecture": config.architecture, "width": config.width,
        "seed": config.seed, "train_mse": train_mse, "test_mse": test_mse,
        "target_variance": float(np.var(y_te)),
    }


SEPARATION_COLUMNS = ("architecture", "width", "seed", "train_mse", "test_mse",
                      "target_variance")


def run_separation_experiment(d: int, u_count: int, depth: int, seeds: tuple[int, ...],
                              steps: int, train_size: int, out_path) -> list[dict]:
    """Both architectures at widths {d, 2d} across seeds; rows sorted stably
    and written as a CSV to `out_path`."""
    if not seeds:
        raise ValueError("need at least one seed")
    cells = [
        SeparationConfig(d=d, u_count=u_count, depth=depth, width=w,
                         architecture=arch, steps=steps, train_size=train_size,
                         seed=s)
        for arch in ARCHITECTURES
        for w in (d, 2 * d)
        for s in seeds
    ]
    rows = [train_separation(cell) for cell in cells]
    rows.sort(key=lambda r: (r["architecture"], r["width"], r["seed"]))
    write_csv(out_path, SEPARATION_COLUMNS, rows)
    return rows
