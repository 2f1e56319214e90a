"""Training harness: Markov-corpus next-token modeling, Adam/SGD, periodic
evaluation, deterministic metrics, checkpointing, and the lookup sweep.

Everything a run emits is reproducible byte-for-byte from the seed except
wall-clock speed, which goes to a separate sidecar file the determinism
contract does not cover.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .autodiff import NonFiniteError, Tensor, no_grad
from .checkpoint import save_checkpoint
from .config import ExperimentConfig, format_config
from .lookup import partial_expert_param_count
from .markov import markov_entropy_rate, random_transition_matrix, sample_markov
from .model import LanguageModel, count_params
from .reporting import write_csv


class DivergenceError(RuntimeError):
    """Raised when the training loss stops being finite."""


@dataclass
class MetricsRow:
    step: int
    train_loss: float
    eval_loss: float
    eval_accuracy: float
    examples_per_sec: float
    embedding_params: int
    non_embedding_params: int


METRICS_COLUMNS = ("step", "train_loss", "eval_loss", "eval_accuracy",
                   "embedding_params", "non_embedding_params")


class AdamState:
    """Adam that skips a parameter with no gradient, and skips the rows of a
    `rowwise` parameter (a stack of independent experts) that received none."""

    def __init__(self, params: dict[str, Tensor], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
                 rowwise: Iterable[str] = ()):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.rowwise = frozenset(rowwise)

    def step(self, params: dict[str, Tensor]) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        scale = self.lr * math.sqrt(1 - b2 ** self.t) / (1 - b1 ** self.t)
        for k, p in params.items():
            if p.grad is None:
                continue
            rows = p.grad_rows if k in self.rowwise and p.grad_rows is not None else slice(None)
            g, m, v = p.grad[rows], self.m[k], self.v[k]
            m[rows] = b1 * m[rows] + (1 - b1) * g
            v[rows] = b2 * v[rows] + (1 - b2) * g * g
            p.data[rows] -= scale * m[rows] / (np.sqrt(v[rows]) + self.eps)


class SgdState:
    def __init__(self, params: dict[str, Tensor], lr: float):
        self.lr = lr

    def step(self, params: dict[str, Tensor]) -> None:
        for p in params.values():
            if p.grad is not None:
                p.data -= self.lr * p.grad


def load_token_file(path: str | Path, vocab: int) -> np.ndarray:
    """Whitespace-separated token ids; values must lie in [0, vocab)."""
    tokens = np.loadtxt(path, dtype=np.int64).reshape(-1)
    if tokens.size == 0:
        raise ValueError(f"corpus file {path} holds no tokens")
    if tokens.min() < 0 or tokens.max() >= vocab:
        raise ValueError(f"corpus file {path} has ids outside [0, {vocab})")
    return tokens


class Trainer:
    """Owns one model, its corpus, and the optimizer; drives seeded steps."""

    def __init__(self, config: ExperimentConfig):
        config.validate()
        self.config = config
        tr = config.training
        seed = tr.seed
        if tr.corpus_file:
            stream = load_token_file(tr.corpus_file, config.model.vocab)
            if stream.size < tr.eval_tokens + config.model.seq_len + 1:
                raise ValueError("corpus file too short for the eval split")
            self.entropy_rate = float("nan")  # unknown for external corpora
            self.train_tokens = stream[: stream.size - tr.eval_tokens]
            self.eval_tokens = stream[stream.size - tr.eval_tokens:]
        else:
            transitions = random_transition_matrix(
                config.model.vocab,
                np.random.SeedSequence(entropy=seed, spawn_key=(10,)))
            self.entropy_rate = markov_entropy_rate(transitions)
            self.train_tokens = sample_markov(
                transitions, tr.corpus_length,
                np.random.SeedSequence(entropy=seed, spawn_key=(11,)))
            self.eval_tokens = sample_markov(
                transitions, tr.eval_tokens,
                np.random.SeedSequence(entropy=seed, spawn_key=(12,)))
        self.model = LanguageModel.build(config)
        self.params = self.model.parameters()
        if tr.optimizer == "adam":
            self.opt = AdamState(self.params, tr.learning_rate,
                                 rowwise=self.model.memory_parameters())
        else:
            self.opt = SgdState(self.params, tr.learning_rate)
        self.batch_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(13,)))
        self.jitter_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(14,)))
        self.step_count = 0

    def sample_batch(self) -> np.ndarray:
        window = self.config.model.seq_len + 1
        max_start = len(self.train_tokens) - window
        starts = self.batch_rng.integers(0, max_start + 1, size=self.config.training.batch)
        return np.stack([self.train_tokens[s: s + window] for s in starts])

    def batch_loss(self, batch: np.ndarray, train_mode: bool) -> Tensor:
        """Mean loss over every token of a (B, seq+1) batch, as one graph."""
        return self.model.sequence_loss(batch, train_mode=train_mode,
                                        rng=self.jitter_rng if train_mode else None)

    def step(self, batch: np.ndarray | None = None) -> float:
        """One optimizer step; returns the training loss in nats/token."""
        if batch is None:
            batch = self.sample_batch()
        for p in self.params.values():
            p.zero_grad()
        try:
            loss = self.batch_loss(batch, train_mode=True)
            loss.backward()
        except NonFiniteError as exc:
            raise DivergenceError(
                f"training diverged at step {self.step_count}: {exc}") from exc
        self.opt.step(self.params)
        self.step_count += 1
        return float(loss.data)

    def evaluate(self) -> tuple[float, float, float]:
        """(loss, accuracy, loss stderr) on fixed held-out windows, jitter-free;
        all windows run as one batch, with no gradient graph."""
        window = self.config.model.seq_len + 1
        count = len(self.eval_tokens) // window
        windows = self.eval_tokens[: count * window].reshape(count, window)
        targets = windows[:, 1:]
        with no_grad():
            logits = self.model.forward(windows[:, :-1])
            logprobs = logits.log_softmax(axis=-1).data
        losses = -np.take_along_axis(logprobs, targets[..., None], axis=-1).reshape(-1)
        correct = int(np.sum(np.argmax(logits.data, axis=-1) == targets))
        stderr = float(losses.std(ddof=1) / math.sqrt(losses.size)) if losses.size > 1 else 0.0
        return float(losses.mean()), correct / losses.size, stderr


def train_model(config: ExperimentConfig, out_dir: str | Path | None = None,
                ) -> tuple[list[MetricsRow], Trainer]:
    """Train one config to completion, emitting metrics CSV and a checkpoint."""
    trainer = Trainer(config)
    out = Path(out_dir if out_dir is not None else config.io.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    emb, non_emb = count_params(trainer.model)
    interval = config.io.checkpoint_interval
    rows: list[MetricsRow] = []
    examples_done = 0
    seq_len = config.model.seq_len
    eval_pass_tokens = len(trainer.eval_tokens) // (seq_len + 1) * seq_len
    eval_tokens_done, eval_seconds = 0, 0.0
    t_start = time.perf_counter()
    for step in range(1, config.training.steps + 1):
        train_loss = trainer.step()
        examples_done += config.training.batch
        if step % interval == 0 or step == config.training.steps:
            t_eval = time.perf_counter()
            eval_loss, eval_acc, _ = trainer.evaluate()
            eval_seconds += time.perf_counter() - t_eval
            eval_tokens_done += eval_pass_tokens
            elapsed = max(time.perf_counter() - t_start, 1e-9)
            rows.append(MetricsRow(
                step=step, train_loss=train_loss, eval_loss=eval_loss,
                eval_accuracy=eval_acc, examples_per_sec=examples_done / elapsed,
                embedding_params=emb, non_embedding_params=non_emb))
    write_csv(out / "metrics.csv", METRICS_COLUMNS, [
        {"step": r.step, "train_loss": r.train_loss, "eval_loss": r.eval_loss,
         "eval_accuracy": r.eval_accuracy, "embedding_params": r.embedding_params,
         "non_embedding_params": r.non_embedding_params}
        for r in rows
    ])
    # wall-clock speed is intentionally outside the deterministic CSV
    with open(out / "speed.txt", "w") as fh:
        final_speed = rows[-1].examples_per_sec if rows else 0.0
        fh.write(f"examples_per_sec {final_speed:.3f}\n")
        fh.write(f"eval_tokens_per_sec {eval_tokens_done / max(eval_seconds, 1e-9):.3f}\n")
    (out / "config.txt").write_text(format_config(config))
    save_checkpoint(out / "checkpoint.smlb",
                    {k: v.data for k, v in trainer.params.items()})
    return rows, trainer


BENCH_COLUMNS = ("lookup", "rank", "buckets", "added_params", "added_params_full",
                 "final_train_loss", "final_eval_loss", "final_eval_accuracy", "seed")


def run_lookup_benchmark(grid: list[tuple[str, int, int]],
                         base_config: ExperimentConfig,
                         out_dir: str | Path) -> list[dict]:
    """Train one model per (lookup, rank, buckets) cell; rows sorted by the key."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def run_cell(cell: tuple[str, int, int]) -> dict:
        kind, rank, buckets = cell
        cfg = copy.deepcopy(base_config)
        cfg.memory.lookup = kind
        cfg.memory.rank = rank
        cfg.memory.buckets = buckets
        cfg.validate()
        cell_dir = out / f"{kind}_r{rank}_b{buckets}"
        rows, trainer = train_model(cfg, cell_dir)
        comparison, full = partial_expert_param_count(
            rank, buckets if kind != "token_id" else cfg.model.vocab, cfg.model.d)
        last = rows[-1]
        return {
            "lookup": kind, "rank": rank, "buckets": buckets,
            "added_params": comparison, "added_params_full": full,
            "final_train_loss": last.train_loss, "final_eval_loss": last.eval_loss,
            "final_eval_accuracy": last.eval_accuracy,
            "seed": cfg.training.seed,
        }

    results = [run_cell(cell) for cell in grid]
    results.sort(key=lambda r: (r["lookup"], r["rank"], r["buckets"]))
    write_csv(out / "route_bench.csv", BENCH_COLUMNS, results)
    return results
