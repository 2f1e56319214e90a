"""Training harness: Markov-corpus next-token modeling, Adam/SGD, periodic
evaluation, deterministic metrics, checkpointing, and the lookup sweep.

Everything a run emits is reproducible byte-for-byte from the seed except
wall-clock speed, which goes to a separate sidecar file the determinism
contract does not cover.
"""

from __future__ import annotations

import copy
import ctypes
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .autodiff import NonFiniteError, Tensor, _log_softmax, checked, no_grad
from .checkpoint import save_checkpoint
from .config import ExperimentConfig, format_config
from .lookup import partial_expert_param_count
from .markov import markov_entropy_rate, random_transition_matrix, sample_markov
from .model import LanguageModel, count_params
from .reporting import write_csv


class DivergenceError(RuntimeError):
    """Raised when a training step or an eval pass stops being finite."""


METRICS_COLUMNS = ("step", "train_loss", "eval_loss", "eval_accuracy",
                   "embedding_params", "non_embedding_params")


class FlatParameters:
    """Every parameter laid out as a view into one float64 vector, `data`, in
    the mapping's order (the checkpoint's payload order), and each tensor's
    gradient written into the matching view of a second vector, `grad`.

    A parameter that gets no gradient in a step keeps its last one in `grad`;
    `update_mask` leaves such entries out.
    """

    def __init__(self, params: dict[str, Tensor]):
        self.names = list(params)
        self.tensors = list(params.values())
        if len({id(t) for t in self.tensors}) != len(self.tensors):
            raise ValueError("a parameter appears under two names")
        bounds = np.cumsum([0] + [t.size for t in self.tensors]).tolist()
        self.slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        self.data = np.empty(bounds[-1])
        self.grad = np.zeros(bounds[-1])
        for t, sl in zip(self.tensors, self.slices):
            view = self.data[sl].reshape(t.shape)
            view[...] = t.data
            t.data = view
            t._grad_out = self.grad[sl].reshape(t.shape)
        self._mask = np.ones(bounds[-1], dtype=bool)

    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """name -> that parameter's entries of a vector laid out like `data`."""
        return {name: vector[sl].reshape(t.shape)
                for name, t, sl in zip(self.names, self.tensors, self.slices)}

    def zero_grad(self) -> None:
        for t in self.tensors:
            t.zero_grad()

    def update_mask(self) -> np.ndarray | bool:
        """The entries an optimizer step writes: those of each parameter that
        got a gradient, but of one with grad_rows (an expert table) only the
        rows named there; True when that is every entry."""
        if all(t.grad is not None and t.grad_rows is None for t in self.tensors):
            return True
        mask = self._mask
        for t, sl in zip(self.tensors, self.slices):
            if t.grad_rows is None:
                mask[sl] = t.grad is not None
            else:
                mask[sl].reshape(t.grad_rows.size, -1)[...] = t.grad_rows[:, None]
        return mask


_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's decay rates and denominator floor


class AdamState:
    """Adam over the flat vector of every parameter. It leaves an entry, and
    its moments, alone when its parameter got no gradient, or when it lies in
    an expert table's row that no token was routed to (see update_mask).
    `m` and `v` map each name to its view of the flat moments."""

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.lr = lr
        self.t = 0
        self.flat = FlatParameters(params)
        size = self.flat.data.size
        self._m, self._v = np.zeros(size), np.zeros(size)
        self.m, self.v = self.flat.views(self._m), self.flat.views(self._v)
        self._a, self._b = np.empty(size), np.empty(size)

    def step(self) -> None:
        """Update the parameters given at construction from their gradients."""
        self.t += 1
        b1, b2 = _BETA1, _BETA2
        scale = self.lr * math.sqrt(1 - b2 ** self.t) / (1 - b1 ** self.t)
        keep = self.flat.update_mask()
        p, g, m, v, a, b = self.flat.data, self.flat.grad, self._m, self._v, self._a, self._b
        # per entry, the IEEE ops of b1*m + (1-b1)*g, b2*v + ((1-b2)*g)*g and
        # p - (scale*m)/(sqrt(v)+eps); entries outside `keep` are computed
        # into the scratch vectors but never written back
        np.multiply(m, b1, out=a)
        np.multiply(g, 1 - b1, out=b)
        np.add(a, b, out=m, where=keep)
        np.multiply(g, 1 - b2, out=a)
        np.multiply(a, g, out=a)
        np.multiply(v, b2, out=b)
        np.add(b, a, out=v, where=keep)
        np.sqrt(v, out=b)
        np.add(b, _ADAM_EPS, out=b)
        np.multiply(m, scale, out=a)
        np.divide(a, b, out=a)
        np.subtract(p, a, out=p, where=keep)


class SgdState:
    def __init__(self, params: dict[str, Tensor], lr: float):
        self.lr = lr
        self.flat = FlatParameters(params)
        self._a = np.empty(self.flat.data.size)

    def step(self) -> None:
        """As AdamState.step: p - lr*g for each parameter that got a gradient."""
        np.multiply(self.flat.grad, self.lr, out=self._a)
        np.subtract(self.flat.data, self._a, out=self.flat.data, where=self.flat.update_mask())


def checked_step(opt: AdamState | SgdState, loss_fn: Callable[[], Tensor], step: int) -> float:
    """One optimizer step on the graph of `loss_fn()`; returns the loss.

    The loss and the flat gradient are checked for finiteness once, before
    the optimizer writes. On a failed check `loss_fn` is replayed in checked
    mode, so it must rebuild the same graph from the same values, and a
    DivergenceError names the step, the first non-finite op and its pass;
    the parameters and the optimizer state are left as they were.
    """
    flat = opt.flat
    flat.zero_grad()
    prefix = f"training diverged at step {step}"
    try:
        loss = loss_fn()
        finite = bool(np.isfinite(loss.data).all())
        if finite:
            loss.backward()
            finite = bool(np.isfinite(flat.grad).all())
    except NonFiniteError as exc:  # a non-finite constant the loss wrapped
        raise DivergenceError(f"{prefix}: {exc}") from exc
    if not finite:
        raise _replay(loss_fn, prefix, flat)
    opt.step()
    return float(loss.data)


def _replay(loss_fn: Callable[[], Tensor], prefix: str,
            flat: FlatParameters | None = None) -> DivergenceError:
    """The DivergenceError for a step or an eval pass whose check failed, from
    a checked replay; a step's replay, given `flat`, runs the backward too."""
    bad = []
    if flat is not None:
        bad = [name for name, t in zip(flat.names, flat.tensors)
               if t.grad is not None and not np.isfinite(t.grad).all()]
        flat.zero_grad()
    try:
        with checked():
            loss = loss_fn()
            if flat is not None and np.isfinite(loss.data).all():
                loss.backward()
        cause = None
    except NonFiniteError as exc:
        cause = exc
    if flat is not None:
        flat.grad.fill(0.0)  # so no stale non-finite entry fails a later check
    if bad and cause is not None and cause.pass_ == "backward":
        return DivergenceError(f"{prefix}: the gradient of {', '.join(bad)} holds a "
                               f"non-finite value (NaN or Inf); {cause}")
    if cause is not None:
        return DivergenceError(f"{prefix}: {cause}")
    what = f"the gradient of {', '.join(bad)}" if bad else "the loss"
    return DivergenceError(f"{prefix}: {what} holds a non-finite value (NaN or Inf)")


def load_token_file(path: str | Path, vocab: int) -> np.ndarray:
    """Whitespace-separated token ids, any number per line, with text after a
    `#` on a line ignored; values must lie in [0, vocab)."""
    try:
        with open(path) as fh:
            words = [w for line in fh for w in line.split("#", 1)[0].split()]
    except OSError as exc:
        raise ValueError(f"corpus file {path} cannot be read: {exc.strerror}") from exc
    try:
        ids = [int(w) for w in words]
    except ValueError as exc:
        raise ValueError(f"corpus file {path} holds a non-integer token id: {exc}") from exc
    if not ids:
        raise ValueError(f"corpus file {path} holds no tokens")
    if min(ids) < 0 or max(ids) >= vocab:
        raise ValueError(f"corpus file {path} has ids outside [0, {vocab})")
    return np.array(ids, dtype=np.int64)


def _keep_heap() -> None:
    """Have glibc malloc keep freed memory for reuse, process-wide.

    Each step and eval pass frees its activations; by default glibc hands the
    top of the heap (and every large block, which it mmaps) back to the
    kernel, and the next pass faults the pages in again. These are the
    ceilings glibc's own dynamic thresholds reach on 64-bit. Without glibc's
    `mallopt` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


@dataclass
class RunClock:
    """Wall-clock totals of `Trainer.run`; only `speed.txt` reads them."""
    examples: int = 0  # examples trained
    seconds: float = 0.0  # in `run`, its eval passes included
    eval_tokens: int = 0  # tokens scored by eval passes
    eval_seconds: float = 0.0  # in eval passes


class Trainer:
    """Owns one run: the model, its corpus, the optimizer and both RNGs, the
    step count, the metrics rows and the wall clock; drives seeded steps."""

    def __init__(self, config: ExperimentConfig):
        config.validate()
        _keep_heap()
        self.config = config
        tr = config.training
        seed = tr.seed
        if tr.corpus_file:
            stream = load_token_file(tr.corpus_file, config.model.vocab)
            need = tr.eval_tokens + config.model.seq_len + 1
            if stream.size < need:
                raise ValueError(f"corpus file {tr.corpus_file} holds {stream.size} tokens; "
                                 f"the eval split and one training window need {need}")
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
        optimizer = AdamState if tr.optimizer == "adam" else SgdState
        self.opt = optimizer(self.params, tr.learning_rate)
        self.batch_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(13,)))
        self.jitter_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(14,)))
        self.step_count = 0
        self.rows: list[dict] = []  # one per eval, keyed by METRICS_COLUMNS
        self.clock = RunClock()

    def run(self, until: int) -> None:
        """Step from `step_count` to `until`. An eval, and its row in `rows`, follows
        each `io.checkpoint_interval`-th step and step `training.steps`, not `until`,
        so a run cut at any step and continued equals an uncut one."""
        tr, clock = self.config.training, self.clock
        if not self.step_count <= until <= tr.steps:
            raise ValueError(f"run({until}) must end in [step_count, steps] = "
                             f"[{self.step_count}, {tr.steps}]")
        interval = self.config.io.checkpoint_interval
        window = self.config.model.seq_len + 1
        t_start = time.perf_counter()
        while self.step_count < until:
            train_loss = self.step()
            clock.examples += tr.batch
            if self.step_count % interval == 0 or self.step_count == tr.steps:
                t_eval = time.perf_counter()
                eval_loss, eval_acc, _ = self.evaluate()
                clock.eval_seconds += time.perf_counter() - t_eval
                clock.eval_tokens += len(self.eval_tokens) // window * (window - 1)
                self.rows.append(dict(zip(METRICS_COLUMNS, (
                    self.step_count, train_loss, eval_loss, eval_acc, *count_params(self.model)))))
        clock.seconds += time.perf_counter() - t_start

    def sample_batch(self) -> np.ndarray:
        window = self.config.model.seq_len + 1
        max_start = len(self.train_tokens) - window
        starts = self.batch_rng.integers(0, max_start + 1, size=self.config.training.batch)
        return np.stack([self.train_tokens[s: s + window] for s in starts])

    def batch_loss(self, batch: np.ndarray, rng: np.random.Generator | None) -> Tensor:
        """Mean loss over every token of a (B, seq+1) batch, as one graph;
        `rng` draws the router jitter, None scores the batch as eval does."""
        return self.model.sequence_loss(batch, rng=rng)

    def step(self, batch: np.ndarray | None = None) -> float:
        """One optimizer step; returns the training loss in nats/token."""
        if batch is None:
            batch = self.sample_batch()
        rng = self.jitter_rng
        state = rng.bit_generator.state

        def loss_fn() -> Tensor:
            rng.bit_generator.state = state  # a replay draws the same jitter
            return self.batch_loss(batch, rng)

        loss = checked_step(self.opt, loss_fn, self.step_count)
        self.step_count += 1
        return loss

    def evaluate(self) -> tuple[float, float, float]:
        """(loss, accuracy, loss stderr) on fixed held-out windows, jitter-free;
        all windows run as one batch, with no gradient graph. A non-finite
        per-token loss is replayed as `sequence_loss`, as a step's loss is."""
        window = self.config.model.seq_len + 1
        count = len(self.eval_tokens) // window
        windows = self.eval_tokens[: count * window].reshape(count, window)
        targets = windows[:, 1:]
        with no_grad():
            logits = self.model.forward(windows[:, :-1])
            logprobs = _log_softmax(logits.data, -1)
            losses = -np.take_along_axis(logprobs, targets[..., None], axis=-1).reshape(-1)
            if not np.isfinite(losses).all():
                raise _replay(lambda: self.model.sequence_loss(windows),
                              f"training diverged: eval after step {self.step_count}")
        correct = int(np.sum(np.argmax(logits.data, axis=-1) == targets))
        stderr = float(losses.std(ddof=1) / math.sqrt(losses.size)) if losses.size > 1 else 0.0
        return float(losses.mean()), correct / losses.size, stderr


def train_model(config: ExperimentConfig) -> Trainer:
    """Train one config to completion, emitting metrics CSV and a checkpoint
    into `config.io.out_dir`, which the first of them creates."""
    trainer = Trainer(config)
    trainer.run(config.training.steps)
    out = Path(config.io.out_dir)
    write_csv(out / "metrics.csv", METRICS_COLUMNS, trainer.rows)
    clock = trainer.clock  # wall-clock speed stays outside the deterministic CSV
    with open(out / "speed.txt", "w") as fh:
        fh.write(f"examples_per_sec {clock.examples / max(clock.seconds, 1e-9):.3f}\n")
        fh.write(f"eval_tokens_per_sec {clock.eval_tokens / max(clock.eval_seconds, 1e-9):.3f}\n")
    (out / "config.txt").write_text(format_config(config))
    save_checkpoint(out / "checkpoint.smlb",
                    {k: v.data for k, v in trainer.params.items()})
    return trainer


BENCH_COLUMNS = ("lookup", "rank", "buckets", "added_params", "added_params_full",
                 "final_train_loss", "final_eval_loss", "final_eval_accuracy", "seed")


def run_lookup_benchmark(grid: list[tuple[str, int, int]],
                         base_config: ExperimentConfig) -> list[dict]:
    """Train one model per (lookup, rank, buckets) cell; rows sorted by the key.

    The sweep writes into `base_config.io.out_dir`: one run directory per
    cell and `route_bench.csv`.
    """
    if any(kind == "none" for kind, _, _ in grid):
        raise ValueError("route-bench needs a lookup: 'none' attaches no table to count")
    out = Path(base_config.io.out_dir)
    configs = []
    for kind, rank, buckets in grid:  # every cell is checked before any output is made
        cfg = copy.deepcopy(base_config)
        cfg.memory.lookup = kind
        cfg.memory.rank = rank
        cfg.memory.buckets = buckets
        cfg.io.out_dir = str(out / f"{kind}_r{rank}_b{buckets}")
        configs.append(cfg.validate())

    def run_cell(cfg: ExperimentConfig) -> dict:
        kind, rank, buckets = cfg.memory.lookup, cfg.memory.rank, cfg.memory.buckets
        trainer = train_model(cfg)
        table = trainer.model.tables[0]
        comparison, full = partial_expert_param_count(table.rank, table.n, table.d_in)
        last = trainer.rows[-1]
        return {
            "lookup": kind, "rank": rank, "buckets": buckets,
            "added_params": comparison, "added_params_full": full,
            "final_train_loss": last["train_loss"], "final_eval_loss": last["eval_loss"],
            "final_eval_accuracy": last["eval_accuracy"],
            "seed": cfg.training.seed,
        }

    results = [run_cell(cfg) for cfg in configs]
    results.sort(key=lambda r: (r["lookup"], r["rank"], r["buckets"]))
    write_csv(out / "route_bench.csv", BENCH_COLUMNS, results)
    return results
