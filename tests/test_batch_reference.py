"""One graph per training step and per eval pass, against the per-row path.

The reference runs each sequence alone: one forward per sequence through a
transformer block that narrows out each attention head and concatenates the
heads back, each softmax layer drawing its own (seq, d) jitter block from
the generator before it routes, and the batch loss as the mean of the per-row
losses; evaluation is one forward per window. The batched path must route
identically, draw identical jitter, and agree within 1e-12 in the loss, in
every parameter gradient and in the rows a gradient touched.
"""

import contextlib
import math

import numpy as np
import pytest

from sparse_memory_lab import lookup as lookup_mod
from sparse_memory_lab import train as train_mod
from sparse_memory_lab.altup import altup_stack_forward
from sparse_memory_lab.autodiff import concat
from sparse_memory_lab.config import ExperimentConfig, set_config_value
from sparse_memory_lab.lookup import (
    JITTER_EPSILON,
    SoftmaxRouterParams,
    memory_augmented_forward,
)
from sparse_memory_lab.nn import _NEG_MASK
from sparse_memory_lab.train import Trainer

from oracles import log_softmax, normalize

B, SEQ = 8, 8
TOL = 1e-12

CELLS = {
    "baseline": {},
    "altup-simplified": {"memory.consumption": "altup", "altup.K": 2},
    "altup-full": {"memory.consumption": "altup", "altup.K": 2, "altup.variant": "full"},
    "token_id": {"memory.lookup": "token_id", "memory.rank": 4},
    "softmax": {"memory.lookup": "softmax", "memory.rank": 4, "memory.buckets": 16,
                "memory.k": 2},
    "hyperplane": {"memory.lookup": "hyperplane", "memory.rank": 4, "memory.buckets": 16},
    "spherical": {"memory.lookup": "spherical", "memory.rank": 4, "memory.buckets": 16},
    "sum": {"memory.consumption": "sum"},
    "altup-e": {"memory.consumption": "altup", "altup.K": 3, "altup.e": 8},
    "head-proj": {"memory.consumption": "altup", "altup.K": 2, "altup.head": "proj"},
    "head-mean": {"memory.consumption": "altup", "altup.K": 2, "altup.head": "mean"},
}


def make_trainer(overrides: dict) -> Trainer:
    cfg = ExperimentConfig()
    for key, value in {"model.d": 16, "model.heads": 2, "model.vocab": 32,
                       "model.seq_len": SEQ, "training.batch": B,
                       "training.corpus_length": 2000, "training.eval_tokens": 200,
                       **overrides}.items():
        set_config_value(cfg, key, str(value))
    return Trainer(cfg.validate())


class RecordingRng:
    """A generator that keeps every uniform() block it hands out."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.draws: list[np.ndarray] = []

    def uniform(self, *args, **kwargs):
        out = self.rng.uniform(*args, **kwargs)
        self.draws.append(out)
        return out


def reference_block(x, p):
    """The causal transformer block on one (seq, d) sequence, head by head."""
    seq, d = x.shape
    h = p.n_heads
    dh = d // h
    ln1 = normalize(x) * p.ln1_scale + p.ln1_bias
    q, k, v = ln1 @ p.wq, ln1 @ p.wk, ln1 @ p.wv
    outs = []
    for i in range(h):
        qi, ki, vi = (t.narrow(1, i * dh, dh) for t in (q, k, v))
        scores = (qi @ ki.swapaxes(-2, -1)) * (1.0 / math.sqrt(dh))
        if seq > 1:
            scores = scores + np.triu(np.full((seq, seq), _NEG_MASK), k=1)
        outs.append(scores.softmax(axis=1) @ vi)
    x = x + concat(outs, axis=1) @ p.wo
    ln2 = normalize(x) * p.ln2_scale + p.ln2_bias
    return x + (ln2 @ p.w1).relu() @ p.w2


def reference_forward(model, tokens, rng):
    """Logits (seq, vocab) of one sequence; the router draws from `rng`, when
    given, as it routes."""
    def layer_fn(i):
        def base(x):
            return reference_block(x, model.blocks[i])

        if model.lookups is None:
            return base
        lookup = model.lookups[i]

        def augmented(x):
            jitter = None
            if rng is not None and isinstance(lookup, SoftmaxRouterParams):
                eps = JITTER_EPSILON
                jitter = rng.uniform(1.0 - eps, 1.0 + eps, size=x.shape)
            return base(x) + memory_augmented_forward(x, tokens, lookup, model.tables[i],
                                                      jitter=jitter)

        return augmented

    x0 = model.initial_representation(tokens)
    fns = [layer_fn(i) for i in range(len(model.blocks))]
    final, _ = altup_stack_forward(x0, fns, model.selection, model.pcc)
    head = model.config.altup.head if model.wide else "block0"
    if head == "proj":
        read = final.to_flat()
    elif head == "mean":
        read = final.block(0)
        for j in range(1, final.K):
            read = read + final.block(j)
        read = read * (1.0 / final.K)
    else:
        read = final.block(0)
    return read @ model.out_table


def pick_targets(logits, targets):
    """Log-probability of each target under (seq, vocab) logits, taken from
    the flattened log-probs."""
    flat = np.arange(targets.size) * logits.shape[1] + targets
    return log_softmax(logits, axis=1).reshape(-1).take(flat)


def reference_batch_loss(model, batch, rng):
    total = None
    for row in batch:
        logits = reference_forward(model, row[:-1], rng)
        loss = -pick_targets(logits, row[1:]).mean()
        total = loss if total is None else total + loss
    return total * (1.0 / batch.shape[0])


def reference_evaluate(trainer):
    window = trainer.config.model.seq_len + 1
    losses, correct, total = [], 0, 0
    for i in range(len(trainer.eval_tokens) // window):
        chunk = trainer.eval_tokens[i * window: (i + 1) * window]
        logits = reference_forward(trainer.model, chunk[:-1], None)
        picked = pick_targets(logits, chunk[1:])
        losses.extend((-picked.data).tolist())
        correct += int(np.sum(np.argmax(logits.data, axis=1) == chunk[1:]))
        total += window - 1
    losses = np.asarray(losses)
    return losses.mean(), correct / total, losses.std(ddof=1) / math.sqrt(losses.size)


def loss_and_grads(trainer, compute):
    for p in trainer.params.values():
        p.zero_grad()
    loss = compute()
    loss.backward()
    grads = {k: (p.grad.copy(), None if p.grad_rows is None else p.grad_rows.copy())
             for k, p in trainer.params.items() if p.grad is not None}
    return float(loss.data), grads


@pytest.mark.parametrize("jittered", [False, True], ids=["eval", "train"])
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_batch_loss_matches_per_row_losses(cell, jittered, monkeypatch):
    trainer = make_trainer(CELLS[cell])
    trainer.step()  # move the parameters off their initial values
    batch = trainer.sample_batch()
    model = trainer.model

    routed: list[np.ndarray] = []
    real_route = lookup_mod.route

    def recording_route(*args, **kwargs):
        result = real_route(*args, **kwargs)
        routed.append(result.indices)
        return result

    monkeypatch.setattr(lookup_mod, "route", recording_route)

    rng_b, rng_r = RecordingRng(7), RecordingRng(7)
    loss_b, grads_b = loss_and_grads(
        trainer, lambda: trainer.batch_loss(batch, rng_b if jittered else None))
    draws_b, routed_b = rng_b.draws, routed[:]

    routed.clear()
    loss_r, grads_r = loss_and_grads(
        trainer, lambda: reference_batch_loss(model, batch, rng_r if jittered else None))
    draws_r, routed_r = rng_r.draws, routed[:]

    assert abs(loss_b - loss_r) <= TOL
    assert grads_b.keys() == grads_r.keys() == trainer.params.keys()
    for name, (grad_b, rows_b) in grads_b.items():
        grad_r, rows_r = grads_r[name]
        np.testing.assert_allclose(grad_b, grad_r, rtol=0, atol=TOL, err_msg=name)
        assert (rows_b is None) == (rows_r is None), name
        if rows_b is not None:
            np.testing.assert_array_equal(rows_b, rows_r, err_msg=name)

    layers = len(model.blocks)
    if model.lookups is None:
        assert routed_b == routed_r == []
    else:
        # batched: one route per layer over all rows; reference: per row, per layer
        assert len(routed_b) == layers and len(routed_r) == B * layers
        for i, flat in enumerate(routed_b):
            per_row = flat.reshape(B, -1)
            for b in range(B):
                assert per_row[b].tolist() == routed_r[b * layers + i].tolist()
    if cell == "softmax" and jittered:
        # one (B, layers, seq, d) draw is the B * layers (seq, d) draws in order
        assert len(draws_b) == 1 and len(draws_r) == B * layers
        np.testing.assert_array_equal(draws_b[0],
                                      np.stack(draws_r).reshape(B, layers, SEQ, -1))
    else:
        assert draws_b == draws_r == []


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_evaluate_matches_per_window_loop(cell):
    trainer = make_trainer(CELLS[cell])
    trainer.step()
    loss, accuracy, stderr = trainer.evaluate()
    ref_loss, ref_accuracy, ref_stderr = reference_evaluate(trainer)
    assert abs(loss - ref_loss) <= TOL
    assert accuracy == ref_accuracy
    assert abs(stderr - ref_stderr) <= TOL


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_evaluate_without_graph_equals_graph_building_forward(cell, monkeypatch):
    trainer = make_trainer(CELLS[cell])
    trainer.step()
    result = trainer.evaluate()
    built = []
    real_forward = trainer.model.forward

    def recording_forward(*args, **kwargs):
        built.append(real_forward(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(trainer.model, "forward", recording_forward)
    trainer.evaluate()
    assert not built[0].requires_grad and built[0]._parents == ()
    monkeypatch.setattr(train_mod, "no_grad", contextlib.nullcontext)
    assert trainer.evaluate() == result  # bit for bit
    assert built[1].requires_grad
