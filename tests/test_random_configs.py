"""Invariants over configs drawn at random from the valid space.

The strategy builds each config valid by construction, key by key, rather
than filtering blind draws through `validate()`, which rejects most of them.
Every example checks the text round trip, run-to-run determinism, checked
mode, the batch loss against its per-sequence losses, the checkpoint round
trip, and the K = 1 wide stack against the plain model.
"""

import dataclasses
import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_memory_lab.autodiff import checked
from sparse_memory_lab.checkpoint import load_checkpoint, save_checkpoint
from sparse_memory_lab.config import (
    CONSUMPTION_KINDS,
    HEAD_KINDS,
    LOOKUP_KINDS,
    OPTIMIZER_KINDS,
    SELECTION_KINDS,
    VARIANT_KINDS,
    AltUpConfig,
    ExperimentConfig,
    IoConfig,
    MemoryConfig,
    ModelConfig,
    TrainingConfig,
    format_config,
    parse_config,
)
from sparse_memory_lab.train import Trainer

STEPS = 2


@st.composite
def configs(draw):
    heads = draw(st.integers(1, 2))
    vocab = draw(st.integers(2, 12))
    seq = draw(st.integers(1, 7))
    model = ModelConfig(d=heads * draw(st.integers(2, 4)), layers=draw(st.integers(1, 2)),
                        heads=heads, vocab=vocab, seq_len=seq)

    lookup = draw(st.sampled_from(LOOKUP_KINDS))
    memory = MemoryConfig(lookup=lookup, rank=draw(st.integers(0, 3)),
                          consumption=draw(st.sampled_from(CONSUMPTION_KINDS)))
    if lookup == "token_id":
        memory.buckets = draw(st.sampled_from([1, vocab]))
        memory.share_table = draw(st.booleans())
    elif lookup != "none":
        memory.buckets = draw(st.integers(1, 8))
    if lookup == "softmax":
        memory.k = draw(st.integers(1, memory.buckets))
    if lookup == "hyperplane":
        memory.width = draw(st.sampled_from([0.5, 1.0, 4.0]))

    # one draw over the product, so that every combination turns up
    selection, variant, head, K, blocks = draw(st.sampled_from(list(itertools.product(
        SELECTION_KINDS, VARIANT_KINDS, HEAD_KINDS, (2, 3, 1), (0, 1, 2)))))
    altup = AltUpConfig(selection=selection, variant=variant, head=head)
    if memory.consumption in ("sameup", "altup"):
        altup.K = K
        altup.e = (K - 1) * blocks

    training = TrainingConfig(steps=STEPS, batch=draw(st.integers(1, 3)),
                              optimizer=draw(st.sampled_from(OPTIMIZER_KINDS)),
                              seed=draw(st.integers(0, 2**16)), corpus_length=128,
                              eval_tokens=32)
    io = IoConfig(checkpoint_interval=draw(st.integers(1, STEPS)))
    return ExperimentConfig(model=model, memory=memory, altup=altup, training=training, io=io)


def losses(config, in_checked_mode=False):
    trainer = Trainer(config)
    out = []
    for _ in range(STEPS):
        if in_checked_mode:
            with checked():
                out.append(trainer.step())
        else:
            out.append(trainer.step())
    return trainer, out


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(configs())
def test_random_valid_configs_keep_the_invariants(tmp_path_factory, config):
    config.validate()
    assert parse_config(format_config(config)) == config

    trainer, first = losses(config)
    assert losses(config)[1] == first
    assert losses(config, in_checked_mode=True)[1] == first

    batch = trainer.sample_batch()
    whole = float(trainer.batch_loss(batch, None).data)
    per_sequence = [float(trainer.batch_loss(window, None).data) for window in batch]
    assert abs(whole - np.mean(per_sequence)) <= 1e-12

    path = tmp_path_factory.mktemp("ck") / "checkpoint.smlb"
    save_checkpoint(path, {k: t.data for k, t in trainer.params.items()})
    saved = path.read_bytes()
    loaded = load_checkpoint(path)
    for name, t in trainer.params.items():
        assert loaded[name].tobytes() == t.data.tobytes() and loaded[name].shape == t.shape
    save_checkpoint(path, loaded)
    assert path.read_bytes() == saved

    narrow = dataclasses.replace(config.altup, K=1, e=0)
    plain = dataclasses.replace(config, altup=narrow,
                                memory=dataclasses.replace(config.memory, consumption="none"))
    k1 = dataclasses.replace(plain, memory=dataclasses.replace(plain.memory,
                                                               consumption="altup"))
    np.testing.assert_allclose(losses(k1)[1], losses(plain)[1], rtol=0, atol=1e-12)
