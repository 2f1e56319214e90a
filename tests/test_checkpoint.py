"""Checkpoint format roundtrips and parameter-count closure."""

import numpy as np
import pytest

from sparse_memory_lab.checkpoint import (
    checkpoint_scalar_count,
    load_checkpoint,
    save_checkpoint,
)
from sparse_memory_lab.config import AltUpConfig, ExperimentConfig, MemoryConfig, ModelConfig
from sparse_memory_lab.model import LanguageModel, count_params


def test_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "a": rng.standard_normal((3, 4)),
        "b": rng.standard_normal(7),
        "scalar": np.array(3.5),
    }
    path = tmp_path / "ck.smlb"
    save_checkpoint(path, tensors)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(tensors)
    for k in tensors:
        np.testing.assert_array_equal(loaded[k], tensors[k])
        assert loaded[k].shape == tensors[k].shape


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


@pytest.mark.parametrize("keep", ["payload", "manifest"])
def test_truncated_file_rejected(tmp_path, keep):
    path = tmp_path / "ck.smlb"
    save_checkpoint(path, {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(4)})
    raw = path.read_bytes()
    # cut 8 bytes off the payload, or 8 bytes off the manifest and all after it
    cut = len(raw) - 8 if keep == "payload" else raw.index(b"]}") + 2 - 8
    path.write_bytes(raw[:cut])
    with pytest.raises(ValueError, match="checkpoint is truncated"):
        load_checkpoint(path)


def test_scalar_count_matches_param_split(tmp_path):
    cfg = ExperimentConfig(
        model=ModelConfig(d=8, layers=2, heads=2, vocab=12, seq_len=4),
        memory=MemoryConfig(lookup="softmax", rank=2, buckets=4, k=2,
                            consumption="altup"),
        altup=AltUpConfig(K=2, head="proj"),
    )
    model = LanguageModel.build(cfg)
    params = model.parameters()
    path = tmp_path / "model.smlb"
    save_checkpoint(path, {k: v.data for k, v in params.items()})
    emb, non_emb = count_params(model)
    assert checkpoint_scalar_count(path) == emb + non_emb
