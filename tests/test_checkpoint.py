"""Checkpoint format roundtrips, corrupt-file rejection and parameter-count closure."""

import json
import struct

import numpy as np
import pytest

from sparse_memory_lab import checkpoint
from sparse_memory_lab.checkpoint import load_checkpoint, save_checkpoint
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
    assert sum(a.size for a in load_checkpoint(path).values()) == emb + non_emb


def rewrite_manifest(path, edit):
    """Apply `edit` to the checkpoint's manifest entries and write it back."""
    raw = path.read_bytes()
    man_len = struct.unpack("<Q", raw[8:16])[0]
    manifest = json.loads(raw[16:16 + man_len])
    edit(manifest["tensors"])
    new = json.dumps(manifest).encode()
    path.write_bytes(raw[:8] + struct.pack("<Q", len(new)) + new + raw[16 + man_len:])


@pytest.fixture
def two_tensors(tmp_path):
    path = tmp_path / "ck.smlb"
    save_checkpoint(path, {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(4)})
    return path


def test_trailing_bytes_rejected(two_tensors):
    two_tensors.write_bytes(two_tensors.read_bytes() + b"\x00" * 8)
    with pytest.raises(ValueError, match="payload holds 88 bytes, its tensors 80"):
        load_checkpoint(two_tensors)


def test_duplicate_name_rejected(two_tensors):
    def rename(entries):
        entries[1]["name"] = "a"

    rewrite_manifest(two_tensors, rename)
    with pytest.raises(ValueError, match="names tensor 'a' twice"):
        load_checkpoint(two_tensors)


@pytest.mark.parametrize("shape", [[-1, 4], [2.0, 3], "6", [True, 6]])
def test_bad_shape_rejected(two_tensors, shape):
    def reshape(entries):
        entries[0]["shape"] = shape

    rewrite_manifest(two_tensors, reshape)
    with pytest.raises(ValueError, match="tensor 'a' needs a 'shape' of non-negative integers"):
        load_checkpoint(two_tensors)


def test_offset_inside_a_tensor_rejected(two_tensors):
    def shift(entries):
        entries[0]["offset"] = 4

    rewrite_manifest(two_tensors, shift)
    with pytest.raises(ValueError, match="tensor 'a' starts at byte 4, not 0"):
        load_checkpoint(two_tensors)


@pytest.mark.parametrize("key", ["name", "shape", "offset"])
def test_missing_entry_field_rejected(two_tensors, key):
    def drop(entries):
        del entries[1][key]

    rewrite_manifest(two_tensors, drop)
    match = "has no tensor name" if key == "name" else "tensor 'b' needs a 'shape'"
    with pytest.raises(ValueError, match=match):
        load_checkpoint(two_tensors)


@pytest.mark.parametrize("manifest", [b'{"tensors": [\xff]}', b"not json"],
                         ids=["not-utf8", "not-json"])
def test_manifest_that_is_not_utf8_json_rejected(two_tensors, manifest):
    raw = two_tensors.read_bytes()
    man_len = struct.unpack("<Q", raw[8:16])[0]
    two_tensors.write_bytes(raw[:8] + struct.pack("<Q", len(manifest)) + manifest
                            + raw[16 + man_len:])
    with pytest.raises(ValueError, match="^checkpoint manifest is not valid UTF-8 JSON: "):
        load_checkpoint(two_tensors)


def test_saved_bytes_unchanged(two_tensors):
    manifest = (b'{"tensors":[{"name":"a","shape":[2,3],"offset":0},'
                b'{"name":"b","shape":[4],"offset":48}]}')
    payload = np.arange(6.0).astype("<f8").tobytes() + np.ones(4).astype("<f8").tobytes()
    assert two_tensors.read_bytes() == (b"SMLB" + struct.pack("<I", 1)
                                        + struct.pack("<Q", len(manifest)) + manifest + payload)


def test_save_failing_mid_write_keeps_the_earlier_file(tmp_path, monkeypatch):
    path = tmp_path / "ck.smlb"
    save_checkpoint(path, {"a": np.arange(6.0)})
    before = path.read_bytes()

    class FullDisk:
        """A file that takes the header, then fails as a full disk would."""

        def __init__(self, *args):
            self.fh = open(*args)
            self.writes = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes > 4:  # magic, version, length and manifest went through
                raise OSError(28, "No space left on device")
            return self.fh.write(data)

    monkeypatch.setattr(checkpoint, "open", FullDisk, raising=False)
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(path, {"a": np.zeros(6), "b": np.ones(4)})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ck.smlb"]
