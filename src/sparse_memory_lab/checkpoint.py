"""Single-file checkpoint: versioned header, JSON manifest, raw float64 payload.

Layout: magic 'SMLB', uint32 version, uint64 manifest length, manifest JSON
(utf-8), then the concatenated little-endian float64 tensor payloads at the
offsets the manifest records.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

MAGIC = b"SMLB"
VERSION = 1


def save_checkpoint(path: str | Path, tensors: dict[str, np.ndarray]) -> None:
    entries = []
    payloads = []
    offset = 0
    for name, arr in tensors.items():
        shape = np.asarray(arr).shape
        data = np.ascontiguousarray(arr, dtype="<f8")  # promotes 0-d to 1-d
        entries.append({"name": name, "shape": list(shape), "offset": offset})
        payloads.append(data.tobytes())
        offset += data.nbytes
    manifest = json.dumps({"tensors": entries}, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(manifest)))
        fh.write(manifest)
        for blob in payloads:
            fh.write(blob)


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise ValueError(f"not a checkpoint file: bad magic {raw[:4]!r}")
    if len(raw) < 16:
        raise ValueError(f"checkpoint is truncated: {len(raw)}-byte file has no full header")
    version = struct.unpack("<I", raw[4:8])[0]
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    man_len = struct.unpack("<Q", raw[8:16])[0]
    if len(raw) < 16 + man_len:
        raise ValueError(f"checkpoint is truncated: manifest needs {man_len} bytes, "
                         f"file holds {len(raw) - 16} after the header")
    manifest = json.loads(raw[16:16 + man_len].decode("utf-8"))
    payload = raw[16 + man_len:]
    out: dict[str, np.ndarray] = {}
    for entry in manifest["tensors"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        if start + 8 * count > len(payload):
            raise ValueError(f"checkpoint is truncated: tensor {entry['name']!r} needs payload "
                             f"bytes up to {start + 8 * count}, file holds {len(payload)}")
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=start)
        out[entry["name"]] = arr.reshape(shape).astype(np.float64)
    return out


def checkpoint_scalar_count(path: str | Path) -> int:
    """Total number of float64 scalars stored in the checkpoint."""
    return sum(arr.size for arr in load_checkpoint(path).values())
