"""Single-file checkpoint: versioned header, JSON manifest, raw float64 payload.

Layout: magic 'SMLB', uint32 version, uint64 manifest length, manifest JSON
(utf-8), then the concatenated little-endian float64 tensor payloads at the
offsets the manifest records. The manifest's entries must tile the payload:
each tensor starts where the one before it ends, and the last ends where
the file does. A save writes a temp file beside the target and renames it
over the target, so an interrupted save leaves the earlier file whole.
"""

from __future__ import annotations

import json
import math
import os
import struct
import threading
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
    path = Path(path)
    # one temp name per process and thread, so concurrent saves never share one
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<Q", len(manifest)))
            fh.write(manifest)
            for blob in payloads:
                fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
    try:
        manifest = json.loads(raw[16:16 + man_len].decode("utf-8"))
    except ValueError as exc:  # a UnicodeDecodeError or a JSONDecodeError
        raise ValueError(f"checkpoint manifest is not valid UTF-8 JSON: {exc}") from exc
    payload = raw[16 + man_len:]
    if not isinstance(manifest, dict) or not isinstance(manifest.get("tensors"), list):
        raise ValueError("checkpoint manifest holds no list of tensors")
    out: dict[str, np.ndarray] = {}
    end = 0  # payload bytes the entries so far tile
    for entry in manifest["tensors"]:
        name, shape, start = _entry_fields(entry)
        count = math.prod(shape)
        if start + 8 * count > len(payload):
            raise ValueError(f"checkpoint is truncated: tensor {name!r} needs payload "
                             f"bytes up to {start + 8 * count}, file holds {len(payload)}")
        if name in out:
            raise ValueError(f"checkpoint manifest names tensor {name!r} twice")
        if start != end:
            raise ValueError(f"checkpoint tensor {name!r} starts at byte {start}, not {end}")
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=start)
        out[name] = arr.reshape(shape).astype(np.float64)
        end = start + 8 * count
    if end != len(payload):
        raise ValueError(f"checkpoint payload holds {len(payload)} bytes, its tensors {end}")
    return out


def _entry_fields(entry) -> tuple[str, tuple[int, ...], int]:
    """(name, shape, offset) of a manifest entry, or a ValueError naming the tensor."""
    name = entry.get("name") if isinstance(entry, dict) else None
    if not isinstance(name, str):
        raise ValueError(f"checkpoint manifest entry {entry!r} has no tensor name")
    shape, start = entry.get("shape"), entry.get("offset")
    if not (isinstance(shape, list)
            and all(type(v) is int and v >= 0 for v in [*shape, start])):
        raise ValueError(f"checkpoint tensor {name!r} needs a 'shape' of non-negative integers "
                         f"and a non-negative integer 'offset', got {shape!r} and {start!r}")
    return name, tuple(shape), start
