"""Model checkpoint container.

Layout (all integers little-endian):

    bytes 0..7    magic b"MRCKPT01"
    bytes 8..11   uint32 header length L
    bytes 12..12+L  UTF-8 JSON header:
                    {"version": int,
                     "spec": ModelSpec dict,
                     "params": [{"name": str, "shape": [int, ...]}, ...]}
    remainder     parameter blobs, little-endian float32, concatenated in
                  header order

Round-trips are bitwise exact for float32 parameters.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from ..errors import CheckpointError
from .layers import ModelSnapshot, ModelSpec

MAGIC = b"MRCKPT01"


def save_checkpoint(snap: ModelSnapshot, path) -> None:
    path = Path(path)
    entries = []
    blobs = []
    for name, arr in snap.params:
        entries.append({"name": name, "shape": list(arr.shape)})
        blobs.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    header = json.dumps(
        {"version": snap.version, "spec": snap.spec.to_dict(), "params": entries},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        for blob in blobs:
            f.write(blob)


def load_checkpoint(path) -> ModelSnapshot:
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    raw = path.read_bytes()
    if len(raw) < 12 or raw[:8] != MAGIC:
        raise CheckpointError(f"bad checkpoint magic in {path}")
    (header_len,) = struct.unpack("<I", raw[8:12])
    if len(raw) < 12 + header_len:
        raise CheckpointError(f"truncated checkpoint header in {path}")
    try:
        header = json.loads(raw[12 : 12 + header_len].decode("utf-8"))
        spec = ModelSpec.from_dict(header["spec"])
        version = int(header["version"])
        entries = header["params"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"corrupt checkpoint header in {path}: {exc}") from exc
    offset = 12 + header_len
    params = []
    for entry in entries:
        shape = tuple(int(s) for s in entry["shape"])
        nbytes = int(np.prod(shape)) * 4
        blob = raw[offset : offset + nbytes]
        if len(blob) != nbytes:
            raise CheckpointError(f"truncated parameter blob {entry['name']!r} in {path}")
        arr = np.frombuffer(blob, dtype="<f4").reshape(shape).copy()
        arr.flags.writeable = False
        params.append((entry["name"], arr))
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError(f"{len(raw) - offset} trailing bytes in {path}")
    return ModelSnapshot(spec=spec, params=tuple(params), version=version)
