"""Model checkpoint container.

Layout (all integers little-endian):

    bytes 0..7    magic b"MRCKPT01"
    bytes 8..11   uint32 header length L
    bytes 12..12+L  UTF-8 JSON header:
                    {"version": int,
                     "spec": ModelSpec dict,
                     "params": [{"name": str, "shape": [int, ...]}, ...],
                     "velocities": [{"name": str, "shape": [int, ...]}, ...],
                     "crc32": int}
    remainder     parameter blobs, then velocity blobs, little-endian
                  float32, each list concatenated in header order

Only cycle checkpoints have "velocities": the SGD velocity of each parameter
that has taken a step, which a resume reads. Without the key a file's bytes
are those written before it existed, and `ModelSnapshot.velocities` is None.

Round-trips are bitwise exact for float32 arrays. Files are written to a
temporary name and renamed into place. Loading checks every header field and
raises ValidationError naming the first one that is missing or malformed, or
a velocity whose name or shape is not a parameter's.

"crc32" is zlib.crc32 of the blob region, so a flipped bit in a parameter or
a velocity raises ValidationError instead of loading as different state.
Every file carries it; a header without it fails to load. The magic stays
MRCKPT01: a reader that predates a field reads only the keys it knows, so it
still loads files that carry one.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from ..errors import ValidationError
from .layers import ModelSnapshot, ModelSpec

MAGIC = b"MRCKPT01"


def write_atomic(path, payload: bytes) -> None:
    """Write `payload` to a temporary file and rename it over `path`, so a
    reader sees the old file or the new one, never a partial write."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def save_checkpoint(snap: ModelSnapshot, path, *, velocities=None) -> None:
    """Write `snap`, and with `velocities` (name -> array, as `SGD.velocities`
    holds them) a second list of named blobs after the parameters."""
    lists = {"params": snap.params}
    if velocities is not None:
        lists["velocities"] = tuple(velocities.items())
    header = {"version": snap.version, "spec": snap.spec.to_dict()}
    blobs = []
    for key, named in lists.items():
        header[key] = [{"name": name, "shape": list(arr.shape)} for name, arr in named]
        blobs += [np.ascontiguousarray(arr, dtype="<f4").tobytes() for _, arr in named]
    blob = b"".join(blobs)
    header["crc32"] = zlib.crc32(blob)
    encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    write_atomic(path, b"".join((MAGIC, struct.pack("<I", len(encoded)), encoded, blob)))


def typed_field(obj, key: str, kind, where: str):
    """`obj[key]` if `obj` is a dict holding a `kind` there, a type or a tuple
    of types (bool is not an int)."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        names = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise ValueError(f"field {where}{key!r} is missing or not of type {names}")
    return value


def _blob_entry(entry, where: str, params=None) -> tuple:
    """(name, shape) of a blob list entry; with `params` (name -> shape) the
    entry is a velocity and must name one of them and have its shape."""
    name = typed_field(entry, "name", str, where)
    shape = typed_field(entry, "shape", list, where)
    if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape):
        raise ValueError(f"field {where}'shape' of {name!r} is not a list of non-negative integers: {shape}")
    if params is not None and name not in params:
        raise ValueError(f"{where[:-1]} is for {name!r}, which is not a parameter")
    if params is not None and tuple(shape) != params[name]:
        raise ValueError(f"{where[:-1]} for parameter {name!r} has shape {tuple(shape)}, expected {params[name]}")
    return name, tuple(shape)


def load_checkpoint(path) -> ModelSnapshot:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"checkpoint not found: {path}")
    raw = path.read_bytes()
    if len(raw) < 12 or raw[:8] != MAGIC:
        raise ValidationError(f"bad checkpoint magic in {path}")
    (header_len,) = struct.unpack("<I", raw[8:12])
    if len(raw) < 12 + header_len:
        raise ValidationError(f"truncated checkpoint header in {path}")
    try:
        header = json.loads(raw[12 : 12 + header_len].decode("utf-8"))
        version = typed_field(header, "version", int, "")
        entries = [_blob_entry(e, f"params[{i}].") for i, e in enumerate(typed_field(header, "params", list, ""))]
        spec = ModelSpec.from_dict(typed_field(header, "spec", dict, ""))
        crc = typed_field(header, "crc32", int, "")
        velocity_entries = None
        if "velocities" in header:
            shapes = dict(entries)
            velocity_entries = [_blob_entry(e, f"velocities[{i}].", shapes)
                                for i, e in enumerate(typed_field(header, "velocities", list, ""))]
    except (ValueError, KeyError, TypeError, ValidationError) as exc:
        raise ValidationError(f"corrupt checkpoint header in {path}: {exc}") from exc
    offset = 12 + header_len
    arrays = []
    for name, shape in entries + (velocity_entries or []):
        nbytes = math.prod(shape) * 4
        blob = raw[offset : offset + nbytes]
        if len(blob) != nbytes:
            raise ValidationError(f"truncated blob {name!r} in {path}")
        arr = np.frombuffer(blob, dtype="<f4").reshape(shape).copy()
        arr.flags.writeable = False
        arrays.append((name, arr))
        offset += nbytes
    if offset != len(raw):
        raise ValidationError(f"{len(raw) - offset} trailing bytes in {path}")
    if zlib.crc32(raw[12 + header_len :]) != crc:
        raise ValidationError(f"blobs fail their crc32 check in {path}")
    velocities = None if velocity_entries is None else dict(arrays[len(entries) :])
    return ModelSnapshot(spec=spec, params=tuple(arrays[: len(entries)]), version=version, velocities=velocities)
