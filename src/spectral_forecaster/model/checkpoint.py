"""Flat named-array checkpoints: JSON header plus little-endian float64 payload.

Layout: magic bytes, a big-endian uint32 header length, the UTF-8 JSON
header, then the raw concatenated arrays. The header carries the model
config and a manifest of (name, shape, offset) entries covering parameters
and buffers in the model's deterministic traversal order. Reload is
bit-exact: float64 -> bytes -> float64 is lossless.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from ..errors import DataError
from ..numeric.tensor import Tensor
from .network import FilterFormer, ModelConfig

MAGIC = b"SFCKPT1\n"


def save_checkpoint(model: FilterFormer, path) -> None:
    entries = []
    chunks = []
    offset = 0
    for name, value in model.named_state():
        arr = value.data if isinstance(value, Tensor) else value
        raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        chunks.append(raw)
        offset += len(raw)
    header = json.dumps(
        {"config": model.config.to_dict(), "entries": entries},
        sort_keys=True,
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack(">I", len(header)))
        fh.write(header)
        for raw in chunks:
            fh.write(raw)


def load_checkpoint(path) -> FilterFormer:
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(MAGIC):
        raise DataError(f"{path}: not a checkpoint file (bad magic)")
    header_start = len(MAGIC) + 4
    if len(blob) < header_start:
        raise DataError(f"{path}: truncated checkpoint (no header length)")
    header_len = struct.unpack(">I", blob[len(MAGIC):header_start])[0]
    if len(blob) < header_start + header_len:
        raise DataError(
            f"{path}: truncated checkpoint (header needs {header_len} bytes, "
            f"{len(blob) - header_start} present)"
        )
    try:
        header = json.loads(blob[header_start:header_start + header_len])
    except ValueError as exc:
        raise DataError(f"{path}: corrupt checkpoint header: {exc}") from exc
    cfg = ModelConfig.from_dict(header["config"])
    model = FilterFormer(cfg, np.random.default_rng(0))
    payload = blob[header_start + header_len:]
    by_name = {e["name"]: e for e in header["entries"]}
    for name, value in model.named_state():
        entry = by_name.pop(name, None)
        if entry is None:
            raise DataError(f"{path}: checkpoint is missing entry {name!r}")
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        if start < 0 or start + 8 * count > len(payload):
            raise DataError(
                f"{path}: entry {name!r} needs bytes {start}..{start + 8 * count} "
                f"of a {len(payload)}-byte payload"
            )
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=start)
        arr = arr.astype(np.float64).reshape(shape)
        target = value.data if isinstance(value, Tensor) else value
        if target.shape != shape:
            raise DataError(
                f"{path}: entry {name!r} has shape {shape}, model expects {target.shape}"
            )
        target[...] = arr
    if by_name:
        raise DataError(f"{path}: unexpected extra entries {sorted(by_name)}")
    return model
