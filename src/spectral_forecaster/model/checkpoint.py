"""Flat named-array checkpoints: JSON header plus little-endian float64 payload.

Layout: magic bytes, a big-endian uint32 header length, the UTF-8 JSON
header, then the raw concatenated arrays. The header carries the model
config and a manifest of (name, shape, offset) entries covering parameters
and buffers in the model's deterministic traversal order. Reload is
bit-exact: float64 -> bytes -> float64 is lossless.
"""

from __future__ import annotations

import dataclasses
import json
import struct

import numpy as np

from ..errors import ConfigError, DataError, config_section
from ..fileio import atomic_write
from ..numeric.tensor import Tensor
from .network import FilterFormer, ModelConfig, count_parameters

MAGIC = b"SFCKPT1\n"


def save_checkpoint(model: FilterFormer, path) -> None:
    """Write the parameter arena as one block, then each buffer.

    Parameters lead ``named_state`` in arena order, so the bytes are those of
    every entry written in turn, with no per-parameter copy.
    """
    arena = model.parameter_arena()
    entries = []
    offset = 0
    for name, value in model.named_state():
        arr = value.data if isinstance(value, Tensor) else value
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += 8 * arr.size
    header = json.dumps(
        {"config": dataclasses.asdict(model.config), "entries": entries},
        sort_keys=True,
    ).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack(">I", len(header)))
        fh.write(header)
        fh.write(np.ascontiguousarray(arena, dtype="<f8"))
        for _, b in model.named_buffers():
            fh.write(np.ascontiguousarray(b, dtype="<f8"))


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
    entries = _checked_entries(path, header)
    payload = memoryview(blob)[header_start + header_len:]  # a window, not a copy
    try:
        cfg = config_section(ModelConfig, header["config"], "config")
        n_params = count_parameters(cfg)[0]
        # size the model from the config before allocating it
        if 8 * n_params > len(payload):
            raise DataError(
                f"{path}: config needs {n_params} parameters, "
                f"the payload holds {len(payload) // 8} values"
            )
        model = FilterFormer(cfg, np.random.default_rng(0))
    except (ConfigError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: checkpoint header holds an invalid model config: {exc}") from exc
    by_name = {e["name"]: e for e in entries}
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
        target = value.data if isinstance(value, Tensor) else value
        if target.shape != shape:
            raise DataError(
                f"{path}: entry {name!r} has shape {shape}, model expects {target.shape}"
            )
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=start).reshape(shape)
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: entry {name!r} holds non-finite values")
        target[...] = arr
    if by_name:
        raise DataError(f"{path}: unexpected extra entries {sorted(by_name)}")
    return model


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _checked_entries(path, header) -> list[dict]:
    """The header's entry list, once its keys and value types are known to be right."""
    if not isinstance(header, dict):
        raise DataError(f"{path}: checkpoint header is not a JSON object")
    if not isinstance(header.get("config"), dict):
        raise DataError(f"{path}: checkpoint header has no 'config' object")
    entries = header.get("entries")
    if not isinstance(entries, list):
        raise DataError(f"{path}: checkpoint header has no 'entries' list")
    for i, e in enumerate(entries):
        if not (isinstance(e, dict) and isinstance(e.get("name"), str)
                and isinstance(e.get("shape"), list)
                and all(_is_int(d) and d >= 0 for d in e["shape"])
                and _is_int(e.get("offset"))):
            raise DataError(
                f"{path}: checkpoint entry {i} needs a string 'name', a list-of-int "
                "'shape' and an int 'offset'"
            )
    return entries
