"""Flat model-state checkpoints: JSON header plus little-endian float64 payload.

Layout: magic bytes, a big-endian uint32 header length, the UTF-8 JSON
header, then the model's state arena (parameters, then buffers) as one
block. The header carries the model config and a manifest of (name, shape,
offset) entries in the model's deterministic traversal order; a file loads
only if its manifest is exactly the one its config's model lays out. Reload
is bit-exact: float64 -> bytes -> float64 is lossless.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct

import numpy as np

from ..errors import ConfigError, DataError, config_section
from ..fileio import atomic_write
from ..nn import packed_offsets
from .network import FilterFormer, ModelConfig, count_parameters

MAGIC = b"SFCKPT1\n"


def _manifest(model: FilterFormer) -> list[dict]:
    """One (name, shape, byte offset) entry per state array, where the state arena holds it."""
    names, arrays = zip(*model.named_state())
    return [{"name": name, "shape": list(a.shape), "offset": 8 * lo}
            for name, a, lo in zip(names, arrays, packed_offsets(arrays))]


def _canonical(value) -> str:
    # JSON text compares exactly: true is not 1, 2.0 is not 2, key order is moot
    return json.dumps(value, sort_keys=True)


def save_checkpoint(model: FilterFormer, path) -> None:
    """Write the header, then the state arena as one block."""
    arena = model.state_arena()
    header = _canonical(
        {"config": dataclasses.asdict(model.config), "entries": _manifest(model)}
    ).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack(">I", len(header)))
        fh.write(header)
        fh.write(np.ascontiguousarray(arena, dtype="<f8"))


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
    if not isinstance(header, dict):
        raise DataError(f"{path}: checkpoint header is not a JSON object")
    payload = memoryview(blob)[header_start + header_len:]  # a window, not a copy
    try:
        cfg = config_section(ModelConfig, header.get("config"), "config")
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
    expected = _manifest(model)
    found = header.get("entries")
    if _canonical(found) != _canonical(expected):
        found = found if isinstance(found, list) else [found]
        i = next(i for i in range(max(len(found), len(expected)))
                 if _canonical(found[i:i + 1]) != _canonical(expected[i:i + 1]))
        says = _canonical(found[i]) if i < len(found) else "missing"
        wants = _canonical(expected[i]) if i < len(expected) else "nothing"
        raise DataError(f"{path}: checkpoint entry {i} is {says}, the model expects {wants}")
    arena = model.state_arena()
    if len(payload) != arena.nbytes:
        raise DataError(
            f"{path}: the payload holds {len(payload)} bytes, the model state needs {arena.nbytes}"
        )
    arena[...] = np.frombuffer(payload, dtype="<f8")
    # a sum is finite only if every term is; an overflowing sum of finite
    # values finds no culprit below and the load goes on
    with np.errstate(over="ignore", invalid="ignore"):
        finite = math.isfinite(arena.sum())
    if not finite:
        for name, a in model.named_state():
            if not np.isfinite(a).all():
                raise DataError(f"{path}: entry {name!r} holds non-finite values")
    return model
