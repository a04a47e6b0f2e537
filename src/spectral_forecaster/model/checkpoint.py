"""Flat model-state checkpoints: JSON header plus little-endian float64 payload.

Layout: magic bytes, a big-endian uint32 header length, the UTF-8 JSON
header, then the model's state arena (parameters, then buffers) as one
block. The header carries the model config and a manifest of (name, shape,
offset) entries in the model's deterministic traversal order (earlier files'
configs also name the ``RETIRED`` options, dropped on load); a file loads
only if its manifest is exactly the one its config's model lays out, and its
payload exactly that layout's bytes. Reload is bit-exact: float64 -> bytes ->
float64 is lossless.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import struct
import sys

import numpy as np

from ..errors import ConfigError, DataError, config_section
from ..fileio import atomic_write
from ..nn import first_non_finite, packed_offsets
from .network import FilterFormer, ModelConfig

MAGIC = b"SFCKPT1\n"
# options earlier files name in their header config, each at the one value
# that loads; files written now leave them out, and earlier code reads the
# absence as that same default
RETIRED = {"activation": "gelu", "spectral.filter_axis": "embedding",
           "spectral.filtered_axis_length": None}


def _manifest(model: FilterFormer) -> list[dict]:
    """One (name, shape, byte offset) entry per state array, where the state arena holds it."""
    names, arrays = zip(*model.named_state())
    return [{"name": name, "shape": list(a.shape), "offset": 8 * lo}
            for name, a, lo in zip(names, arrays, packed_offsets(arrays))]


def _entry_texts(entries) -> list[str]:
    """Each manifest entry as JSON text; entries that are not a list read as one entry."""
    # JSON text compares exactly: true is not 1, 2.0 is not 2, key order is moot
    entries = entries if isinstance(entries, list) else [entries]
    return [json.dumps(e, sort_keys=True) for e in entries]


def _drop_retired(config, path):
    """Drop the ``RETIRED`` keys from a header's ``config``; one at another value is a DataError."""
    for dotted, old in RETIRED.items():
        outer, _, key = dotted.rpartition(".")
        section = config.get(outer) if outer and isinstance(config, dict) else config
        if isinstance(section, dict) and key in section:
            value = section.pop(key)
            if value != old:
                raise DataError(f"{path}: checkpoint header sets the retired option "
                                f"config.{dotted} to {value!r}; only {old!r} loads")


def save_checkpoint(model: FilterFormer, path) -> None:
    """Write the header, then the state arena as one block."""
    arena = model.state_arena()
    header = json.dumps(
        {"config": dataclasses.asdict(model.config), "entries": _manifest(model)}, sort_keys=True
    ).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack(">I", len(header)))
        fh.write(header)
        fh.write(np.ascontiguousarray(arena, dtype="<f8"))


def load_checkpoint(path) -> FilterFormer:
    """The model a checkpoint holds, its payload read straight into the state arena.

    The header's config builds the layout, ``FilterFormer(cfg)``, which
    allocates nothing and draws nothing; the payload's size is checked
    against it before the arena is allocated.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(len(MAGIC) + 4)
        if not head.startswith(MAGIC):
            raise DataError(f"{path}: not a checkpoint file (bad magic)")
        if len(head) < len(MAGIC) + 4:
            raise DataError(f"{path}: truncated checkpoint (no header length)")
        header_len = struct.unpack(">I", head[len(MAGIC):])[0]
        if size < len(head) + header_len:
            raise DataError(
                f"{path}: truncated checkpoint (header needs {header_len} bytes, "
                f"{size - len(head)} present)"
            )
        try:
            header = json.loads(fh.read(header_len))
            if not isinstance(header, dict):
                raise DataError(f"{path}: checkpoint header is not a JSON object")
            # as text now, where too deep a nesting is a corrupt header
            found = _entry_texts(header.get("entries"))
        except (ValueError, RecursionError) as exc:
            raise DataError(f"{path}: corrupt checkpoint header: {exc}") from exc
        _drop_retired(header.get("config"), path)
        try:
            cfg = config_section(ModelConfig, header.get("config"), "config")
            model = FilterFormer(cfg)
        except (ConfigError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: checkpoint header holds an invalid model config: {exc}") from exc
        n_state = sum(a.size for _, a in model.named_state())
        payload = size - len(head) - header_len
        if payload != 8 * n_state:
            raise DataError(f"{path}: the payload holds {payload} bytes, the config's "
                            f"{n_state} parameters and buffers need {8 * n_state}")
        pairs = itertools.zip_longest(found, _entry_texts(_manifest(model)))
        for i, (says, wants) in enumerate(pairs):
            if says != wants:
                raise DataError(f"{path}: checkpoint entry {i} is {says or 'missing'}, "
                                f"the model expects {wants or 'nothing'}")
        arena = model.state_arena()
        if fh.readinto(memoryview(arena).cast("B")) != arena.nbytes:
            raise DataError(f"{path}: the payload shrank while it was read")
    if sys.byteorder == "big":
        arena.byteswap(inplace=True)
    bad = first_non_finite(arena, model.named_state())
    if bad is not None:
        raise DataError(f"{path}: entry {bad!r} holds non-finite values")
    return model
