"""Weight checkpoints: a flat named-tensor container.

Layout (all integers little-endian, documented in docs/checkpoint-format.md):

    magic   8 bytes  b"TABMARK1"
    config  u32 length + UTF-8 key=value text (the ModelConfig)
    count   u32 number of tensors
    tensor  u32 name length + UTF-8 name
            u32 rank + rank * u32 dims
            float64 raw values, C order

Tensors appear in registry order.  Loading rebuilds the model from the
embedded config and refuses name or shape mismatches, so a checkpoint can
never half-apply.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .model import ModelConfig, TableModel

MAGIC = b"TABMARK1"


def save(path: str, model: TableModel) -> None:
    cfg_text = model.cfg.to_text().encode("utf-8")
    items = list(model.params.items())
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(cfg_text)))
        fh.write(cfg_text)
        fh.write(struct.pack("<I", len(items)))
        for name, tensor in items:
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            shape = tensor.data.shape
            fh.write(struct.pack("<I", len(shape)))
            for dim in shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())


def _read(fh, n: int) -> bytes:
    """The next n bytes; checked against the bytes left first, so a corrupt
    length cannot ask for a huge read."""
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError(f"{fh.name}: checkpoint truncated")
    return fh.read(n)


def _read_u32(fh) -> int:
    return struct.unpack("<I", _read(fh, 4))[0]


def _read_text(fh) -> str:
    try:
        return _read(fh, _read_u32(fh)).decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError(f"{fh.name}: text at byte {fh.tell()} is not UTF-8") from None


def load(path: str) -> TableModel:
    """Rebuild a model from a checkpoint; every stored tensor must match."""
    with open(path, "rb") as fh:
        if _read(fh, len(MAGIC)) != MAGIC:
            raise ValueError(f"{path}: not a checkpoint (bad magic)")
        text = _read_text(fh)
        try:
            cfg = ModelConfig.from_text(text)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
        model = TableModel(cfg)
        expected = dict(model.params.items())
        seen: set[str] = set()
        for _ in range(_read_u32(fh)):
            name = _read_text(fh)
            rank = _read_u32(fh)
            shape = tuple(_read_u32(fh) for _ in range(rank))
            # checked before the data is read, so a header cannot ask for a huge read
            if name in seen:
                raise ValueError(f"{path}: duplicate tensor {name!r}")
            if name not in expected:
                raise ValueError(f"{path}: unknown tensor {name!r}")
            if expected[name].data.shape != shape:
                raise ValueError(
                    f"{path}: tensor {name!r} has shape {shape}, "
                    f"model expects {expected[name].data.shape}"
                )
            raw = _read(fh, 8 * expected[name].data.size)
            data = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
            if not np.isfinite(data).all():
                raise ValueError(f"{path}: tensor {name!r} holds a non-finite value")
            expected[name].data = data
            seen.add(name)
        missing = sorted(set(expected) - seen)
        if missing:
            raise ValueError(f"{path}: missing tensors {missing[:3]}")
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after last tensor")
    return model
