"""Weight checkpoints: a flat named-tensor container.

Layout (all integers little-endian, documented in docs/checkpoint-format.md):

    magic   8 bytes  b"TABMARK2"
    config  u32 length + UTF-8 key=value text (the ModelConfig)
    count   u32 number of tensors
    tensor  u32 name length + UTF-8 name
            u32 rank + rank * u32 dims
            float64 raw values, C order
    crc     u32 zlib.crc32 of every byte after the magic

Tensors appear in registry order.  Loading rebuilds the model from the
embedded config and refuses name or shape mismatches, so a checkpoint can
never half-apply.  A "TABMARK1" file, the same layout without the crc, still
loads.
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np

from .model import ModelConfig, TableModel

MAGIC = b"TABMARK2"
MAGIC_V1 = b"TABMARK1"  # no checksum


def _body(model: TableModel):
    """The bytes after the magic and before the checksum, in pieces."""
    cfg_text = model.cfg.to_text().encode("utf-8")
    items = list(model.params.items())
    yield struct.pack("<I", len(cfg_text)) + cfg_text
    yield struct.pack("<I", len(items))
    for name, tensor in items:
        raw = name.encode("utf-8")
        shape = tensor.data.shape
        yield struct.pack(f"<I{len(raw)}sI{len(shape)}I", len(raw), raw, len(shape), *shape)
        yield np.ascontiguousarray(tensor.data, dtype="<f8").tobytes()


def save(path: str, model: TableModel) -> None:
    crc = 0
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        for raw in _body(model):
            fh.write(raw)
            crc = zlib.crc32(raw, crc)
        fh.write(struct.pack("<I", crc))


class _Reader:
    """Reads a checkpoint front to back, keeping the crc32 of what it read.
    Every read is checked against the bytes left first, so a corrupt length
    cannot ask for a huge read."""

    def __init__(self, fh):
        self.fh = fh
        self.left = os.fstat(fh.fileno()).st_size
        self.crc = 0

    def take(self, n: int) -> bytes:
        if n > self.left:
            raise ValueError(f"{self.fh.name}: checkpoint truncated")
        raw = self.fh.read(n)
        self.left -= n
        self.crc = zlib.crc32(raw, self.crc)
        return raw

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self) -> str:
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError:
            where = f"{self.fh.name}: text at byte {self.fh.tell()}"
            raise ValueError(f"{where} is not UTF-8") from None


def load(path: str) -> TableModel:
    """Rebuild a model from a checkpoint; every stored tensor must match,
    and a TABMARK2 file's checksum too."""
    with open(path, "rb") as fh:
        src = _Reader(fh)
        magic = src.take(len(MAGIC))
        if magic not in (MAGIC, MAGIC_V1):
            raise ValueError(f"{path}: not a checkpoint (bad magic)")
        src.crc = 0  # the checksum covers every byte after the magic
        text = src.text()
        try:
            cfg = ModelConfig.from_text(text)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
        model = TableModel(cfg)
        expected = dict(model.params.items())
        seen: set[str] = set()
        for _ in range(src.u32()):
            name = src.text()
            rank = src.u32()
            shape = tuple(src.u32() for _ in range(rank))
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
            raw = src.take(8 * expected[name].data.size)
            data = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
            if not np.isfinite(data).all():
                raise ValueError(f"{path}: tensor {name!r} holds a non-finite value")
            expected[name].data = data
            seen.add(name)
        missing = sorted(set(expected) - seen)
        if missing:
            raise ValueError(f"{path}: missing tensors {missing[:3]}")
        if magic == MAGIC:
            crc = src.crc
            stored = src.u32()
            if stored != crc:
                raise ValueError(f"{path}: checksum {stored:08x}, but the data's is {crc:08x}")
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the end of the checkpoint")
    return model
