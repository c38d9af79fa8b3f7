"""Synthetic table corpus: images with exact structure, content, and box truth.

Rendering is deliberately primitive: a fixed 3x5 bitmap font on a white
canvas, uniform grid lines, rectangular merges.  Recognition is meant to be
OCR-trivial so experiments isolate the decoding machinery, not vision.
All randomness flows from one seed per record; images are quantized to 8-bit
at generation time so in-memory and on-disk pixels are identical.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

import numpy as np

from . import vocab as V

INK = 0  # glyph pixel value (uint8)
BORDER = 120
PAPER = 255

_GLYPH_ROWS = {
    "a": (".#.", "#.#", "###", "#.#", "#.#"),
    "b": ("##.", "#.#", "##.", "#.#", "##."),
    "c": (".##", "#..", "#..", "#..", ".##"),
    "d": ("##.", "#.#", "#.#", "#.#", "##."),
    "e": ("###", "#..", "##.", "#..", "###"),
    "f": ("###", "#..", "##.", "#..", "#.."),
    "g": (".##", "#..", "#.#", "#.#", ".##"),
    "h": ("#.#", "#.#", "###", "#.#", "#.#"),
    "i": ("###", ".#.", ".#.", ".#.", "###"),
    "j": ("..#", "..#", "..#", "#.#", ".#."),
    "k": ("#.#", "##.", "#..", "##.", "#.#"),
    "l": ("#..", "#..", "#..", "#..", "###"),
    "m": ("#.#", "###", "#.#", "#.#", "#.#"),
    "n": ("##.", "#.#", "#.#", "#.#", "#.#"),
    "o": (".#.", "#.#", "#.#", "#.#", ".#."),
    "p": ("##.", "#.#", "##.", "#..", "#.."),
    "q": (".#.", "#.#", "#.#", "###", ".##"),
    "r": ("##.", "#.#", "##.", "#.#", "#.#"),
    "s": (".##", "#..", ".#.", "..#", "##."),
    "t": ("###", ".#.", ".#.", ".#.", ".#."),
    "u": ("#.#", "#.#", "#.#", "#.#", "###"),
    "v": ("#.#", "#.#", "#.#", "#.#", ".#."),
    "w": ("#.#", "#.#", "#.#", "###", "#.#"),
    "x": ("#.#", "#.#", ".#.", "#.#", "#.#"),
    "y": ("#.#", "#.#", ".#.", ".#.", ".#."),
    "z": ("###", "..#", ".#.", "#..", "###"),
    "0": ("###", "#.#", "#.#", "#.#", "###"),
    "1": (".#.", "##.", ".#.", ".#.", "###"),
    "2": ("##.", "..#", ".#.", "#..", "###"),
    "3": ("###", "..#", ".##", "..#", "###"),
    "4": ("#.#", "#.#", "###", "..#", "..#"),
    "5": ("###", "#..", "##.", "..#", "##."),
    "6": (".##", "#..", "###", "#.#", "###"),
    "7": ("###", "..#", "..#", ".#.", ".#."),
    "8": ("###", "#.#", "###", "#.#", "###"),
    "9": ("###", "#.#", "###", "..#", "##."),
    ".": ("...", "...", "...", "...", ".#."),
    ",": ("...", "...", "...", ".#.", "#.."),
    "-": ("...", "...", "###", "...", "..."),
    "%": ("#..", "..#", ".#.", "#..", "..#"),
}

GLYPH_W, GLYPH_H = 3, 5
ADVANCE, LINE_STEP = 4, 6  # glyph plus 1px gap, in font units

GLYPHS = {
    ch: np.array([[c == "#" for c in row] for row in rows], dtype=bool)
    for ch, rows in _GLYPH_ROWS.items()
}


@dataclass(frozen=True)
class GenSpec:
    """Distribution parameters for one corpus; ranges are inclusive."""

    rows: tuple[int, int] = (2, 3)
    cols: tuple[int, int] = (2, 3)
    merge_prob: float = 0.0
    max_span: int = 2
    max_merges: int = 2
    content_len: tuple[int, int] = (5, 10)
    border_prob: float = 1.0
    glyph_scale: int = 2
    image_side: int = 128
    margin: int = 4
    space_prob: float = 0.12

    def validate(self) -> None:
        if self.rows[0] < 1 or self.cols[0] < 1:
            raise ValueError("need at least one row and one column")
        if self.content_len[0] < 0:
            raise ValueError("content length must be nonnegative")
        if not 2 <= self.max_span <= V.MAX_SPAN:
            raise ValueError(f"max_span must lie in 2..{V.MAX_SPAN}")


PRESETS = {
    # few large cells with long-ish contents
    "wide": GenSpec(rows=(2, 3), cols=(2, 3), merge_prob=0.08, content_len=(5, 10), glyph_scale=2),
    # many small cells; exercises the parallel decoder's pass-count advantage
    "dense": GenSpec(rows=(5, 5), cols=(6, 6), merge_prob=0.05, content_len=(7, 12), glyph_scale=1),
}


@dataclass
class TableRecord:
    image: np.ndarray  # (side, side) float64 in [0,1], 8-bit quantized
    structure_ids: tuple[int, ...]
    cells: tuple[str, ...]
    boxes: np.ndarray  # (n_cells, 4) normalized cx, cy, w, h
    is_complex: bool
    seed: tuple[int, ...]

    def html(self) -> str:
        return V.render_html(self.structure_ids, list(self.cells))

    def n_cells(self) -> int:
        return len(self.cells)


@dataclass
class _Cell:
    r: int
    c: int
    rowspan: int
    colspan: int
    rect: tuple[int, int, int, int]  # x0, y0, x1, y1 pixel bounds (x1/y1 exclusive)


def _layout_grid(spec: GenSpec, rng: np.random.Generator) -> tuple[list[_Cell], int, int]:
    rows = int(rng.integers(spec.rows[0], spec.rows[1] + 1))
    cols = int(rng.integers(spec.cols[0], spec.cols[1] + 1))
    side, m = spec.image_side, spec.margin
    xs = np.linspace(m, side - m, cols + 1).round().astype(int)
    ys = np.linspace(m, side - m, rows + 1).round().astype(int)
    covered = np.zeros((rows, cols), dtype=bool)
    spans = np.ones((rows, cols, 2), dtype=int)
    merges = 0
    for r in range(rows):
        for c in range(cols):
            if covered[r, c] or merges >= spec.max_merges:
                continue
            if rng.random() >= spec.merge_prob:
                continue
            rs = int(rng.integers(1, spec.max_span + 1))
            cs = int(rng.integers(1, spec.max_span + 1))
            if rs == 1 and cs == 1:
                rs = 2  # a merge must span something
            if r + rs > rows or c + cs > cols:
                continue  # infeasible here: skip, stream moves on
            block = covered[r : r + rs, c : c + cs]
            if block.any():
                continue
            block[:] = True
            covered[r, c] = False  # top-left stays the anchor cell
            spans[r, c] = (rs, cs)
            merges += 1
    cells = []
    for r in range(rows):
        for c in range(cols):
            if covered[r, c]:
                continue
            rs, cs = spans[r, c]
            rect = (int(xs[c]), int(ys[r]), int(xs[c + cs]), int(ys[r + rs]))
            cells.append(_Cell(r, c, int(rs), int(cs), rect))
    return cells, rows, cols


def _cell_capacity(rect, scale: int) -> tuple[int, int]:
    """(chars per line, line count) that fit the padded cell interior."""
    pad = 1 + scale
    w = rect[2] - rect[0] - 2 * pad
    h = rect[3] - rect[1] - 2 * pad
    per_line = max(0, (w + scale) // (ADVANCE * scale))
    lines = max(0, (h + scale) // (LINE_STEP * scale))
    return int(per_line), int(lines)


_CHARS = np.array(list("abcdefghijklmnopqrstuvwxyz0123456789.,-%"))


def _sample_content(length: int, spec: GenSpec, rng: np.random.Generator) -> str:
    out: list[str] = []
    for i in range(length):
        can_space = 0 < i < length - 1 and out[-1] != " "
        if can_space and rng.random() < spec.space_prob:
            out.append(" ")
        else:
            out.append(str(rng.choice(_CHARS)))
    return "".join(out)


def _render_text(canvas: np.ndarray, rect, text: str, scale: int):
    """Draw text with per-line wrap; returns the ink extent or None."""
    pad = 1 + scale
    per_line, max_lines = _cell_capacity(rect, scale)
    if per_line == 0 or max_lines == 0:
        return None
    x0, y0 = rect[0] + pad, rect[1] + pad
    extent = None
    for li in range(min(max_lines, (len(text) + per_line - 1) // per_line)):
        line = text[li * per_line : (li + 1) * per_line]
        y = y0 + li * LINE_STEP * scale
        for ci, ch in enumerate(line):
            if ch == " " or ch not in GLYPHS:
                continue
            x = x0 + ci * ADVANCE * scale
            bitmap = np.kron(GLYPHS[ch], np.ones((scale, scale), dtype=bool))
            gh, gw = bitmap.shape
            canvas[y : y + gh, x : x + gw][bitmap] = INK
            if extent is None:
                extent = [x, y, x + gw, y + gh]
            else:
                extent[0] = min(extent[0], x)
                extent[1] = min(extent[1], y)
                extent[2] = max(extent[2], x + gw)
                extent[3] = max(extent[3], y + gh)
    return extent


def generate(spec: GenSpec, seed) -> TableRecord:
    """One record; identical seed gives a bitwise-identical record."""
    spec.validate()
    rng = np.random.default_rng(seed)
    cells, n_rows, n_cols = _layout_grid(spec, rng)
    side = spec.image_side
    canvas = np.full((side, side), PAPER, dtype=np.uint8)

    if rng.random() < spec.border_prob:
        for cell in cells:
            x0, y0, x1, y1 = cell.rect
            canvas[y0, x0:x1] = BORDER
            canvas[y1 - 1, x0:x1] = BORDER
            canvas[y0:y1, x0] = BORDER
            canvas[y0:y1, x1 - 1] = BORDER

    texts: list[str] = []
    boxes = np.zeros((len(cells), 4))
    for i, cell in enumerate(cells):
        per_line, lines = _cell_capacity(cell.rect, spec.glyph_scale)
        lo, hi = spec.content_len
        length = int(rng.integers(lo, hi + 1))
        length = min(length, per_line * lines)
        text = _sample_content(length, spec, rng).strip()
        texts.append(text)
        extent = _render_text(canvas, cell.rect, text, spec.glyph_scale)
        if extent is None:
            cx = (cell.rect[0] + cell.rect[2]) / 2 / side
            cy = (cell.rect[1] + cell.rect[3]) / 2 / side
            boxes[i] = (cx, cy, 0.0, 0.0)
        else:
            x0, y0, x1, y1 = extent
            boxes[i] = ((x0 + x1) / 2 / side, (y0 + y1) / 2 / side, (x1 - x0) / side, (y1 - y0) / side)

    ids: list[int] = []
    is_complex = False
    by_row: dict[int, list[_Cell]] = {}
    for cell in cells:
        by_row.setdefault(cell.r, []).append(cell)
    for r in range(n_rows):
        ids.append(V.STRUCTURE[V.TR_OPEN])
        for cell in sorted(by_row.get(r, []), key=lambda c: c.c):
            if cell.rowspan == 1 and cell.colspan == 1:
                ids.append(V.STRUCTURE[V.TD_MERGED])
            else:
                is_complex = True
                ids.append(V.STRUCTURE[V.TD_OPEN])
                if cell.colspan > 1:
                    ids.append(V.STRUCTURE[f' colspan="{cell.colspan}"'])
                if cell.rowspan > 1:
                    ids.append(V.STRUCTURE[f' rowspan="{cell.rowspan}"'])
                ids.append(V.STRUCTURE[V.GT])
                ids.append(V.STRUCTURE[V.TD_CLOSE])
        ids.append(V.STRUCTURE[V.TR_CLOSE])

    seed_tuple = tuple(np.atleast_1d(np.asarray(seed, dtype=np.int64)).tolist())
    return TableRecord(
        image=canvas.astype(np.float64) / 255.0,
        structure_ids=tuple(ids),
        cells=tuple(texts),
        boxes=boxes,
        is_complex=is_complex,
        seed=seed_tuple,
    )


def sample_seeds(master_seed: int, n: int) -> list[tuple[int, int]]:
    """Self-contained per-record seeds; record i is regenerable from (master, i)."""
    return [(master_seed, i) for i in range(n)]


# -- corpus I/O ---------------------------------------------------------------


def write_pgm(path: str, image: np.ndarray) -> None:
    arr = np.round(np.asarray(image) * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode())
        fh.write(arr.tobytes())


def read_pgm(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM file")
    fields: list[bytes] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":  # comment line
            pos = data.index(b"\n", pos) + 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    w, h, maxval = (int(f) for f in fields)
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    pos += 1
    pixels = np.frombuffer(data, dtype=np.uint8, count=w * h, offset=pos)
    return pixels.reshape(h, w).astype(np.float64) / 255.0


def record_to_annotation(rec: TableRecord, rec_id: str, filename: str) -> dict:
    return {
        "id": rec_id,
        "filename": filename,
        "structure_tokens": [V.STRUCTURE.decode(i) for i in rec.structure_ids],
        "cells": [
            {"text": t, "box": [float(x) for x in b]} for t, b in zip(rec.cells, rec.boxes)
        ],
        "complex": rec.is_complex,
        "seed": list(rec.seed),
    }


def annotation_to_record(ann: dict, image: np.ndarray) -> TableRecord:
    ids = tuple(V.STRUCTURE[t] for t in ann["structure_tokens"])
    cells = tuple(c["text"] for c in ann["cells"])
    boxes = (
        np.array([c["box"] for c in ann["cells"]], dtype=np.float64)
        if ann["cells"]
        else np.zeros((0, 4))
    )
    return TableRecord(
        image=image,
        structure_ids=ids,
        cells=cells,
        boxes=boxes,
        is_complex=bool(ann["complex"]),
        seed=tuple(ann.get("seed", ())),
    )


def emit_corpus(n: int, spec: GenSpec, path: str, master_seed: int = 0) -> list[str]:
    """Write n records under path; returns the record ids."""
    os.makedirs(path, exist_ok=True)
    ids = []
    with open(os.path.join(path, "annotations.jsonl"), "w", encoding="utf-8") as fh:
        for i, seed in enumerate(sample_seeds(master_seed, n)):
            rec = generate(spec, seed)
            rec_id = f"table_{i:05d}"
            filename = rec_id + ".pgm"
            write_pgm(os.path.join(path, filename), rec.image)
            fh.write(json.dumps(record_to_annotation(rec, rec_id, filename)) + "\n")
            ids.append(rec_id)
    manifest = {
        "count": n,
        "master_seed": master_seed,
        "image_format": "pgm",
        "spec": dataclasses.asdict(spec),
    }
    with open(os.path.join(path, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return ids


def load_corpus(path: str) -> list[tuple[str, TableRecord]]:
    """Read an emitted corpus back as (id, record) pairs in file order."""
    ann_path = os.path.join(path, "annotations.jsonl")
    if not os.path.exists(ann_path):
        raise ValueError(f"no annotations.jsonl under {path}")
    out = []
    with open(ann_path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            ann = json.loads(line)
            image = read_pgm(os.path.join(path, ann["filename"]))
            out.append((ann["id"], annotation_to_record(ann, image)))
    return out


def prepare_image(image: np.ndarray, side: int) -> np.ndarray:
    """Pad an arbitrary grayscale image to square with paper white, then
    bilinear-resize to the model side.  Generated corpora never need this.

    Raises ValueError for anything but a nonempty 2-D array of finite pixels.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2 or img.size == 0:
        raise ValueError(f"image must be a nonempty 2-D grayscale array, got shape {img.shape}")
    bad = np.argwhere(~np.isfinite(img))
    if bad.size:
        r, c = bad[0]
        raise ValueError(f"image pixel ({r}, {c}) is {img[r, c]}, not a finite value")
    h, w = img.shape
    s = max(h, w)
    padded = np.full((s, s), PAPER / 255.0)
    padded[:h, :w] = img
    if s == side:
        return padded
    # bilinear sample at pixel centers
    coords = (np.arange(side) + 0.5) * s / side - 0.5
    c0 = np.clip(np.floor(coords).astype(int), 0, s - 1)
    c1 = np.clip(c0 + 1, 0, s - 1)
    frac = np.clip(coords - c0, 0.0, 1.0)
    top = padded[c0][:, c0] * (1 - frac)[None, :] + padded[c0][:, c1] * frac[None, :]
    bot = padded[c1][:, c0] * (1 - frac)[None, :] + padded[c1][:, c1] * frac[None, :]
    return top * (1 - frac)[:, None] + bot * frac[:, None]
