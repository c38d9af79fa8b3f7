"""Synthetic table corpus: images with exact structure, content, and box truth.

Rendering is deliberately primitive: a fixed 3x5 bitmap font on a white
canvas, uniform grid lines, rectangular merges.  Recognition is meant to be
OCR-trivial so experiments isolate the decoding machinery, not vision.
All randomness flows from one seed per record.  Images are held as 8-bit
gray codes (``uint8``, one byte per pixel) from generation through the PGM
files and back; ``prepare_image`` is the one place where codes become the
model's [0, 1] floats.

The stream is part of the corpus format: a record is its seed.  Each
character of a cell's content takes one bounded integer,
``rng.integers(len(_CHARS))``, the draw ``rng.choice`` over the same 40
characters took, so corpora generated before glyphs were scaled with
``repeat`` and drawn from a ``str`` are unchanged, byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

import numpy as np

from . import vocab as V
from .model import ModelConfig

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
        """Raise ValueError, naming the key and its value, for a spec no table
        can be drawn from.  generate calls this for every record, so the checks
        stay plain comparisons."""
        for key, low in (("rows", 1), ("cols", 1), ("content_len", 0)):
            pair = getattr(self, key)
            if not (len(pair) == 2 and low <= pair[0] <= pair[1]):
                raise ValueError(f"gen.spec key {key} needs a pair {low} <= lo <= hi, got {pair!r}")
        most = ModelConfig.LIMITS["image_side"]
        checks = (
            ("merge_prob", 0.0 <= self.merge_prob <= 1.0, "a probability in [0, 1]"),
            ("border_prob", 0.0 <= self.border_prob <= 1.0, "a probability in [0, 1]"),
            ("space_prob", 0.0 <= self.space_prob <= 1.0, "a probability in [0, 1]"),
            ("max_span", 2 <= self.max_span <= V.MAX_SPAN, f"an integer in 2..{V.MAX_SPAN}"),
            ("max_merges", self.max_merges >= 0, "an integer >= 0"),
            ("glyph_scale", self.glyph_scale >= 1, "an integer >= 1"),
            ("margin", self.margin >= 0, "an integer >= 0"),
            ("image_side", self.image_side <= most, f"an integer <= {most}"),
        )
        for key, ok, need in checks:
            if not ok:
                raise ValueError(f"gen.spec key {key} needs {need}, got {getattr(self, key)!r}")
        inner = max(self.rows[1], self.cols[1])
        if self.image_side - 2 * self.margin < inner:  # a pixel per row and column
            raise ValueError(
                f"gen.spec keys image_side and margin need image_side - 2 * margin >= {inner}, "
                f"got {self.image_side} and {self.margin}"
            )


PRESETS = {
    # few large cells with long-ish contents
    "wide": GenSpec(rows=(2, 3), cols=(2, 3), merge_prob=0.08, content_len=(5, 10), glyph_scale=2),
    # many small cells; exercises the parallel decoder's pass-count advantage
    "dense": GenSpec(rows=(5, 5), cols=(6, 6), merge_prob=0.05, content_len=(7, 12), glyph_scale=1),
}


@dataclass
class TableRecord:
    image: np.ndarray  # (side, side) uint8 gray codes, 0 ink to 255 paper
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


_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789.,-%"


def _sample_content(length: int, spec: GenSpec, rng: np.random.Generator) -> str:
    out: list[str] = []
    for i in range(length):
        can_space = 0 < i < length - 1 and out[-1] != " "
        if can_space and rng.random() < spec.space_prob:
            out.append(" ")
        else:
            out.append(_CHARS[rng.integers(len(_CHARS))])
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
            bitmap = GLYPHS[ch].repeat(scale, axis=0).repeat(scale, axis=1)
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
            ids += V.cell_tokens(cell.colspan, cell.rowspan)
            is_complex |= cell.colspan > 1 or cell.rowspan > 1
        ids.append(V.STRUCTURE[V.TR_CLOSE])

    seed_tuple = tuple(np.atleast_1d(np.asarray(seed, dtype=np.int64)).tolist())
    return TableRecord(
        image=canvas,
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
    """Write a 2-D array of 8-bit gray codes as a binary (P5) PGM, byte for
    byte; raise ValueError for any other dtype, which has no exact codes."""
    arr = np.asarray(image)
    if arr.dtype != np.uint8 or arr.ndim != 2:
        raise ValueError(f"{path}: PGM pixels must be 2-D uint8 codes, got {arr.dtype} {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode())
        fh.write(arr.tobytes())


def read_pgm(path: str) -> np.ndarray:
    """Read a binary (P5) 8-bit PGM as its (height, width) uint8 gray codes,
    an array of its own that does not hold the file's bytes.

    One whitespace byte ends the header, and exactly width x height pixel
    bytes follow it: a header line ended by CR LF leaves the LF as a byte
    past the pixels.  Raises ValueError naming the file and the fault for
    anything else, byte counts included.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM file")
    fields: list[int] = []
    pos = 2
    for name in ("width", "height", "maxval"):
        while data[pos : pos + 1].isspace() or data[pos : pos + 1] == b"#":
            if data[pos : pos + 1] == b"#":  # comment line
                pos = data.find(b"\n", pos)
                if pos < 0:
                    raise ValueError(f"{path}: header comment has no line end")
            pos += 1
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token:
            raise ValueError(f"{path}: header ends before its {name}")
        if not token.removeprefix(b"-").isdigit():
            shown = token.decode(errors="replace")
            raise ValueError(f"{path}: header {name} {shown!r} is not an integer")
        fields.append(int(token))
    w, h, maxval = fields
    if w < 1 or h < 1:
        raise ValueError(f"{path}: image shape ({h}, {w}) has a side below 1")
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    have = max(len(data) - pos - 1, 0)  # one whitespace byte ends the header
    if have < w * h:
        raise ValueError(f"{path}: truncated, {have} pixel bytes for a {w}x{h} image")
    if have > w * h:
        raise ValueError(f"{path}: {have} pixel bytes for a {w}x{h} image, {have - w * h} too many")
    pixels = np.frombuffer(data, dtype=np.uint8, count=w * h, offset=pos + 1)
    return pixels.reshape(h, w).copy()


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
    """Raises ValueError naming the fault for a missing or mistyped field, an
    unknown structure token, a structure that does not spell a supported
    table, a cell count or ``complex`` flag that disagrees with the structure,
    a cell that is not a text with a box of 4 numbers in [0, 1], or a
    ``seed`` that is not a list of integers."""
    for key, kind in (("structure_tokens", list), ("cells", list), ("complex", bool)):
        if not isinstance(ann.get(key), kind):
            raise ValueError(f"field {key!r} missing or not a {kind.__name__}")
    ids = []
    for t in ann["structure_tokens"]:
        i = V.STRUCTURE.get(t) if isinstance(t, str) else None
        if i is None:
            raise ValueError(f"unknown structure token {t!r}")
        ids.append(i)
    V._validate_structure(ids)
    n_cells = len(V.iter_cells(ids))
    if len(ann["cells"]) != n_cells:
        raise ValueError(f"{len(ann['cells'])} cells for a structure of {n_cells}")
    if ann["complex"] != (V.STRUCTURE[V.TD_OPEN] in ids):  # valid: <td opens only a span
        have = "no" if ann["complex"] else "a"
        raise ValueError(f"field 'complex' is {ann['complex']}, but the structure has {have} span")
    for k, c in enumerate(ann["cells"]):
        if not isinstance(c, dict) or not isinstance(c.get("text"), str):
            raise ValueError(f"cell {k} has no text string")
        box = c.get("box")
        if not (
            isinstance(box, list)
            and len(box) == 4
            and all(_is_number(x) and 0.0 <= x <= 1.0 for x in box)  # NaN fails the range
        ):
            raise ValueError(f"cell {k} box {box!r} is not 4 numbers in [0, 1]")
    seed = ann.get("seed", [])
    if not (isinstance(seed, list) and all(_is_number(x, int) for x in seed)):
        raise ValueError(f"field 'seed' {seed!r} is not a list of integers")
    cells = tuple(c["text"] for c in ann["cells"])
    boxes = (
        np.array([c["box"] for c in ann["cells"]], dtype=np.float64)
        if ann["cells"]
        else np.zeros((0, 4))
    )
    return TableRecord(
        image=image,
        structure_ids=tuple(ids),
        cells=cells,
        boxes=boxes,
        is_complex=bool(ann["complex"]),
        seed=tuple(seed),
    )


def _is_number(x, kinds=(int, float)) -> bool:
    return isinstance(x, kinds) and not isinstance(x, bool)


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
    """Read an emitted corpus back as (id, record) pairs in file order.

    A faulty annotation line, an image file it names that is not a plain
    file name in the corpus directory, or one that cannot be read as a PGM,
    raises ValueError located as "<path>/annotations.jsonl:<line>: ...".
    """
    ann_path = os.path.join(path, "annotations.jsonl")
    if not os.path.exists(ann_path):
        raise ValueError(f"no annotations.jsonl under {path}")
    out = []
    for lineno, ann in read_json_lines(ann_path):
        where = f"{ann_path}:{lineno}"
        if not isinstance(ann, dict):
            raise ValueError(f"{where}: not a JSON object")
        for key in ("id", "filename"):
            if not isinstance(ann.get(key), str):
                raise ValueError(f"{where}: field {key!r} missing or not a string")
        name = ann["filename"]
        if name in ("", ".", "..") or os.path.basename(name) != name:
            raise ValueError(f"{where}: filename {name!r} is not a file name in the corpus")
        try:
            image = read_pgm(os.path.join(path, name))
            out.append((ann["id"], annotation_to_record(ann, image)))
        except ValueError as e:
            raise ValueError(f"{where}: {e}") from None
        except OSError as e:
            raise ValueError(f"{where}: cannot read {name!r}: {e.strerror or e}") from None
    return out


def read_json_lines(path: str):
    """(line number, value) of each nonblank line of a line-delimited JSON
    file, its lines split as text mode splits them.  A line that is not
    UTF-8 or not JSON raises ValueError located as "<path>:<line>: ..."."""
    with open(path, "rb") as fh:  # bytes: a text-mode read of a bad byte names no line
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines, 1):
        try:
            text = line.decode("utf-8")
            if text.strip():
                yield lineno, json.loads(text)
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ValueError(f"{path}:{lineno}: bad JSON: {e}") from None


def prepare_image(image: np.ndarray, side: int) -> np.ndarray:
    """The model's (side, side) float64 input in [0, 1]: a grayscale image
    padded to square with paper white, then bilinear-resized to the side.
    A generated image at the model's side needs no resize.  The resize
    takes its four taps from the image itself, paper white past its edge,
    so it never builds the padded square: memory is O(side^2 + h * w).

    A uint8 image holds 8-bit gray codes, converted here as code / 255, the
    one place codes become floats.  Any other image holds pixels in [0, 1].
    Raises ValueError for anything but a nonempty 2-D array, naming for a
    float image the first pixel that is not finite or out of range.
    """
    img = np.asarray(image)
    if img.ndim != 2 or img.size == 0:
        raise ValueError(f"image must be a nonempty 2-D grayscale array, got shape {img.shape}")
    if img.dtype == np.uint8:
        img = img.astype(np.float64) / 255.0  # every code is in range
    else:
        img = img.astype(np.float64, copy=False)
        bad = np.argwhere(~((img >= 0.0) & (img <= 1.0)))  # NaN fails both comparisons
        if bad.size:
            r, c = bad[0]
            fault = "outside [0, 1]" if np.isfinite(img[r, c]) else "not a finite value"
            raise ValueError(f"image pixel ({r}, {c}) is {img[r, c]}, {fault}")
    h, w = img.shape
    s, white = max(h, w), PAPER / 255.0
    if s == side:
        padded = np.full((s, s), white)
        padded[:h, :w] = img
        return padded
    # bilinear sample at pixel centers of the padded square
    coords = (np.arange(side) + 0.5) * s / side - 0.5
    c0 = np.clip(np.floor(coords).astype(int), 0, s - 1)
    c1 = np.clip(c0 + 1, 0, s - 1)
    frac = np.clip(coords - c0, 0.0, 1.0)

    def taps(rows, cols):  # padded[rows][:, cols]
        out = np.full((side, side), white)
        r, c = rows < h, cols < w
        out[np.ix_(r, c)] = img[np.ix_(rows[r], cols[c])]
        return out

    top = taps(c0, c0) * (1 - frac)[None, :] + taps(c0, c1) * frac[None, :]
    bot = taps(c1, c0) * (1 - frac)[None, :] + taps(c1, c1) * frac[None, :]
    return top * (1 - frac)[:, None] + bot * frac[:, None]
