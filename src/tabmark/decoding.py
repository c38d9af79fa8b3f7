"""Greedy inference: structure decoding, parallel multi-cell content decoding,
the sequential reference decoder, and the staged recognize() pipeline.

Parallel and sequential content decoding produce identical tokens for every
cell because the cell decoder isolates cells by construction (cell-wise mask,
segment-relative positions, per-cell conditioning).  The parallel variant
advances every open cell once per model pass; the sequential variant advances
one token per pass.  Pass counters make the speedup auditable without a clock:
parallel needs max(len)+1 passes, sequential needs sum(len+1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import synth
from . import vocab as V
from .model import (
    CellBox,
    DecodeCache,
    StructFeatures,
    TableModel,
    array_to_boxes,
    cell_buffer_layout,
)


@dataclass
class DecodeState:
    """The growing content buffer plus per-cell bookkeeping.

    The buffer always matches SOS + (cell_0 + SEP) + ... + (cell_n-1 + SEP);
    cursors[k] is the index of cell k's trailing SEP.
    """

    buffer: list[int]
    cursors: list[int]
    frozen: list[bool]
    lengths: list[int]
    passes: int = 0

    @classmethod
    def initial(cls, n_cells: int) -> "DecodeState":
        if n_cells < 0:
            raise ValueError("cell count must be nonnegative")
        return cls(
            buffer=[V.CONTENT.sos] + [V.SEP_ID] * n_cells,
            cursors=list(range(1, n_cells + 1)),
            frozen=[False] * n_cells,
            lengths=[0] * n_cells,
        )

    @property
    def n_cells(self) -> int:
        return len(self.cursors)

    def unfrozen(self) -> list[int]:
        return [k for k, f in enumerate(self.frozen) if not f]

    def insert(self, cell: int, token: int) -> None:
        """Insert one token immediately before the cell's trailing SEP."""
        if self.frozen[cell]:
            raise ValueError(f"cell {cell} is frozen")
        if token in (V.SEP_ID, V.CONTENT.sos):
            raise ValueError("separators and SOS are not insertable content")
        self.buffer.insert(self.cursors[cell], token)
        self.lengths[cell] += 1
        for j in range(cell, self.n_cells):
            self.cursors[j] += 1

    def freeze(self, cell: int) -> None:
        self.frozen[cell] = True

    def read_position(self, cells):
        """The position whose logits predict a cell's next token: the last
        token of the cell's segment, or the boundary before it when empty.
        cells is one cell index or a sequence of them."""
        return np.take(self.cursors, cells) - 1

    def segment(self, cell: int) -> list[int]:
        return self.buffer[self.cursors[cell] - self.lengths[cell] : self.cursors[cell]]

    def check_pattern(self) -> None:
        """Assert the buffer invariant; raises on any violation."""
        if not self.buffer or self.buffer[0] != V.CONTENT.sos:
            raise AssertionError("buffer must start with SOS")
        pos = 1
        for k in range(self.n_cells):
            seg_start = self.cursors[k] - self.lengths[k]
            if seg_start != pos:
                raise AssertionError(f"cell {k} segment does not start at {pos}")
            for p in range(seg_start, self.cursors[k]):
                if self.buffer[p] in (V.SEP_ID, V.CONTENT.sos):
                    raise AssertionError(f"boundary token inside cell {k}")
            if self.buffer[self.cursors[k]] != V.SEP_ID:
                raise AssertionError(f"cursor of cell {k} does not point at SEP")
            pos = self.cursors[k] + 1
        if pos != len(self.buffer):
            raise AssertionError("trailing tokens after the last SEP")


@dataclass
class HtmlDecode:
    seq: V.TokenSeq  # structure body, SOS/EOS stripped
    struct: StructFeatures
    passes: int
    truncated: bool


def decode_html(model: TableModel, img_feats) -> HtmlDecode:
    """Greedy LtoR expansion from [SOS] until EOS or the structure cap.

    Returns the emitted body plus the final pass's per-token hidden states
    (what the fetcher consumes).  Without truncation the pass count is the
    emitted length + 1 (one per token plus the EOS pass); on truncation it is
    the emitted length, and one extra untimed forward aligns the features.
    Every pass scores only the newest position (see DecodeCache).
    """
    memory = DecodeCache(img_feats)
    sv = V.STRUCTURE
    buf = [sv.sos]
    passes = 0
    truncated = False
    with ad.no_grad():
        while True:
            logits, hidden = model.html_step(buf, "ltor", memory)
            passes += 1
            token = int(np.argmax(logits.data[-1]))
            if token == sv.eos:
                break
            buf.append(token)
            if len(buf) >= model.cfg.struct_cap:
                truncated = True
                _, hidden = model.html_step(buf, "ltor", memory)
                break
        body = buf[1:]
        token_hidden = ad.take_rows(hidden, np.arange(1, len(buf)))
    sf = StructFeatures(token_hidden, V.iter_cells(body))
    return HtmlDecode(V.TokenSeq("structure", tuple(body)), sf, passes, truncated)


@dataclass
class CellDecode:
    cells: list[V.TokenSeq]
    passes: int
    truncated: bool


# any boundary-class prediction ends a cell.  A trained decoder only ever
# emits SEP here, but arbitrary weights must not corrupt the buffer pattern.
_CELL_STOP = frozenset({V.CONTENT.pad, V.CONTENT.sos, V.CONTENT.eos, V.SEP_ID})


def _logits_of(step_out) -> np.ndarray:
    # plain ndarrays also have a .data attribute (a memoryview), so the
    # Tensor unwrap must be an isinstance check
    return step_out.data if isinstance(step_out, ad.Tensor) else np.asarray(step_out)


def decode_cells_parallel(model: TableModel, cond, img_feats, step_fn=None) -> CellDecode:
    """Advance every open cell by one token per model pass.

    Each pass scores the whole buffer once; every unfrozen cell's next token
    is read at the position before its trailing SEP and (argmax, lowest id on
    ties) either inserted there or, when it is SEP, freezes the cell.  All
    reads use the pass-start logits, taken in one argmax over the read rows,
    then insertions apply in cell order.  The first pass scores the initial
    buffer under the dense cell-wise mask; every later pass scores only the
    positions inserted since the last one, each against its own cell's
    gathered keys (see DecodeCache).
    """
    n = cond.shape[0]
    if n == 0:
        return CellDecode([], 0, False)
    step = step_fn or model.cell_step
    cap = model.cfg.content_cap
    state = DecodeState.initial(n)
    memory = DecodeCache(img_feats)
    truncated = False
    with ad.no_grad():
        while True:
            active = state.unfrozen()
            if not active:
                break
            if len(state.buffer) + len(active) > cap:
                truncated = True
                for k in active:
                    state.freeze(k)
                break
            layout = cell_buffer_layout(state.buffer, n)
            logits = _logits_of(step(state.buffer, layout, cond, memory))
            state.passes += 1
            tokens = np.argmax(logits[state.read_position(active)], axis=1).tolist()
            for k, token in zip(active, tokens):
                if token in _CELL_STOP:
                    state.freeze(k)
                else:
                    state.insert(k, token)
    cells = [V.TokenSeq("content", tuple(state.segment(k))) for k in range(n)]
    return CellDecode(cells, state.passes, truncated)


def decode_cells_sequential(model: TableModel, cond, img_feats, step_fn=None) -> CellDecode:
    """Decode the concatenated stream one token per pass, cell after cell.

    After the first pass, every pass scores only the position inserted by
    the last one, against its own cell's gathered keys (see DecodeCache).
    """
    n = cond.shape[0]
    if n == 0:
        return CellDecode([], 0, False)
    step = step_fn or model.cell_step
    cap = model.cfg.content_cap
    state = DecodeState.initial(n)
    memory = DecodeCache(img_feats)
    truncated = False
    with ad.no_grad():
        for k in range(n):
            while not state.frozen[k]:
                if len(state.buffer) + 1 > cap:
                    truncated = True
                    for j in state.unfrozen():
                        state.freeze(j)
                    break
                layout = cell_buffer_layout(state.buffer, n)
                logits = _logits_of(step(state.buffer, layout, cond, memory))
                state.passes += 1
                token = int(np.argmax(logits[state.read_position(k)]))
                if token in _CELL_STOP:
                    state.freeze(k)
                else:
                    state.insert(k, token)
            if truncated:
                break
    cells = [V.TokenSeq("content", tuple(state.segment(k))) for k in range(n)]
    return CellDecode(cells, state.passes, truncated)


@dataclass
class RecognizeResult:
    """One image's full output: markup, boxes, counters, cumulative timings."""

    html: str
    boxes: list[CellBox]
    structure: V.TokenSeq
    cell_seqs: list[V.TokenSeq]
    cells: list[str]
    passes: dict[str, int]
    truncated: dict[str, bool]
    timings: dict[str, float]  # cumulative seconds: html <= bbox <= cell
    parallel: bool

    def as_dict(self, timings: bool = True) -> dict:
        out = {
            "html": self.html,
            "boxes": [[b.cx, b.cy, b.w, b.h] for b in self.boxes],
            "cells": list(self.cells),
            "passes": dict(self.passes),
            "truncated": dict(self.truncated),
            "parallel": self.parallel,
        }
        if timings:
            out["timings"] = dict(self.timings)
        return out


def recognize(
    model: TableModel, image: np.ndarray, parallel: bool = True, cell_step_fn=None
) -> RecognizeResult:
    """Image to HTML: encode, structure decode, fetch/refine/bbox, cell decode.

    Timings are cumulative from image acquisition, reported after the html,
    bbox and cell stages.
    """
    t0 = time.perf_counter()
    with ad.no_grad():
        img = synth.prepare_image(image, model.cfg.image_side)
        feats = model.encode_image(img)
        hd = decode_html(model, feats)
        t_html = time.perf_counter() - t0

        refined = model.refine(model.fetch_cells(hd.struct))
        boxes_t = model.bbox_head(refined)
        t_bbox = time.perf_counter() - t0

        cond = model.cell_conditioning(refined, boxes_t)
        decode = decode_cells_parallel if parallel else decode_cells_sequential
        cd = decode(model, cond, feats, step_fn=cell_step_fn)
    texts = [V.detokenize_content(ts.ids) for ts in cd.cells]
    html = V.render_html(hd.seq.ids, texts)
    t_cell = time.perf_counter() - t0

    return RecognizeResult(
        html=html,
        boxes=array_to_boxes(boxes_t.data),
        structure=hd.seq,
        cell_seqs=cd.cells,
        cells=texts,
        passes={"structure": hd.passes, "cell": cd.passes},
        truncated={"structure": hd.truncated, "cell": cd.truncated},
        timings={"html": t_html, "bbox": t_bbox, "cell": t_cell},
        parallel=parallel,
    )
