"""Greedy inference: structure decoding, parallel multi-cell content decoding,
the sequential reference decoder, and the staged recognize() pipeline.

Parallel and sequential content decoding produce identical tokens for every
cell because the cell decoder isolates cells by construction (cell-wise mask,
segment-relative positions, per-cell conditioning).  Both run one loop over
per-cell token lists: each pass advances every open cell (parallel) or only
the first open one (sequential) by one token.  Pass counters make the
speedup auditable without a clock: parallel needs max(len)+1 passes,
sequential needs sum(len+1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import synth
from . import vocab as V
from .model import BufferLayout, DecodeCache, TableModel, content_buffer


@dataclass
class DecodeState:
    """Each cell's decoded tokens and whether it is frozen.

    They stand for the content buffer SOS + (cell_0 + SEP) + ... +
    (cell_n-1 + SEP) (model.content_buffer), which a decode hands over whole
    once, when empty, and after that only each pass's new tokens.
    """

    cells: list[list[int]]
    frozen: list[bool]

    @classmethod
    def initial(cls, n_cells: int) -> "DecodeState":
        if n_cells < 0:
            raise ValueError("cell count must be nonnegative")
        return cls(cells=[[] for _ in range(n_cells)], frozen=[False] * n_cells)

    def unfrozen(self) -> list[int]:
        return [k for k, f in enumerate(self.frozen) if not f]

    def insert(self, cell: int, token: int) -> None:
        """Append one token to the cell, just before its trailing SEP."""
        if self.frozen[cell]:
            raise ValueError(f"cell {cell} is frozen")
        if token in (V.SEP_ID, V.CONTENT.sos):
            raise ValueError("separators and SOS are not insertable content")
        self.cells[cell].append(token)

    def freeze(self, cell: int) -> None:
        self.frozen[cell] = True


@dataclass
class HtmlDecode:
    seq: V.TokenSeq  # structure body, SOS/EOS stripped
    hidden: ad.Tensor  # one row per body token, for the fetcher
    passes: int
    truncated: bool


def decode_html(model: TableModel, img_feats) -> HtmlDecode:
    """Greedy LtoR expansion from [SOS] until EOS or the structure cap.

    Returns the emitted body plus its per-token hidden states (what the
    fetcher consumes), one row kept from each pass, which scores and returns
    only the newest position (see DecodeCache).  Without truncation the pass
    count is the emitted length + 1 (one per token plus the EOS pass); on
    truncation it is the emitted length, and one extra untimed forward
    scores the last token.
    """
    memory = DecodeCache(img_feats)
    sv = V.STRUCTURE
    buf = [sv.sos]
    rows = []  # the hidden row of every scored position, SOS first
    passes = 0
    truncated = False
    with ad.no_grad():
        while True:
            logits, hidden = model.html_step(buf, "ltor", memory)
            rows.append(hidden.data)
            passes += 1
            token = int(np.argmax(logits.data[-1]))
            if token == sv.eos:
                break
            buf.append(token)
            if len(buf) >= model.cfg.struct_cap:
                truncated = True
                rows.append(model.html_step(buf, "ltor", memory)[1].data)
                break
    body = V.TokenSeq("structure", tuple(buf[1:]))
    return HtmlDecode(body, ad.Tensor(np.concatenate(rows)[1:]), passes, truncated)


@dataclass
class CellDecode:
    cells: list[V.TokenSeq]
    passes: int
    truncated: bool


# any boundary-class prediction ends a cell.  A trained decoder only ever
# emits SEP here, but arbitrary weights must not corrupt the buffer pattern.
_CELL_STOP = frozenset({V.CONTENT.pad, V.CONTENT.sos, V.CONTENT.eos, V.SEP_ID})


def decode_cells_parallel(model: TableModel, cond, img_feats, step_fn=None) -> CellDecode:
    """Advance every open cell by one token per model pass."""
    return _decode_cells(model, cond, img_feats, step_fn, parallel=True)


def decode_cells_sequential(model: TableModel, cond, img_feats, step_fn=None) -> CellDecode:
    """Advance only the first open cell by one token per pass, cell after cell."""
    return _decode_cells(model, cond, img_feats, step_fn, parallel=False)


def _decode_cells(model: TableModel, cond, img_feats, step_fn, parallel: bool) -> CellDecode:
    """The cell-decode loop of both schedules.

    The first pass hands the step the initial buffer, SOS and one SEP per
    cell, scored under the dense cell-wise mask; every later pass only the
    rows added since, one per cell that grew, in cell order, each scored
    against its own cell's gathered keys (see DecodeCache).  The step
    returns one logits row per row.  Each cell's next token is the argmax
    (lowest id on ties) of its latest row, the one conditioned on it; every
    advancing cell's next token is appended to it or, when it is a stop
    token, freezes it.  A pass that would take the buffer past content_cap
    is not run: the decode stops, truncated, with every open cell as it is.
    """
    n = cond.shape[0]
    if n == 0:
        return CellDecode([], 0, False)
    step = step_fn or model.cell_step
    cap = model.cfg.content_cap
    state = DecodeState.initial(n)
    memory = DecodeCache(img_feats)
    ids, layout = content_buffer(state.cells)
    size = len(ids)  # of the whole buffer
    nxt = np.zeros(n + 1, dtype=np.int64)  # each cell's next token; [n]: the last SEP's
    passes = 0
    truncated = False
    with ad.no_grad():
        while True:
            open_cells = state.unfrozen()
            active = open_cells if parallel else open_cells[:1]
            if not active:
                break
            if size + len(active) > cap:
                truncated = True
                break
            logits = ad.as_tensor(step(ids, layout, cond, memory)).data
            passes += 1
            nxt[layout.cond_cells(n)] = logits.argmax(axis=1)
            for k, token in zip(active, nxt[active].tolist()):
                if token in _CELL_STOP:
                    state.freeze(k)
                else:
                    state.insert(k, token)
            grown = [k for k in active if not state.frozen[k]]
            ids = [state.cells[k][-1] for k in grown]
            layout = BufferLayout.cell_tokens(grown, [len(state.cells[k]) - 1 for k in grown])
            size += len(grown)
    cells = [V.TokenSeq("content", tuple(tokens)) for tokens in state.cells]
    return CellDecode(cells, passes, truncated)


@dataclass
class RecognizeResult:
    """One image's full output: markup, boxes, counters, cumulative timings."""

    html: str
    boxes: np.ndarray  # (n_cells, 4) cx, cy, w, h in [0, 1], as TableRecord.boxes
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
            "boxes": self.boxes.tolist(),
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

    image is any nonempty 2-D grayscale array: 8-bit gray codes (uint8) or
    float pixels in [0, 1] (see synth.prepare_image).  Timings are
    cumulative from image acquisition, reported after the html, bbox and
    cell stages.
    """
    t0 = time.perf_counter()
    with ad.no_grad():
        img = synth.prepare_image(image, model.cfg.image_side)
        feats = model.encode_image(img)
        hd = decode_html(model, feats)
        t_html = time.perf_counter() - t0

        refined = model.refine(model.fetch_cells(hd.seq.ids, hd.hidden))
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
        boxes=np.clip(boxes_t.data, 0.0, 1.0),
        structure=hd.seq,
        cell_seqs=cd.cells,
        cells=texts,
        passes={"structure": hd.passes, "cell": cd.passes},
        truncated={"structure": hd.truncated, "cell": cd.truncated},
        timings={"html": t_html, "bbox": t_bbox, "cell": t_cell},
        parallel=parallel,
    )
