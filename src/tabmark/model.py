"""The full recognition stack: image encoder, bidirectional HTML decoder,
cell-feature fetcher, refiner, bbox head, and the content (cell) decoder.

Buffer conventions for the cell decoder (shared by training and inference,
which is what makes greedy parallel decoding equal greedy sequential
decoding):

- A content buffer is [SOS] followed by cell segments, each ``tokens + SEP``.
- Masking: a content token sees SOS plus earlier tokens of its own cell
  within the window; the k-th SEP gets a unique pseudo-cell id, so it sees
  only SOS and itself and is seen by nobody else.
- Conditioning: each position carries the feature of the cell whose next
  token it predicts: SOS carries cell 0, a content token of cell j carries
  cell j, the k-th SEP carries cell k+1 (the zero vector past the last cell).
- Relative positions restart at 0 on every boundary (SOS and each SEP).

Incremental decoding (DecodeCache): both steps accept, in place of the image
memory, a cache that holds the memory's cross-attention keys and values
(projected once per image) and, for every position already scored, each
block's self-attention keys and values and the output rows.  A step then
computes only the positions the cache has not scored.  The rules above make
this exact: a structure row depends only on its prefix within the causal
window, so rows are keyed by position and keys older than the window are
evicted; a cell row depends only on SOS and the earlier tokens of its own
cell, so rows are keyed by (mask cell, relative position) and never change
as other cells grow.  A plain memory Tensor is the no-cache reference path:
an empty cache, which scores every position as a full pass does.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from . import layers as L
from . import vocab as V
from .autodiff import Tensor

VARIANTS = ("full", "bbox", "through")
ZERO_FEAT = -1  # feat_index marker for "no conditioning feature"


@dataclass(frozen=True)
class ModelConfig:
    image_side: int = 128
    in_channels: int = 1
    d: int = 64
    heads: int = 8
    html_blocks: int = 3
    cell_blocks: int = 1
    refiner_blocks: int = 1
    ffn_mult: int = 4
    window: int = 300
    struct_cap: int = 800
    content_cap: int = 8000
    variant: str = "full"
    enc_channels: tuple[int, int, int] = (16, 32, 64)
    seed: int = 0

    @property
    def downsample(self) -> int:
        return 2 ** len(self.enc_channels)

    @property
    def grid(self) -> int:
        return self.image_side // self.downsample

    def validate(self) -> None:
        if self.d % 4 != 0 or self.d % self.heads != 0:
            raise ValueError("d must be divisible by 4 and by the head count")
        if self.struct_cap < 1 or self.content_cap < 1:
            raise ValueError("length caps must be >= 1")
        if len(self.enc_channels) != 3:
            raise ValueError("encoder uses exactly 3 strided stages (downsample 8)")
        if self.image_side % self.downsample != 0:
            raise ValueError(f"image side must be divisible by {self.downsample}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.in_channels not in (1, 3):
            raise ValueError("in_channels must be 1 (grayscale) or 3 (RGB)")
        if self.refiner_blocks < 1 or self.html_blocks < 1 or self.cell_blocks < 1:
            raise ValueError("block counts must be >= 1")

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            lines.append(f"{f.name}={v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ModelConfig":
        raw: dict[str, str] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            raw[key.strip()] = val.strip()
        kwargs = {}
        for f in fields(cls):
            if f.name not in raw:
                continue
            v = raw.pop(f.name)
            if f.name == "enc_channels":
                kwargs[f.name] = tuple(int(x) for x in v.split(","))
            elif f.name == "variant":
                kwargs[f.name] = v
            else:
                kwargs[f.name] = int(v)
        if raw:
            raise ValueError(f"unknown config keys: {sorted(raw)}")
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    def with_variant(self, variant: str) -> "ModelConfig":
        return replace(self, variant=variant)


@dataclass(frozen=True)
class CellBox:
    """Normalized (center-x, center-y, width, height), all in [0,1]."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self) -> None:
        for v in (self.cx, self.cy, self.w, self.h):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"box component {v} outside [0,1]")

    def as_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.w, self.h])


def boxes_to_array(boxes: list[CellBox]) -> np.ndarray:
    if not boxes:
        return np.zeros((0, 4))
    return np.stack([b.as_array() for b in boxes])


def array_to_boxes(arr: np.ndarray) -> list[CellBox]:
    return [CellBox(*np.clip(row, 0.0, 1.0)) for row in np.asarray(arr).reshape(-1, 4)]


@dataclass
class StructFeatures:
    """Hidden vectors aligned with structure tokens plus the cell anchors."""

    features: Tensor  # (n_tokens, d)
    anchors: list[int]

    def __post_init__(self) -> None:
        last = -1
        for a in self.anchors:
            if not 0 <= a < self.features.shape[0]:
                raise ValueError("anchor outside the token range")
            if a <= last:
                raise ValueError("anchors must be strictly increasing")
            last = a


@dataclass
class BufferLayout:
    """Per-position annotations of a content buffer (SOS included)."""

    mask_cells: np.ndarray  # cell id per position; SOS marker; SEP islands >= n_cells
    feat_index: np.ndarray  # which cell's feature each position carries; ZERO_FEAT = none
    rel_pos: np.ndarray  # position relative to the previous boundary

    def __len__(self) -> int:
        return len(self.mask_cells)


def cell_buffer_layout(ids, n_cells: int) -> BufferLayout:
    """Annotate a content buffer ([SOS, ...]) with mask cells, features, rel positions."""
    ids = list(ids)
    if not ids or ids[0] != V.CONTENT.sos:
        raise ValueError("content buffer must start with SOS")
    n = len(ids)
    mask_cells = np.empty(n, dtype=np.int64)
    feat_index = np.empty(n, dtype=np.int64)
    rel_pos = np.empty(n, dtype=np.int64)
    mask_cells[0] = L.SOS_CELL
    feat_index[0] = 0 if n_cells > 0 else ZERO_FEAT
    rel_pos[0] = 0
    cell = 0
    seps_seen = 0
    offset = 0
    for p in range(1, n):
        t = ids[p]
        if t == V.CONTENT.sos:
            raise ValueError(f"stray SOS at position {p}")
        if t == V.SEP_ID:
            mask_cells[p] = n_cells + seps_seen  # unique island id
            nxt = seps_seen + 1
            feat_index[p] = nxt if nxt < n_cells else ZERO_FEAT
            rel_pos[p] = 0
            seps_seen += 1
            cell = seps_seen
            offset = 0
        else:
            if cell >= n_cells:
                raise ValueError(f"token at position {p} belongs to unknown cell {cell}")
            mask_cells[p] = cell
            feat_index[p] = cell
            rel_pos[p] = offset
            offset += 1
    return BufferLayout(mask_cells, feat_index, rel_pos)


class TableModel:
    """All weights live in one ParamSet; the LtoR and RtoL structure students
    share every parameter (the direction enters as a mixed-in vector)."""

    DIR_LTOR, DIR_RTOL = 0, 1

    def __init__(self, cfg: ModelConfig):
        cfg.validate()
        self.cfg = cfg
        ps = L.ParamSet(np.random.default_rng(cfg.seed))
        self.params = ps
        d, heads, mult = cfg.d, cfg.heads, cfg.ffn_mult

        c1, c2, c3 = cfg.enc_channels
        self.conv_w = [
            ps.make("enc.conv1.w", (3, 3, cfg.in_channels, c1), "conv"),
            ps.make("enc.conv2.w", (3, 3, c1, c2), "conv"),
            ps.make("enc.conv3.w", (3, 3, c2, c3), "conv"),
        ]
        self.conv_b = [
            ps.make("enc.conv1.b", (c1,), "zeros"),
            ps.make("enc.conv2.b", (c2,), "zeros"),
            ps.make("enc.conv3.b", (c3,), "zeros"),
        ]
        self.enc_proj = L.Linear(ps, "enc.proj", c3, d)
        self.enc_norm = L.LayerNorm(ps, "enc.norm", d)

        self.struct_emb = ps.make("html.emb", (len(V.STRUCTURE), d), "embedding")
        self.dir_emb = ps.make("html.dir", (2, d), "embedding")
        self.html_mix_tok = ps.make("html.mix_tok.w", (d, d))
        self.html_mix_dir = ps.make("html.mix_dir.w", (d, d))
        self.html_mix_b = ps.make("html.mix.b", (d,), "zeros")
        self.html_blocks = [
            L.DecoderBlock(ps, f"html.block{i}", d, heads, mult, cross=True)
            for i in range(cfg.html_blocks)
        ]
        self.html_norm = L.LayerNorm(ps, "html.norm", d)
        self.struct_out = L.Linear(ps, "html.out", d, len(V.STRUCTURE))

        self.refiner_blocks = [
            L.DecoderBlock(ps, f"refiner.block{i}", d, heads, mult, cross=False)
            for i in range(cfg.refiner_blocks)
        ]
        self.bbox_out = L.Linear(ps, "bbox.out", d, 4)
        self.box_embed = L.Linear(ps, "bbox.embed", 4, d)

        self.content_emb = ps.make("cell.emb", (len(V.CONTENT), d), "embedding")
        self.cell_mix_tok = ps.make("cell.mix_tok.w", (d, d))
        self.cell_mix_feat = ps.make("cell.mix_feat.w", (d, d))
        self.cell_mix_b = ps.make("cell.mix.b", (d,), "zeros")
        self.cell_blocks = [
            L.DecoderBlock(ps, f"cell.block{i}", d, heads, mult, cross=True)
            for i in range(cfg.cell_blocks)
        ]
        self.cell_norm = L.LayerNorm(ps, "cell.norm", d)
        self.content_out = L.Linear(ps, "cell.out", d, len(V.CONTENT))

    # -- stages --------------------------------------------------------------

    def encode_image(self, image: np.ndarray) -> Tensor:
        """(side, side[, C]) pixels in [0,1] -> (grid*grid, d) with 2D codes added."""
        img = np.asarray(image, dtype=np.float64)
        if img.ndim == 2:
            img = img[:, :, None]
        side = self.cfg.image_side
        if img.shape[0] != side or img.shape[1] != side:
            raise ValueError(f"expected {side}x{side} image, got {img.shape[:2]}")
        if img.shape[2] != self.cfg.in_channels:
            raise ValueError(f"expected {self.cfg.in_channels} channel(s), got {img.shape[2]}")
        x = Tensor(img)
        for w, b in zip(self.conv_w, self.conv_b):
            x = ad.relu(ad.conv2d(x, w, b, stride=2, pad=1))
        g = self.cfg.grid
        x = ad.reshape(x, (g * g, x.shape[-1]))
        x = self.enc_proj(x)
        x = ad.add(x, L.pos_grid_2d(g, g, self.cfg.d))
        return self.enc_norm(x)

    def html_step(self, input_ids, direction: str, img_feats):
        """One pass of the structure decoder.

        input_ids starts with SOS; returns (logits, hidden), both length-aligned
        with the input.  img_feats is the image memory or a DecodeCache of it;
        only the positions the cache has not scored yet are computed.
        """
        ids = np.asarray(input_ids, dtype=np.int64)
        n = ids.shape[0]
        if n > self.cfg.struct_cap:
            raise ValueError(f"structure input length {n} exceeds cap {self.cfg.struct_cap}")
        if direction not in ("ltor", "rtol"):
            raise ValueError(f"unknown direction {direction!r}")
        d_id = self.DIR_LTOR if direction == "ltor" else self.DIR_RTOL
        cache = DecodeCache.of(img_feats)
        new, first = cache.begin(("structure", direction), ids, range(n), len(self.html_blocks))
        emb = ad.take_rows(self.struct_emb, ids[new])
        dir_vec = ad.take_rows(self.dir_emb, [d_id])  # (1, d)
        x = ad.add(
            ad.add(ad.matmul(emb, self.html_mix_tok), ad.matmul(dir_vec, self.html_mix_dir)),
            self.html_mix_b,
        )
        x = ad.add(x, L.pos_encode_1d(new, self.cfg.d))
        mask = L.build_local_mask(n, self.cfg.window)[new, first:]
        for i, blk in enumerate(self.html_blocks):
            x = blk(x, mask, cache.memory, past=cache.past(i))
        hidden = self.html_norm(x)
        logits, hidden = cache.finish(self.struct_out(hidden), hidden)
        # later queries sit at positions >= n and see no key older than n - window
        cache.evict(n - self.cfg.window)
        return logits, hidden

    def fetch_cells(self, struct: StructFeatures) -> Tensor:
        """One feature per cell, taken at the anchors, reading order; (n, d)."""
        if not struct.anchors:
            return Tensor(np.zeros((0, self.cfg.d)))
        return ad.take_rows(struct.features, struct.anchors)

    def struct_features(self, token_ids, hidden: Tensor) -> StructFeatures:
        """Pair token-aligned hidden states (SOS row already stripped) with anchors."""
        return StructFeatures(hidden, V.iter_cells(list(token_ids)))

    def refine(self, cell_feats: Tensor) -> Tensor:
        """Non-causal global attention over the cell set; identity for 'through'."""
        if self.cfg.variant == "through" or cell_feats.shape[0] == 0:
            return cell_feats
        x = cell_feats
        for blk in self.refiner_blocks:
            x = blk(x, None)
        return x

    def bbox_head(self, cell_feats: Tensor) -> Tensor:
        """(n, d) -> (n, 4) squashed to (0,1)."""
        return ad.sigmoid(self.bbox_out(cell_feats))

    def cell_conditioning(self, refined: Tensor, boxes: Tensor) -> Tensor:
        """Per-cell vectors mixed into the content decoder, by variant."""
        if self.cfg.variant == "bbox":
            return self.box_embed(boxes)
        return refined

    def cell_step(self, input_ids, layout: BufferLayout, cond: Tensor, img_feats):
        """One pass of the content decoder over a full buffer; logits per position.

        img_feats is the image memory or a DecodeCache of it; only the
        positions the cache has not scored yet are computed.
        """
        ids = np.asarray(input_ids, dtype=np.int64)
        n = ids.shape[0]
        if n > self.cfg.content_cap:
            raise ValueError(f"content input length {n} exceeds cap {self.cfg.content_cap}")
        if len(layout) != n:
            raise ValueError("layout length does not match the buffer")
        n_cells = cond.shape[0]
        if np.any(layout.feat_index >= n_cells):
            raise ValueError("layout references a cell with no feature")
        cache = DecodeCache.of(img_feats)
        keys = zip(layout.mask_cells.tolist(), layout.rel_pos.tolist())
        new, first = cache.begin(
            ("cell", n_cells), ids, keys, len(self.cell_blocks), ad.as_tensor(cond).data
        )
        emb = ad.take_rows(self.content_emb, ids[new])
        feats_aug = ad.concat_rows([cond, Tensor(np.zeros((1, self.cfg.d)))])
        feat_rows = np.where(layout.feat_index == ZERO_FEAT, n_cells, layout.feat_index)
        feats = ad.take_rows(feats_aug, feat_rows[new])
        x = ad.add(
            ad.add(ad.matmul(emb, self.cell_mix_tok), ad.matmul(feats, self.cell_mix_feat)),
            self.cell_mix_b,
        )
        x = ad.add(x, L.pos_encode_1d(layout.rel_pos[new], self.cfg.d))
        mask = L.build_cellwise_mask(layout.mask_cells, self.cfg.window)[new, first:]
        for i, blk in enumerate(self.cell_blocks):
            x = blk(x, mask, cache.memory, past=cache.past(i))
        (logits,) = cache.finish(self.content_out(self.cell_norm(x)))
        return logits


class _MemoryKeys:
    """One cross-attention block's keys and values of the image memory,
    projected on the first call and reused after."""

    def __init__(self):
        self.kv = None

    def __call__(self, memory, project):
        if self.kv is None:
            self.kv = project(memory)
        return self.kv


class _SelfKeys:
    """One self-attention block's keys and values of the held rows, in the
    order they were scored, in buffers that grow by doubling.  A pass writes
    its new rows after the held ones and attends to the rows in `order`,
    which the cache sets; the cache commits them when the pass ends."""

    def __init__(self):
        self.k = self.v = None  # (heads, capacity, dh); rows [0, size) are held
        self.size = 0
        self.new = 0  # rows written by the current pass
        self.order = None  # key rows of the current pass; None: only the new rows

    def __call__(self, new_rows, project):
        k, v = project(new_rows)
        self.new = k.shape[1]
        end = self.size + self.new
        if self.k is None or end > self.k.shape[1]:
            grown = [np.empty((a.shape[0], 2 * end, a.shape[2])) for a in (k.data, v.data)]
            if self.k is not None:
                grown[0][:, : self.size] = self.k[:, : self.size]
                grown[1][:, : self.size] = self.v[:, : self.size]
            self.k, self.v = grown
        self.k[:, self.size : end] = k.data
        self.v[:, self.size : end] = v.data
        if self.order is None:  # nothing held: the new rows are all the keys, in order
            return k, v
        return Tensor(self.k[:, self.order]), Tensor(self.v[:, self.order])

    def commit(self) -> None:
        self.size += self.new
        self.new = 0

    def drop(self, rows: int) -> None:
        """Forget the oldest rows."""
        keep = self.size - rows
        self.k[:, :keep] = self.k[:, rows : self.size]
        self.v[:, :keep] = self.v[:, rows : self.size]
        self.size = keep


class DecodeCache:
    """What one decode has computed, so that each position is scored once.

    html_step and cell_step take it where they take the image memory.  It
    holds each cross-attention block's memory keys and values, projected once,
    and for every scored position each block's self-attention keys and values
    and the step's output rows (hidden and logits).  A step computes only the
    positions it has not scored; they attend to the held rows in buffer order
    plus each other.  This is exact because no scored row can change as the
    buffer grows: a structure row sees only its prefix (keyed by position),
    and a cell row sees only SOS and earlier tokens of its own cell, with its
    position counted from the cell boundary (keyed by cell and relative
    position).  A buffer that does not extend the scored one raises
    ValueError.  A plain memory Tensor gives a step an empty cache, which
    computes every position exactly as an uncached pass does.
    """

    def __init__(self, memory):
        self.memory = memory
        self.owner = None  # what the held rows were scored for
        self.cond = None
        self.index: dict = {}  # position key -> row
        self.tokens = np.zeros(0, dtype=np.int64)  # token per row
        self.outs: list[np.ndarray] = []  # step outputs per row
        self.self_keys: list[_SelfKeys] = []
        self.memory_keys: list[_MemoryKeys] = []
        self.first = 0  # rows below this have no keys or values left
        self.rows = None  # row per buffer position of the current pass
        self.pending = None

    @classmethod
    def of(cls, img_feats) -> "DecodeCache":
        return img_feats if isinstance(img_feats, cls) else cls(img_feats)

    def begin(self, owner, ids: np.ndarray, keys, n_blocks: int, cond=None):
        """Match a buffer against the held rows.

        Returns the positions to score and the first buffer position they
        attend to.
        """
        held = len(self.tokens)
        if held and ad.grad_enabled():
            raise ValueError("cached rows carry no gradient; decode under no_grad")
        if self.owner is None:
            self.owner = owner
            self.cond = None if cond is None else np.array(cond)
            self.self_keys = [_SelfKeys() for _ in range(n_blocks)]
            self.memory_keys = [_MemoryKeys() for _ in range(n_blocks)]
        elif owner != self.owner:
            raise ValueError(f"cache holds rows scored for {self.owner}, not {owner}")
        elif cond is not None and not np.array_equal(cond, self.cond):
            raise ValueError("cache holds rows scored for another conditioning")
        keys = list(keys)
        n = len(keys)
        rows = np.fromiter((self.index.get(k, -1) for k in keys), dtype=np.int64, count=n)
        seen = np.flatnonzero(rows >= 0)
        if seen.size != held:
            raise ValueError(f"buffer keeps {seen.size} of the {held} scored positions")
        bad = np.flatnonzero(self.tokens[rows[seen]] != ids[seen])
        if bad.size:
            p = seen[bad[0]]
            raise ValueError(
                f"position {p} holds token {ids[p]}, scored as {self.tokens[rows[p]]}"
            )
        new = np.flatnonzero(rows < 0)
        rows[new] = np.arange(held, held + new.size)
        self.rows = rows
        order = None
        if held:
            order = rows[self.first :] - self.first
            if np.array_equal(order, np.arange(order.size)):
                order = slice(0, order.size)  # a view, not a copy
        for sk in self.self_keys:
            sk.order = order
        self.pending = ([keys[p] for p in new], ids[new])
        return new, self.first

    def past(self, block: int):
        """The key stores of one block, for DecoderBlock(past=...)."""
        return self.self_keys[block], self.memory_keys[block]

    def finish(self, *outs: Tensor) -> tuple[Tensor, ...]:
        """Hold the new rows of each output; return the outputs at full
        buffer length, newly allocated, in buffer order."""
        keys, tokens = self.pending
        held = len(self.tokens)
        self.index.update(zip(keys, range(held, held + len(keys))))
        self.tokens = np.concatenate([self.tokens, tokens])
        for sk in self.self_keys:
            sk.commit()
        if not held:  # the new rows are the whole buffer, in order
            self.outs = [o.data.copy() for o in outs]
            return outs
        self.outs = [np.concatenate([old, o.data]) for old, o in zip(self.outs, outs)]
        return tuple(Tensor(a[self.rows]) for a in self.outs)

    def evict(self, first: int) -> None:
        """Drop the keys and values of rows below first, which later passes
        must not attend to.  Only for the structure decoder, whose rows are
        its positions."""
        drop = first - self.first
        if drop > 0:
            for sk in self.self_keys:
                sk.drop(drop)
            self.first = first
