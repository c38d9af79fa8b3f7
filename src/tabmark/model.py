"""The full recognition stack: image encoder, bidirectional HTML decoder,
cell-feature fetcher, refiner, bbox head, and the content (cell) decoder.

Buffer conventions for the cell decoder (shared by training and inference,
which is what makes greedy parallel decoding equal greedy sequential
decoding; content_buffer is the one place that writes them):

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
window, so the held rows are a prefix and a pass attends to the slice of
held keys inside the window; a cell row depends only on SOS and the earlier
tokens of its own cell, so rows are keyed by (mask cell, relative position)
and never change as other cells grow, and a new cell row attends only to
those keys, gathered per row.  A plain memory Tensor is the no-cache
reference path: a full pass under the dense mask (build_local_mask,
build_cellwise_mask), as in training, which keeps no rows.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from . import autodiff as ad
from . import layers as L
from . import vocab as V
from .autodiff import NEG_INF, Tensor

VARIANTS = ("bbox", "through", "full")  # also the order ablate writes its rows in
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

    # upper bounds: a size out of all proportion fails here, named, rather than
    # in an allocation; the caps also bound the position-code table (pos_codes)
    LIMITS = {
        "image_side": 2048, "d": 1024, "heads": 64, "html_blocks": 16, "cell_blocks": 16,
        "refiner_blocks": 16, "ffn_mult": 8, "window": 65536, "struct_cap": 65536,
        "content_cap": 65536, "enc_channels": 1024,
    }

    def validate(self) -> None:
        for key, bound in self.LIMITS.items():
            value = getattr(self, key)
            if (max(value, default=0) if isinstance(value, tuple) else value) > bound:
                raise ValueError(f"{key} must be at most {bound}, got {value}")
        if self.heads < 1 or self.d < 4 or self.d % 4 != 0 or self.d % self.heads != 0:
            raise ValueError(
                "d must be a positive multiple of 4 and of the head count (>= 1), "
                f"got d={self.d}, heads={self.heads}"
            )
        if self.struct_cap < 1 or self.content_cap < 1:
            raise ValueError("length caps must be >= 1")
        if self.window < 0 or self.ffn_mult < 1:
            raise ValueError(
                f"need window >= 0 and ffn_mult >= 1, got {self.window} and {self.ffn_mult}"
            )
        if len(self.enc_channels) != 3 or min(self.enc_channels) < 1:
            raise ValueError(
                "encoder uses exactly 3 strided stages (downsample 8): enc_channels must be "
                f"3 positive channel counts, got {self.enc_channels}"
            )
        if self.image_side < self.downsample or self.image_side % self.downsample != 0:
            raise ValueError(
                f"image side must be a positive multiple of {self.downsample}, "
                f"got {self.image_side}"
            )
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.in_channels != 1:  # prepare_image takes grayscale only
            raise ValueError(f"in_channels must be 1 (grayscale), got {self.in_channels}")
        if self.refiner_blocks < 1 or self.html_blocks < 1 or self.cell_blocks < 1:
            raise ValueError("block counts must be >= 1")
        if self.seed < 0:  # the weight generator takes no negative seed
            raise ValueError(f"seed must be >= 0, got {self.seed}")

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
            key = key.strip()
            if key in raw:
                raise ValueError(f"config key {key} given twice")
            raw[key] = val.strip()
        return cls.from_fields(raw)

    @classmethod
    def from_fields(cls, raw: dict) -> "ModelConfig":
        """A validated config from JSON values or header text (read_fields)."""
        cfg = cls(**read_fields(cls, raw, "config"))
        cfg.validate()
        return cfg

    def with_variant(self, variant: str) -> "ModelConfig":
        return replace(self, variant=variant)


def read_fields(cls, raw, where: str) -> dict:
    """The field values of dataclass cls in a JSON object or a checkpoint
    header, each read by read_value and a dataclass field as an object of its
    own; a bad value is named with its key, and `where` names the object."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where} needs a JSON object, got {raw!r}")
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {where} keys: {unknown}")
    defaults, kwargs = cls(), {}
    for key, v in raw.items():
        like = getattr(defaults, key)
        if is_dataclass(like):
            kwargs[key] = type(like)(**read_fields(type(like), v, f"{where} {key}"))
            continue
        try:
            kwargs[key] = read_value(like, v)
        except ValueError as need:
            raise ValueError(f"{where} key {key} needs {need}, got {v!r}") from None
    return kwargs


def read_value(like, v):
    """A config value read by the type of `like`, its field's default: a
    number from a JSON number or its text (str(True) is "True" and str(None)
    "None", so neither reads as one), a tuple from a JSON list or
    comma-separated text, each item a number; any other value as given, for
    validate to judge.  A ValueError says what the value needs."""
    many = isinstance(like, tuple)
    kind = type(like[0] if many else like)
    if kind not in (int, float):
        return v
    items = v.split(",") if many and isinstance(v, str) else v
    try:
        if not many:
            return kind(str(v))
        if isinstance(items, (list, tuple)):
            return tuple(kind(str(x)) for x in items)
    except ValueError:
        pass
    need = "an integer" if kind is int else "a number"
    raise ValueError(f"a list, each item {need}" if many else need)


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


def content_buffer(cells) -> tuple[list[int], BufferLayout]:
    """The content buffer of per-cell token lists, [SOS] + (cell + SEP) for
    each cell, and its layout: the one place the conventions above are written.

    A cell's tokens must not hold SEP or SOS (DecodeState.insert refuses them).
    """
    n = len(cells)
    ids, mask_cells, feat_index, rel_pos = [V.CONTENT.sos], [L.SOS_CELL], [0], [0]
    for k, tokens in enumerate(cells):
        m = len(tokens)
        ids += tokens
        ids.append(V.SEP_ID)
        mask_cells += [k] * m
        mask_cells.append(n + k)  # the k-th SEP: an island id of its own
        feat_index += [k] * m
        feat_index.append(k + 1)  # a SEP carries the cell after it
        rel_pos += range(m)
        rel_pos.append(0)
    feat_index[-1] = ZERO_FEAT  # SOS of no cells, or the last SEP: past the last cell
    arrays = (np.array(a, dtype=np.int64) for a in (mask_cells, feat_index, rel_pos))
    return ids, BufferLayout(*arrays)


class TableModel:
    """All weights live in one ParamSet; the LtoR and RtoL structure students
    share every parameter (the direction enters as a mixed-in vector)."""

    DIR_LTOR, DIR_RTOL = 0, 1
    # direction -> the direction-embedding row of each student in one pass
    STUDENTS = {"ltor": (DIR_LTOR,), "rtol": (DIR_RTOL,), "both": (DIR_LTOR, DIR_RTOL)}

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
        self.enc_pos = L.pos_grid_2d(cfg.grid, cfg.grid, d)  # added to the encoder output
        self.enc_pos.flags.writeable = False
        self.pos_table = np.zeros((0, d))  # see pos_codes
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

    def pos_codes(self, positions: np.ndarray) -> np.ndarray:
        """The rows pos_encode_1d(positions, d), taken from a table of the
        codes of 0..k-1.  The table doubles when a position reaches past it,
        up to the longer cap, which bounds every position a step takes."""
        top = int(positions.max(initial=-1)) + 1
        if top > self.pos_table.shape[0]:
            size = min(2 * top, max(self.cfg.struct_cap, self.cfg.content_cap))
            self.pos_table = L.pos_encode_1d(np.arange(size), self.cfg.d)
        return self.pos_table[positions]

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
            x = ad.conv2d(x, w, b, stride=2, pad=1)  # ReLU included
        g = self.cfg.grid
        x = ad.reshape(x, (g * g, x.shape[-1]))
        x = self.enc_proj(x)
        x = ad.add(x, self.enc_pos)
        return self.enc_norm(x)

    def html_step(self, input_ids, direction: str, img_feats):
        """One pass of the structure decoder.

        input_ids starts with SOS; returns (logits, hidden), both length-aligned
        with the input.  img_feats is the image memory or a DecodeCache of it;
        only the positions the cache has not scored yet are computed.

        direction "both" runs the two students of training as one pass:
        input_ids is the LtoR student's input followed by the RtoL student's,
        both of one length n, and the outputs are stacked the same way.  A
        block-diagonal window mask, one (n, n) block per student, keeps the
        students apart, so each row equals its single-direction result, and
        the memory's keys and values are projected once for both.  It takes
        the memory, not a cache.
        """
        ids = np.asarray(input_ids, dtype=np.int64)
        if direction not in self.STUDENTS:
            raise ValueError(f"unknown direction {direction!r}")
        dirs = self.STUDENTS[direction]
        n, odd = divmod(ids.shape[0], len(dirs))
        if odd:
            raise ValueError(f"{ids.shape[0]} input rows do not split into {len(dirs)} students")
        if n > self.cfg.struct_cap:
            raise ValueError(f"structure input length {n} exceeds cap {self.cfg.struct_cap}")
        if len(dirs) > 1 and isinstance(img_feats, DecodeCache):
            raise ValueError("both students run in one pass only on the plain memory")
        student, positions = np.divmod(np.arange(ids.shape[0]), n)
        cache = img_feats if isinstance(img_feats, DecodeCache) else None
        if cache is None:  # a full pass
            new, first, memory = np.arange(ids.shape[0]), 0, img_feats
        else:
            new, first = cache.begin_structure(
                direction, ids, self.cfg.window, len(self.html_blocks)
            )
            memory = cache.memory
        emb = ad.take_rows(self.struct_emb, ids[new])
        if cache is not None and cache.dir_vecs is not None:  # one direction per cache
            dir_vecs = cache.dir_vecs
        else:
            dir_vecs = ad.matmul(ad.take_rows(self.dir_emb, dirs), self.html_mix_dir)
            if cache is not None:
                cache.dir_vecs = dir_vecs
        x = ad.add(
            ad.add(ad.matmul(emb, self.html_mix_tok), ad.take_rows(dir_vecs, student[new])),
            self.html_mix_b,
        )
        x = ad.add(x, self.pos_codes(positions[new]))
        if len(dirs) > 1:  # block-diagonal: one causal window per student, over its own rows
            mask = np.broadcast_to(L.build_local_mask(n, self.cfg.window), (len(dirs), n, n))
        elif new.size > 1:
            mask = L.build_local_mask(n, self.cfg.window, new, first)
        else:  # one row, the last position: it sees every key it is given
            mask = None
        for i, blk in enumerate(self.html_blocks):
            x = blk(x, mask, memory, past=cache.past(i) if cache else (None, None))
        hidden = self.html_norm(x)
        logits = self.struct_out(hidden)
        return (logits, hidden) if cache is None else cache.finish(logits, hidden)

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
        positions the cache has not scored yet are computed.  A full pass
        (the memory, or a cache's first pass) uses the dense cell-wise mask;
        a later cached pass attends through each new row's gathered keys.
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
        cache = img_feats if isinstance(img_feats, DecodeCache) else None
        if cache is None:  # a full pass
            new, mask, memory = np.arange(n), None, img_feats
        else:
            new, mask = cache.begin_cells(
                ids, layout, self.cfg.window, len(self.cell_blocks), ad.as_tensor(cond).data
            )
            memory = cache.memory
        if mask is None:  # every position is scored: the dense cell-wise mask
            mask = L.build_cellwise_mask(layout.mask_cells, self.cfg.window)
        emb = ad.take_rows(self.content_emb, ids[new])
        feats_aug = ad.concat_rows([cond, Tensor(np.zeros((1, self.cfg.d)))])
        feat_rows = layout.feat_index[new]
        feats = ad.take_rows(feats_aug, np.where(feat_rows == ZERO_FEAT, n_cells, feat_rows))
        x = ad.add(
            ad.add(ad.matmul(emb, self.cell_mix_tok), ad.matmul(feats, self.cell_mix_feat)),
            self.cell_mix_b,
        )
        x = ad.add(x, self.pos_codes(layout.rel_pos[new]))
        for i, blk in enumerate(self.cell_blocks):
            x = blk(x, mask, memory, past=cache.past(i) if cache else (None, None))
        logits = self.content_out(self.cell_norm(x))
        return logits if cache is None else cache.finish(logits)[0]


class _MemoryKeys:
    """One cross-attention block's keys and values of the image memory,
    projected on the first call and reused after.  The keys are held as a
    contiguous (heads, dh, m) K^T and handed out as its transposed view, so
    each pass's q K^T reads them in the layout the product wants; the values
    are held contiguous too."""

    def __init__(self):
        self.kv = None

    def __call__(self, memory, project):
        if self.kv is None:
            k, v = project(memory)
            kt = np.ascontiguousarray(np.swapaxes(k.data, 1, 2))
            self.kv = Tensor(np.swapaxes(kt, 1, 2)), Tensor(np.ascontiguousarray(v.data))
        return self.kv


def _append(buf, size: int, rows: np.ndarray, axis: int = 0) -> np.ndarray:
    """buf with rows written after its first size entries along axis.  A
    buffer twice the needed length, holding those entries, replaces one that
    is too short, so appending costs amortised O(rows)."""
    end = size + rows.shape[axis]
    lead = (slice(None),) * axis
    if buf is None or end > buf.shape[axis]:
        shape = list(rows.shape)
        shape[axis] = 2 * end
        grown = np.empty(shape, rows.dtype)
        if buf is not None:
            grown[lead + (slice(0, size),)] = buf[lead + (slice(0, size),)]
        buf = grown
    buf[lead + (slice(size, end),)] = rows
    return buf


class _SelfKeys:
    """One self-attention block's keys and values of the held rows, in the
    order they were scored.  A pass writes its new rows after the held ones
    and attends to the key rows in `order`, which the cache sets; the cache
    commits them when the pass ends."""

    def __init__(self):
        self.k = self.v = None  # (heads, capacity, dh); rows [0, size) are held
        self.size = 0
        self.new = 0  # rows written by the current pass
        self.order = None  # key rows of the current pass; None: only the new rows

    def __call__(self, new_rows, project):
        k, v = project(new_rows)
        self.new = k.shape[1]
        self.k = _append(self.k, self.size, k.data, axis=1)
        self.v = _append(self.v, self.size, v.data, axis=1)
        if self.order is None:  # nothing held: the new rows are all the keys, in order
            return k, v
        if isinstance(self.order, slice):  # a view, not a copy
            return Tensor(self.k[:, self.order]), Tensor(self.v[:, self.order])
        return tuple(Tensor(np.take(a, self.order, axis=1)) for a in (self.k, self.v))

    def commit(self) -> None:
        self.size += self.new
        self.new = 0


class DecodeCache:
    """What one decode has computed, so that each position is scored once.

    html_step and cell_step take it where they take the image memory.  It
    holds each cross-attention block's memory keys and values, projected once,
    a structure decode's direction vectors, mixed once,
    and for every scored position each block's self-attention keys and values
    and the step's output rows (hidden and logits), in buffers that grow by
    doubling.  A step computes only the positions it has not scored, with a
    fixed number of NumPy calls over those rows.  This is exact because no
    scored row can change as the buffer grows:

    - a structure row sees only its prefix within the window, so the held
      rows are a prefix of the buffer and the new rows are the rest.  Every
      held key is kept, and a pass attends to the slice of them that its
      first new row can see (a single new row sees that whole slice, so
      html_step gives it no mask);
    - a cell row sees only SOS and the earlier tokens of its own cell within
      the window, with its position counted from the cell boundary, so rows
      are found through a (mask cell, relative position) -> row table.  A
      new cell row attends to a gathered key list, SOS plus its own cell's
      rows inside the window, padded to the longest list of the pass and
      masked, as one grouped attention call: no score is computed for
      another cell.

    The first pass scores every position under the dense mask, as a plain
    memory Tensor does: that is the no-cache reference path, which keeps no
    rows at all.  A buffer that does not extend the scored one raises
    ValueError.
    """

    def __init__(self, memory):
        self.memory = memory
        self.owner = None  # what the held rows were scored for
        self.cond = None
        self.held = 0  # rows scored so far
        self.tokens = np.zeros(0, dtype=np.int64)  # token per row, rows [0, held)
        self.outs: list[np.ndarray] = []  # step outputs per row, rows [0, held)
        self.table = np.full((0, 0), -1, dtype=np.int64)  # cells: (mask cell+1, rel) -> row
        self.self_keys: list[_SelfKeys] = []
        self.memory_keys: list[_MemoryKeys] = []
        self.dir_vecs = None  # structure: html_step's direction vectors, set on the first pass
        self.rows = None  # row per buffer position of the current pass
        self.pending = None  # the new rows' tokens and, for cells, table keys

    def _claim(self, owner, n_blocks: int, cond=None) -> None:
        if ad.grad_enabled():
            raise ValueError("cached keys and rows carry no gradient; decode under no_grad")
        if self.owner is None:
            self.owner = owner
            self.cond = None if cond is None else np.array(cond)
            self.self_keys = [_SelfKeys() for _ in range(n_blocks)]
            self.memory_keys = [_MemoryKeys() for _ in range(n_blocks)]
        elif owner != self.owner:
            raise ValueError(f"cache holds rows scored for {self.owner}, not {owner}")
        elif cond is not None and not np.array_equal(cond, self.cond):
            raise ValueError("cache holds rows scored for another conditioning")

    @staticmethod
    def _check_tokens(got: np.ndarray, want: np.ndarray, positions=None) -> None:
        """Raise at the first buffer position whose token differs from the
        one its held row was scored for."""
        bad = np.flatnonzero(got != want)
        if bad.size:
            b = bad[0]
            p = b if positions is None else positions[b]
            raise ValueError(f"position {p} holds token {got[b]}, scored as {want[b]}")

    def begin_structure(self, direction: str, ids: np.ndarray, window: int, n_blocks: int):
        """Match a structure buffer against the held rows, a prefix of it.

        Returns the positions to score and the first position they attend to:
        the oldest one the first new row sees within the window.
        """
        self._claim(("structure", direction), n_blocks)
        held, n = self.held, ids.shape[0]
        if n < held:
            raise ValueError(f"buffer keeps {n} of the {held} scored positions")
        if held:
            self._check_tokens(ids[:held], self.tokens[:held])
        self.rows = np.arange(n)
        self.pending = (ids[held:], None)
        first = max(held - window, 0)
        for sk in self.self_keys:
            sk.order = slice(first, n) if held else None
        return self.rows[held:], first

    def begin_cells(self, ids: np.ndarray, layout, window: int, n_blocks: int, cond):
        """Match a content buffer against the held rows through the table.

        Returns the positions to score and their mask: None when nothing is
        held (the caller builds the dense one), else a (G, 1, L) mask over
        each new row's gathered keys, which the self-key stores are set to.
        """
        self._claim(("cell", cond.shape[0]), n_blocks, cond)
        key = (layout.mask_cells + 1, layout.rel_pos)
        shape = (int(key[0].max()) + 1, int(key[1].max()) + 1)
        if shape[0] > self.table.shape[0] or shape[1] > self.table.shape[1]:
            grown = np.full(np.maximum(shape, self.table.shape) * (1, 2), -1, dtype=np.int64)
            grown[: self.table.shape[0], : self.table.shape[1]] = self.table
            self.table = grown
        rows = self.table[key]
        seen = np.flatnonzero(rows >= 0)
        if seen.size != self.held:
            raise ValueError(f"buffer keeps {seen.size} of the {self.held} scored positions")
        self._check_tokens(ids[seen], self.tokens[rows[seen]], seen)
        new = np.flatnonzero(rows < 0)
        rows[new] = np.arange(self.held, self.held + new.size)
        self.rows = rows
        self.pending = (ids[new], (key[0][new], key[1][new]))
        if not self.held:
            for sk in self.self_keys:
                sk.order = None
            return new, None
        # a new row of cell c at relative position r sees SOS (column 0) and
        # the positions p - own + 1 .. p of its own cell, own = min(r, window) + 1
        if new.size:
            own = np.minimum(layout.rel_pos[new], window) + 1
            own[layout.mask_cells[new] == L.SOS_CELL] = 0  # SOS is column 0 already
            cols = np.arange(1 + own.max())
            visible = (cols >= 1) & (cols <= own[:, None])
            gather = rows[np.where(visible, (new - own)[:, None] + cols, 0)]  # padding: SOS
            visible[:, 0] = True
            mask = np.where(visible, 0.0, NEG_INF)[:, None, :]
        else:  # nothing to score: one key keeps the attention shapes valid
            gather, mask = rows[:1], np.zeros((0, 1))
        for sk in self.self_keys:
            sk.order = gather.ravel()
        return new, mask

    def past(self, block: int):
        """The key stores of one block, for DecoderBlock(past=...)."""
        return self.self_keys[block], self.memory_keys[block]

    def finish(self, *outs: Tensor) -> tuple[Tensor, ...]:
        """Hold the new rows of each output; return the outputs at full
        buffer length, newly allocated, in buffer order."""
        held, (tokens, keys) = self.held, self.pending
        end = held + tokens.shape[0]
        if keys is not None:
            self.table[keys] = np.arange(held, end)
        self.tokens = _append(self.tokens, held, tokens)
        if not held:
            self.outs = [None] * len(outs)
        self.outs = [_append(buf, held, o.data) for buf, o in zip(self.outs, outs)]
        self.held = end
        for sk in self.self_keys:
            sk.commit()
        if not held:  # the new rows are the whole buffer, in order
            return outs
        return tuple(Tensor(np.take(buf, self.rows, axis=0)) for buf in self.outs)
