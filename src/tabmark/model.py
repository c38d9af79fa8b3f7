"""The full recognition stack: image encoder, bidirectional HTML decoder,
cell-feature fetcher, refiner, bbox head, and the content (cell) decoder.

The stages hand each other plain arrays and Tensors: the fetcher takes the
structure token ids and their hidden rows and finds the cell anchors itself
(vocab.iter_cells); the bbox head gives an (n_cells, 4) array, the format of
synth.TableRecord.boxes.

Buffer conventions for the cell decoder (shared by training and inference,
which is what makes greedy parallel decoding equal greedy sequential
decoding; BufferLayout writes them):

- A content buffer is [SOS] followed by cell segments, each ``tokens + SEP``.
- Each row has a (sequence, position) key: SOS is the root (0, 0), the j-th
  token of cell k is (k + 1, j) and the k-th SEP is (n + k + 1, 0).  By the
  row rule below a token sees SOS and its cell's earlier tokens within the
  window, and a SEP sees only SOS and itself and is seen by nobody else.
- Conditioning: each row carries the feature of the cell whose next token
  it predicts (BufferLayout.cond_cells): SOS cell 0, a token of cell k cell
  k, the k-th SEP cell k + 1 (the zero vector past the last cell).

Incremental decoding (DecodeCache): both steps accept, in place of the image
memory, a cache that holds the memory's cross-attention keys and values
(projected once per image), the step's mixed conditioning table, and for
every row already scored each block's self-attention keys and values.  A
cached step computes and returns only the rows the cache has not scored.
Every row is keyed by (sequence, position) and sees the rows of its own
sequence within the window, (s, max(0, p - window)) .. (s, p), plus, for
s >= 1, the shared root (0, 0); a structure decode is sequence 0.  So no
scored row changes as the buffer grows.  html_step takes the whole prefix,
whose held tokens the cache checks; cell_step takes only the new rows,
because a pass grows cells all over the buffer and the decode knows which
rows it added.  A plain memory Tensor is the no-cache reference path: a full
pass under the dense mask (build_local_mask, build_cellwise_mask), as in
training, which keeps no rows.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace
from functools import partial

import numpy as np

from . import autodiff as ad
from . import layers as L
from . import vocab as V
from .autodiff import NEG_INF, Tensor

VARIANTS = ("bbox", "through", "full")  # also the order ablate writes its rows in


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
        if self.struct_cap < 2:  # the buffer starts with SOS: a cap of 1 holds no token
            raise ValueError(f"struct_cap must be >= 2, got {self.struct_cap}")
        if self.content_cap < 1:
            raise ValueError(f"content_cap must be >= 1, got {self.content_cap}")
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
    number from a JSON number or its decimal text (str(True) is "True" and
    str(None) "None", so neither reads as one), a tuple from a JSON list or
    comma-separated text, each item a number; any other value as given, for
    validate to judge.  A ValueError says what the value needs."""
    many = isinstance(like, tuple)
    kind = type(like[0] if many else like)
    if kind not in (int, float):
        return v

    def number(x):  # int() and float() also take "1_0", " 7 " and non-ASCII digits
        text = str(x)
        if not text.isascii() or "_" in text or text != text.strip():
            raise ValueError(text)
        return kind(text)

    items = v.split(",") if many and isinstance(v, str) else v
    try:
        if not many:
            return number(v)
        if isinstance(items, (list, tuple)):
            return tuple(number(x) for x in items)
    except ValueError:
        pass
    need = "an integer" if kind is int else "a number"
    raise ValueError(f"a list, each item {need}" if many else need)


@dataclass
class BufferLayout:
    """Content buffer rows by their DecodeCache keys: SOS at the root (0, 0),
    the j-th token of cell k at (k + 1, j), the k-th SEP at (n + k + 1, 0).
    Written by content_buffer, for a whole buffer, and cell_tokens, for new rows."""

    seq: np.ndarray
    pos: np.ndarray

    @classmethod
    def cell_tokens(cls, cells, positions) -> "BufferLayout":
        """The rows of the positions[i]-th token of cell cells[i], for each i."""
        return cls(np.array(cells, dtype=np.int64) + 1, np.array(positions, dtype=np.int64))

    def cond_cells(self, n: int) -> np.ndarray:
        """The cell whose next token each row predicts, for n cells: 0 at the
        root, s - 1 for a token row (s, p), s - n for a SEP; so the last SEP
        gets n, the zero row of the conditioning table [cond; 0]."""
        s = self.seq
        return np.where(s > n, s - n, np.maximum(s - 1, 0))


def content_buffer(cells) -> tuple[list[int], BufferLayout]:
    """The content buffer of per-cell token lists, [SOS] + (cell + SEP) for
    each cell, and its layout.

    A cell's tokens must not hold SEP or SOS (DecodeState.insert refuses them).
    """
    n = len(cells)
    ids, seq, pos = [V.CONTENT.sos], [0], [0]
    for k, tokens in enumerate(cells):
        ids += [*tokens, V.SEP_ID]
        seq += [k + 1] * len(tokens) + [n + k + 1]  # the k-th SEP: a sequence of its own
        pos += [*range(len(tokens)), 0]
    return ids, BufferLayout(np.array(seq, dtype=np.int64), np.array(pos, dtype=np.int64))


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
        """(side, side[, C]) float pixels in [0,1] -> (grid*grid, d) with 2D
        codes added.  Integer pixels are refused: 8-bit codes become floats
        in synth.prepare_image only."""
        img = np.asarray(image)
        if np.issubdtype(img.dtype, np.integer):
            raise ValueError(
                f"expected float pixels in [0, 1], got {img.dtype}; "
                "synth.prepare_image converts 8-bit codes"
            )
        img = img.astype(np.float64, copy=False)
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

        input_ids starts with SOS.  img_feats is the image memory or a
        DecodeCache of it.  With the memory it returns (logits, hidden), both
        length-aligned with the input; with a cache it scores and returns only
        the positions the cache has not scored yet, in order.  It takes the
        whole prefix even so: the decode appends one token a pass, and the
        prefix lets the step check that the held positions still hold the
        tokens they were scored for.

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
        held = 0
        if isinstance(img_feats, DecodeCache):
            if len(dirs) > 1:
                raise ValueError("both students run in one pass only on the plain memory")
            img_feats.claim(("structure", direction), len(self.html_blocks))
            held, tokens = img_feats.held, img_feats.tokens
            if n < held:
                raise ValueError(f"buffer keeps {n} of the {held} scored positions")
            bad = np.flatnonzero(ids[:held] != tokens[:held])
            if bad.size:
                p = bad[0]
                raise ValueError(f"position {p} holds token {ids[p]}, scored as {tokens[p]}")
        student, positions = np.divmod(np.arange(held, ids.shape[0]), n)

        def dense():  # for "both", one causal window per student, over its own rows
            mask = L.build_local_mask(n, self.cfg.window)
            return np.broadcast_to(mask, (len(dirs), n, n)) if len(dirs) > 1 else mask

        decoder = (self.struct_emb, self.html_mix_tok, self.html_mix_dir, self.html_mix_b,
                   self.html_blocks, self.html_norm, self.struct_out)
        return self._decode(
            decoder, ids[held:], student, positions, lambda: ad.take_rows(self.dir_emb, dirs),
            dense, img_feats, student,  # under a cache, sequence 0
        )

    def fetch_cells(self, token_ids, hidden: Tensor) -> Tensor:
        """One feature per cell, reading order, (n, d): the hidden rows of the
        structure tokens (SOS row stripped) at the cell anchors, V.iter_cells."""
        if hidden.shape[0] != len(token_ids):
            raise ValueError(f"{hidden.shape[0]} hidden rows for {len(token_ids)} tokens")
        anchors = V.iter_cells(token_ids)
        if not anchors:
            return Tensor(np.zeros((0, self.cfg.d)))
        return ad.take_rows(hidden, anchors)

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
        """One pass of the content decoder; one logits row per given row.

        With the image memory, input_ids and layout are a full buffer, scored
        under the dense cell-wise mask.  With a DecodeCache of it they are
        only the rows the cache has not scored: the first pass a full buffer,
        scored the same way, each later pass the rows added since, each
        attending through its own cell's gathered keys.  A row outside the
        buffer of cond's cells (sequence past 2n, a negative or capped
        position) raises ValueError before the cache is touched.
        """
        ids = np.asarray(input_ids, dtype=np.int64)
        cache = img_feats if isinstance(img_feats, DecodeCache) else None
        n = ids.shape[0] + (cache.held if cache else 0)
        if n > self.cfg.content_cap:
            raise ValueError(f"content input length {n} exceeds cap {self.cfg.content_cap}")
        if layout.seq.shape != ids.shape or layout.pos.shape != ids.shape:
            raise ValueError("layout length does not match the buffer")
        n_cells, seq, pos, cap = cond.shape[0], layout.seq, layout.pos, self.cfg.content_cap
        bad = np.flatnonzero((seq < 0) | (seq > 2 * n_cells) | (pos < 0) | (pos >= cap))
        if bad.size:
            i = bad[0]
            raise ValueError(f"row {i} (sequence {seq[i]}, position {pos[i]}) is outside "
                             f"a buffer of {n_cells} cells and content_cap {cap}")
        if cache is not None:
            cache.claim(("cell", n_cells), len(self.cell_blocks), ad.as_tensor(cond).data)
        decoder = (self.content_emb, self.cell_mix_tok, self.cell_mix_feat, self.cell_mix_b,
                   self.cell_blocks, self.cell_norm, self.content_out)
        return self._decode(
            decoder, ids, layout.cond_cells(n_cells), pos,
            lambda: ad.concat_rows([cond, Tensor(np.zeros((1, self.cfg.d)))]),
            lambda: L.build_cellwise_mask(seq, pos, self.cfg.window),
            img_feats, seq,
        )[0]

    def _decode(self, decoder, ids, cond_index, positions, cond_rows, dense, img_feats, seq):
        """The pass both decoders share, over the rows ids at positions:
        x = emb[ids] @ mix_tok + cond_table[cond_index] + mix_b + pos_codes,
        then the blocks, the norm and the head; returns (logits, hidden).

        The conditioning table is cond_rows() @ mix_cond, mixed once per
        decode under a cache.  On the plain memory every row attends under
        the dense mask dense(); a cache enters the rows as new at (seq,
        positions) and gives their mask (DecodeCache.begin).
        """
        emb, mix_tok, mix_cond, mix_b, blocks, norm, head = decoder
        cache = img_feats if isinstance(img_feats, DecodeCache) else None
        if cache is None:
            memory, mask, table = img_feats, dense(), ad.matmul(cond_rows(), mix_cond)
        else:
            memory, mask = cache.memory, cache.begin(seq, positions, ids, self.cfg.window, dense)
            if cache.cond_table is None:
                cache.cond_table = ad.matmul(cond_rows(), mix_cond)
            table = cache.cond_table
        x = ad.add(
            ad.add(ad.matmul(ad.take_rows(emb, ids), mix_tok), ad.take_rows(table, cond_index)),
            mix_b,
        )
        x = ad.add(x, self.pos_codes(positions))
        for i, blk in enumerate(blocks):
            x = blk(x, mask, memory, past=cache.past(i) if cache else (None, None))
        hidden = norm(x)
        logits = head(hidden)
        if cache is not None:
            cache.finish(ids.shape[0])
        return logits, hidden


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
    order they were scored.  A pass writes its new rows after the `held`
    ones and attends to the key rows in `order`; both come from the cache
    (DecodeCache.past), which holds the new rows when the pass ends."""

    def __init__(self):
        self.k = self.v = None  # (heads, capacity, dh); rows [0, held) are held

    def __call__(self, new_rows, project, held: int, order):
        k, v = project(new_rows)
        self.k = _append(self.k, held, k.data, axis=1)
        self.v = _append(self.v, held, v.data, axis=1)
        if order is None:  # nothing held: the new rows are all the keys, in order
            return k, v
        if isinstance(order, slice):  # a view, not a copy
            return Tensor(self.k[:, order]), Tensor(self.v[:, order])
        return tuple(Tensor(np.take(a, order, axis=1)) for a in (self.k, self.v))


class DecodeCache:
    """What one decode has computed, so that each row is scored once.

    html_step and cell_step take it where they take the image memory.  It
    holds each cross-attention block's memory keys and values, projected
    once, the step's conditioning table, mixed once, and for every scored
    row its token and each block's self-attention keys and values, in
    buffers that grow by doubling.  One (sequence, position) -> row table
    keys the rows of both decoders.  The cache alone counts the held rows
    and holds the current pass's key order; each block's key store reads
    both from it (past).  A row at (s, p) sees (s, max(0, p - window)) ..
    (s, p), and, for s >= 1, the shared root (0, 0): a structure decode is
    sequence 0, and a cell decode hands over its BufferLayout's keys.  A
    step computes and returns only the rows it has not scored, with a fixed
    number of NumPy calls over those rows, and the bookkeeping loops over
    the new rows only.  This is exact because no scored row can change
    as the buffer grows.  A pass attends through the keys its new rows see:

    - one new row of sequence 0 whose keys are one held range, as in every
      pass of a greedy structure decode, attends to a slice of the held
      keys, a view rather than a copy, and needs no mask;
    - any other row attends to a gathered key list, the root plus its own
      sequence's rows inside the window, padded to the longest list of the
      pass and masked, as one grouped attention call: no score is computed
      for another sequence.

    The first pass scores every row under the step's dense mask, as a plain
    memory Tensor does: that is the no-cache reference path, which keeps no
    rows at all.  A row that is held already or given twice, and a row whose
    earlier row in its sequence is neither held nor given before it, raise
    ValueError and leave the cache as it was.
    """

    def __init__(self, memory):
        self.memory = memory
        self.owner = None  # what the held rows were scored for
        self.cond = None
        self.cond_table = None  # the step's mixed conditioning table, set on the first pass
        self.held = 0  # rows scored so far
        self.order = None  # key rows of the current pass; None: only the new rows
        self.tokens = np.zeros(0, dtype=np.int64)  # token per row, rows [0, held)
        self.table = np.full((0, 0), -1, dtype=np.int64)  # (sequence, position) -> row
        self.self_keys: list[_SelfKeys] = []
        self.memory_keys: list[_MemoryKeys] = []

    def claim(self, owner, n_blocks: int, cond=None) -> None:
        """Take the cache for a step's rows, or check that it holds rows
        scored for the same owner and conditioning."""
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

    def begin(self, seq, pos, ids, window: int, dense):
        """Enter a pass's new rows, (seq[i], pos[i]) with token ids[i], after
        the held ones.  Sets `order`, the key rows of the new rows, and
        returns their mask: dense() when nothing is held (the new rows are
        then all the keys), None for one row that sees all its keys, else a
        (G, 1, L) mask over each new row's gathered keys.
        """
        seqs, positions = seq.tolist(), pos.tolist()
        shape = (max(seqs, default=0) + 1, max(positions, default=0) + 1)
        if shape[0] > self.table.shape[0] or shape[1] > self.table.shape[1]:
            grown = np.full(np.maximum(shape, self.table.shape) * (1, 2), -1, dtype=np.int64)
            grown[: self.table.shape[0], : self.table.shape[1]] = self.table
            self.table = grown
        table, held, n = self.table, self.held, len(positions)
        # a new row is not held or given twice, and the root and its earlier
        # row are held or given before it: so a sequence's rows grow with its
        # positions, and no gather reads an unscored row.  At these pass sizes
        # a loop over the new rows costs less than a dozen NumPy calls.
        for i, (s, p) in enumerate(zip(seqs, positions)):
            old = table.item(s, p)
            if old >= 0 or (p and table.item(s, p - 1) < 0) or (s and table.item(0, 0) < 0):
                table[seq[:i], pos[:i]] = -1
                r = old - held if old >= held else i
                why = "is scored already" if 0 <= old < held else "is given twice or follows no scored row"
                raise ValueError(f"row {r} (sequence {s}, position {p}) {why}")
            table[s, p] = held + i
        self.tokens = _append(self.tokens, held, ids)
        # a new row at (s, p) sees the root when s >= 1, and its sequence's
        # positions lo .. p, lo = max(0, p - window): for one row of
        # sequence 0, its last `span` held rows and itself
        span = min(positions[0], window) if n == 1 and seqs[0] == 0 else -1
        if not held:  # the new rows are all the keys
            self.order, mask = None, None if n == 1 else dense()
        elif span >= 0 and table[0, positions[0] - span] == held - span:  # one range of rows
            self.order, mask = slice(held - span, held + 1), None  # a view
        elif n:
            lo = np.maximum(pos - window, 0)
            cols = np.arange(2 + (pos - lo).max())  # column 0: the root
            visible = (cols >= 1) & (cols <= (pos - lo + 1)[:, None])
            at = np.where(visible, lo[:, None] + cols - 1, 0)
            self.order = table[np.where(visible, seq[:, None], 0), at].ravel()  # padding: the root
            visible[:, 0] = seq >= 1
            mask = np.where(visible, 0.0, NEG_INF)[:, None, :]
        else:  # nothing to score: one key keeps the attention shapes valid
            self.order, mask = table[0, :1], np.zeros((0, 1))
        return mask

    def past(self, block: int):
        """The key stores of one block, for DecoderBlock(past=...); the
        self-attention store reads the held count and this pass's key order."""
        keys = partial(self.self_keys[block], held=self.held, order=self.order)
        return keys, self.memory_keys[block]

    def finish(self, new: int) -> None:
        """Hold the pass's new rows: scored, they are never computed again."""
        self.held += new
