"""Attention building blocks: positional codes, masks, multi-head attention,
feed-forward and pre-norm residual blocks, plus parameter bookkeeping.

Masks are additive numpy matrices with entries in {0, NEG_INF}; None stands
for no mask.  A (G, r, c) stack of masks is block-diagonal: G groups of r
consecutive query rows, each attending only to its own c keys.  The scaled
dot product divides by sqrt(d/heads), i.e. the per-head channel count.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import NEG_INF, Tensor


def pos_encode_1d(positions, d: int) -> np.ndarray:
    """Interleaved sin/cos code; p(0) = [0,1,0,1,...]; values in [-1,1].

    positions: scalar or int array; returns (d,) or (len, d).
    """
    if d % 2 != 0:
        raise ValueError(f"channel count must be even, got {d}")
    pos = np.atleast_1d(np.asarray(positions, dtype=np.float64))
    if np.any(pos < 0):
        raise ValueError("positions must be nonnegative")
    i = np.arange(d // 2, dtype=np.float64)
    freq = 1.0 / (10000.0 ** (2.0 * i / d))
    angle = pos[:, None] * freq[None, :]
    out = np.empty((pos.shape[0], d))
    out[:, 0::2] = np.sin(angle)
    out[:, 1::2] = np.cos(angle)
    return out[0] if np.isscalar(positions) or np.asarray(positions).ndim == 0 else out


def pos_encode_2d(i, j, d: int) -> np.ndarray:
    """[p(i); p(j)], each half d/2 channels."""
    if d % 4 != 0:
        raise ValueError(f"channel count must be divisible by 4, got {d}")
    return np.concatenate([pos_encode_1d(i, d // 2), pos_encode_1d(j, d // 2)], axis=-1)


def pos_grid_2d(h: int, w: int, d: int) -> np.ndarray:
    """Row-major flattened (h*w, d) grid of 2D codes."""
    rows = np.repeat(np.arange(h), w)
    cols = np.tile(np.arange(w), h)
    return pos_encode_2d(rows, cols, d)


def _window(pos: np.ndarray, w: int) -> np.ndarray:
    """(n, n) booleans: 0 <= p_i - p_j <= w."""
    diff = pos[:, None] - pos[None, :]
    return (diff >= 0) & (diff <= w)


def build_local_mask(n: int, w: int) -> np.ndarray:
    """Causal sliding window over n positions: M_ij = 0 iff 0 <= i-j <= w."""
    if n < 1:
        raise ValueError("mask needs at least one position")
    if w < 0:
        raise ValueError("window must be nonnegative")
    # build_cellwise_mask over one sequence, without its sequence and root terms
    return np.where(_window(np.arange(n), w), 0.0, NEG_INF)


def build_cellwise_mask(seq, pos, w: int) -> np.ndarray:
    """model.DecodeCache's row rule as a dense mask over rows keyed (seq, pos)
    (model.BufferLayout): M_ij = 0 iff row j is in row i's sequence with
    0 <= p_i - p_j <= w, or j is the root (0, 0) and row i is outside
    sequence 0.  In a content buffer: SOS and the row's own cell."""
    seq, pos = np.asarray(seq, dtype=np.int64), np.asarray(pos, dtype=np.int64)
    if seq.size == 0:
        raise ValueError("empty layout")
    visible = (seq[:, None] == seq[None, :]) & _window(pos, w)
    visible |= (seq >= 1)[:, None] & ((seq == 0) & (pos == 0))
    return np.where(visible, 0.0, NEG_INF)


class ParamSet:
    """Ordered name -> Tensor registry; the single source of model weights."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._params: dict[str, Tensor] = {}

    def make(self, name: str, shape: tuple[int, ...], kind: str = "linear") -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        if kind == "linear":  # Glorot uniform over the last two dims
            fan_in, fan_out = shape[-2], shape[-1]
            lim = np.sqrt(6.0 / (fan_in + fan_out))
            data = self._rng.uniform(-lim, lim, size=shape)
        elif kind == "embedding":
            data = self._rng.normal(0.0, 0.02, size=shape)
        elif kind == "zeros":
            data = np.zeros(shape)
        elif kind == "ones":
            data = np.ones(shape)
        elif kind == "conv":  # He-style for relu conv kernels (k,k,cin,cout)
            fan_in = shape[0] * shape[1] * shape[2]
            data = self._rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
        else:
            raise ValueError(f"unknown init kind {kind!r}")
        t = Tensor(data, requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self):
        return self._params.items()

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.zero_grad()


class Linear:
    def __init__(self, ps: ParamSet, name: str, d_in: int, d_out: int):
        self.w = ps.make(f"{name}.w", (d_in, d_out))
        self.b = ps.make(f"{name}.b", (d_out,), "zeros")

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.w, self.b)


class LayerNorm:
    def __init__(self, ps: ParamSet, name: str, d: int):
        self.g = ps.make(f"{name}.g", (d,), "ones")
        self.b = ps.make(f"{name}.b", (d,), "zeros")

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.g, self.b)


class MultiHeadAttention:
    """Z = concat_h(softmax(Q_h K_h^T / sqrt(d_h) + M) V_h) W; projections carry no biases.

    Keys and values are projected here, one autodiff.project_heads node each;
    the rest is one autodiff.attention node.
    """

    def __init__(self, ps: ParamSet, name: str, d: int, heads: int):
        if d % heads != 0:
            raise ValueError(f"channels {d} not divisible by heads {heads}")
        self.d, self.heads, self.dh = d, heads, d // heads
        self.wq = ps.make(f"{name}.wq", (d, d))
        self.wk = ps.make(f"{name}.wk", (d, d))
        self.wv = ps.make(f"{name}.wv", (d, d))
        self.wo = ps.make(f"{name}.wo", (d, d))

    def _project(self, y: Tensor) -> tuple[Tensor, Tensor]:
        """(m, d) key rows -> (heads, m, dh) keys and values."""
        return ad.project_heads(y, self.wk, self.heads), ad.project_heads(y, self.wv, self.heads)

    def __call__(self, x: Tensor, y: Tensor, mask: np.ndarray | None = None, past=None) -> Tensor:
        """Queries from x, keys and values from y; mask None means no mask.

        past, when given, keeps the keys and values of earlier calls: it is
        called as past(y, project) and returns the (heads, m, dh) keys and
        values of all m key positions, projecting with project(rows) only
        what it does not hold yet (see model.DecodeCache).
        """
        n = x.shape[0]
        if x.shape[-1] != self.d or y.shape[-1] != self.d:
            raise ValueError("attention input channel mismatch")
        k, v = self._project(y) if past is None else past(y, self._project)
        if mask is not None:
            g = mask.shape[0] if mask.ndim == 3 else 1
            if mask.shape[-2:] != (n // g, k.shape[1] // g) or n % g or k.shape[1] % g:
                raise ValueError(f"mask shape {mask.shape} does not fit {(n, k.shape[1])}")
        return ad.attention(x, k, v, self.wq, self.wo, mask)


class FeedForward:
    """down(relu(up(x))) as one autodiff.feed_forward node."""

    def __init__(self, ps: ParamSet, name: str, d: int, mult: int):
        self.up = Linear(ps, f"{name}.up", d, d * mult)
        self.down = Linear(ps, f"{name}.down", d * mult, d)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.feed_forward(x, self.up.w, self.up.b, self.down.w, self.down.b)


class DecoderBlock:
    """Pre-norm residual block: self-attention, optional cross-attention, FFN."""

    def __init__(self, ps: ParamSet, name: str, d: int, heads: int, mult: int, cross: bool):
        self.ln1 = LayerNorm(ps, f"{name}.ln1", d)
        self.self_attn = MultiHeadAttention(ps, f"{name}.self", d, heads)
        self.cross_attn = None
        if cross:
            self.ln2 = LayerNorm(ps, f"{name}.ln2", d)
            self.cross_attn = MultiHeadAttention(ps, f"{name}.cross", d, heads)
        self.ln3 = LayerNorm(ps, f"{name}.ln3", d)
        self.ffn = FeedForward(ps, f"{name}.ffn", d, mult)

    def __call__(
        self, x: Tensor, self_mask: np.ndarray | None, memory=None, past=(None, None)
    ) -> Tensor:
        """past: the (self-attention, cross-attention) key stores of a
        DecodeCache, forwarded to the attention layers; (None, None) without."""
        self_past, cross_past = past
        h = self.ln1(x)
        x = ad.add(x, self.self_attn(h, h, self_mask, past=self_past))
        if self.cross_attn is not None:
            if memory is None:
                raise ValueError("cross-attention block needs memory")
            x = ad.add(x, self.cross_attn(self.ln2(x), memory, None, past=cross_past))
        x = ad.add(x, self.ffn(self.ln3(x)))
        return x
