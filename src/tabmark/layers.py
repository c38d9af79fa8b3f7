"""Attention building blocks: positional codes, masks, multi-head attention,
feed-forward and pre-norm residual blocks, plus parameter bookkeeping.

Masks are additive numpy matrices with entries in {0, NEG_INF}; None stands
for no mask.  The scaled dot product divides by sqrt(d/heads), i.e. the
per-head channel count.
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


def build_local_mask(n: int, w: int) -> np.ndarray:
    """Causal sliding window: M_ij = 0 iff 0 <= i-j <= w."""
    if n < 1:
        raise ValueError("mask needs at least one position")
    if w < 0:
        raise ValueError("window must be nonnegative")
    diff = np.arange(n)[:, None] - np.arange(n)[None, :]
    return np.where((diff >= 0) & (diff <= w), 0.0, NEG_INF)


SOS_CELL = -1  # layout marker for the SOS position


def build_cellwise_mask(layout, w: int) -> np.ndarray:
    """M_ij = 0 iff (j is SOS) or (cell(i) == cell(j) and 0 <= i-j <= w).

    layout: per-token cell index, SOS_CELL marking the SOS position.  Callers
    give SEP positions unique pseudo-cell ids so separators stay isolated.
    """
    lay = np.asarray(layout, dtype=np.int64)
    if lay.size == 0:
        raise ValueError("empty layout")
    n = lay.shape[0]
    diff = np.arange(n)[:, None] - np.arange(n)[None, :]
    same = lay[:, None] == lay[None, :]
    visible = (same & (diff >= 0) & (diff <= w)) | (lay[None, :] == SOS_CELL)
    return np.where(visible, 0.0, NEG_INF)


def zero_mask(n: int, m: int) -> np.ndarray:
    return np.zeros((n, m))


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

    def names(self) -> list[str]:
        return list(self._params)

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.zero_grad()

    def count(self) -> int:
        return sum(t.data.size for t in self._params.values())


class Linear:
    def __init__(self, ps: ParamSet, name: str, d_in: int, d_out: int, bias: bool = True):
        self.w = ps.make(f"{name}.w", (d_in, d_out))
        self.b = ps.make(f"{name}.b", (d_out,), "zeros") if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        out = ad.matmul(x, self.w)
        return ad.add(out, self.b) if self.b is not None else out


class LayerNorm:
    def __init__(self, ps: ParamSet, name: str, d: int):
        self.g = ps.make(f"{name}.g", (d,), "ones")
        self.b = ps.make(f"{name}.b", (d,), "zeros")

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.g, self.b)


class MultiHeadAttention:
    """Z = concat_h(softmax(Q_h K_h^T / sqrt(d_h) + M) V_h) W; projections carry no biases."""

    def __init__(self, ps: ParamSet, name: str, d: int, heads: int):
        if d % heads != 0:
            raise ValueError(f"channels {d} not divisible by heads {heads}")
        self.d, self.heads, self.dh = d, heads, d // heads
        self.wq = ps.make(f"{name}.wq", (d, d))
        self.wk = ps.make(f"{name}.wk", (d, d))
        self.wv = ps.make(f"{name}.wv", (d, d))
        self.wo = ps.make(f"{name}.wo", (d, d))

    def _split(self, x: Tensor, n: int) -> Tensor:
        # (n, d) -> (heads, n, dh)
        return ad.swapaxes(ad.reshape(x, (n, self.heads, self.dh)), 0, 1)

    def _project(self, y: Tensor) -> tuple[Tensor, Tensor]:
        m = y.shape[0]
        return self._split(ad.matmul(y, self.wk), m), self._split(ad.matmul(y, self.wv), m)

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
        q = self._split(ad.matmul(x, self.wq), n)
        k, v = self._project(y) if past is None else past(y, self._project)
        if mask is not None and mask.shape != (n, k.shape[1]):
            raise ValueError(f"mask shape {mask.shape}, expected {(n, k.shape[1])}")
        scores = ad.mul(ad.matmul(q, ad.swapaxes(k, 1, 2)), 1.0 / np.sqrt(self.dh))
        weights = ad.masked_softmax(scores, mask)
        ctx = ad.matmul(weights, v)  # (heads, n, dh)
        merged = ad.reshape(ad.swapaxes(ctx, 0, 1), (n, self.d))
        return ad.matmul(merged, self.wo)


class FeedForward:
    def __init__(self, ps: ParamSet, name: str, d: int, mult: int):
        self.up = Linear(ps, f"{name}.up", d, d * mult)
        self.down = Linear(ps, f"{name}.down", d * mult, d)

    def __call__(self, x: Tensor) -> Tensor:
        return self.down(ad.relu(self.up(x)))


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
