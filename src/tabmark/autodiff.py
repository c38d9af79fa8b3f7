"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray and remembers how it was produced; backward() walks
the tape in reverse topological order and accumulates gradients into every
reachable Tensor with requires_grad set.  Gradients ADD into .grad so that
per-sample backward calls implement batch accumulation; call zero_grad between
optimizer steps.

Fused ops (masked_softmax, layer_norm, cross_entropy, kl_to_const, conv2d)
carry hand-derived backward rules; everything else composes from primitives.
All math runs in the dtype of the operands (float64 throughout this package).
"""

from __future__ import annotations

import contextlib

import numpy as np

# Additive mask value standing in for -inf: large enough that exp underflows
# to exactly 0.0 in double precision after the row-max shift.
NEG_INF = -1e9

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable tape construction; forward math is unchanged."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def grad_enabled() -> bool:
    return _GRAD_ENABLED


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        return float(self.data)

    # -- graph -------------------------------------------------------------

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Accumulate d(self)/d(leaf) into every reachable requires_grad leaf."""
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {
            id(self): np.ones_like(self.data) if seed is None else np.asarray(seed)
        }
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad += g
            if node._backward is None:
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None:
                    continue
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, -1.0)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad or p._parents for p in parents):
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad over dims that were broadcast to reach grad.shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- primitives -------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _node(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _node(out, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data @ b.data

    def backward(g):
        if b.data.ndim == 1:  # (..., n) @ (n,) -> (...)
            ga = np.expand_dims(g, -1) * b.data
            gb = _unbroadcast(np.expand_dims(g, -1) * a.data, b.shape)
            return _unbroadcast(ga, a.shape), gb
        if a.data.ndim == 1:  # (n,) @ (n, m) -> (m,)
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
            gb = _unbroadcast(np.outer(a.data, g), b.shape)
            return ga, gb
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _node(out, (a, b), backward)


def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    keep = x.data > 0
    return _node(np.where(keep, x.data, 0.0), (x,), lambda g: (g * keep,))


def sigmoid(x: Tensor) -> Tensor:
    x = as_tensor(x)
    s = 1.0 / (1.0 + np.exp(-x.data))
    return _node(s, (x,), lambda g: (g * s * (1.0 - s),))


def absolute(x: Tensor) -> Tensor:
    x = as_tensor(x)
    return _node(np.abs(x.data), (x,), lambda g: (g * np.sign(x.data),))


def mean(x: Tensor) -> Tensor:
    x = as_tensor(x)
    n = x.data.size

    def backward(g):
        return (np.full_like(x.data, float(g) / n),)

    return _node(np.asarray(x.data.mean()), (x,), backward)


def reshape(x: Tensor, shape) -> Tensor:
    x = as_tensor(x)
    old = x.data.shape
    return _node(x.data.reshape(shape), (x,), lambda g: (g.reshape(old),))


def swapaxes(x: Tensor, a: int, b: int) -> Tensor:
    x = as_tensor(x)
    return _node(np.swapaxes(x.data, a, b), (x,), lambda g: (np.swapaxes(g, a, b),))


def take_rows(x: Tensor, indices) -> Tensor:
    """Gather rows along axis 0; backward scatter-adds (duplicate-safe)."""
    x = as_tensor(x)
    idx = np.asarray(indices, dtype=np.int64)

    def backward(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        return (gx,)

    return _node(x.data[idx], (x,), backward)


def concat_rows(parts: list[Tensor]) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    sizes = [p.data.shape[0] for p in parts]

    def backward(g):
        out, off = [], 0
        for s in sizes:
            out.append(g[off : off + s])
            off += s
        return tuple(out)

    return _node(np.concatenate([p.data for p in parts], axis=0), tuple(parts), backward)


# -- fused ops ----------------------------------------------------------------


def masked_softmax(scores: Tensor, mask: np.ndarray | None) -> Tensor:
    """softmax(scores + mask) rows; mask entries are 0 or NEG_INF, None for no mask.

    Rejects rows with no unmasked entry.  With NEG_INF and the row-max shift,
    masked probabilities underflow to exactly 0.0, so masked positions
    contribute nothing in either direction of the pass.
    """
    scores = as_tensor(scores)
    z = scores.data
    if mask is not None:
        if mask.shape != z.shape[-2:]:
            raise ValueError(f"mask shape {mask.shape} != scores shape {z.shape[-2:]}")
        if not np.all(np.any(mask == 0.0, axis=-1)):
            raise ValueError("attention mask has a fully masked query row")
        z = z + mask
    z = z - z.max(axis=-1, keepdims=True)
    p = np.exp(z)
    p = p / p.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - inner),)

    return _node(p, (scores,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = gamma.data * xhat + beta.data

    def backward(g):
        d = x.data.shape[-1]
        gxhat = g * gamma.data
        gx = inv * (
            gxhat
            - gxhat.mean(axis=-1, keepdims=True)
            - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
        )
        axes = tuple(range(g.ndim - 1))
        return gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    return _node(out, (x, gamma, beta), backward)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean cross-entropy of integer targets under softmax(logits); (L,V) in."""
    logits = as_tensor(logits)
    t = np.asarray(targets, dtype=np.int64)
    if t.shape[0] != logits.data.shape[0]:
        raise ValueError("targets length does not match logits")
    z = logits.data
    m = z.max(axis=-1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=-1))
    losses = lse - z[np.arange(len(t)), t]

    def backward(g):
        p = np.exp(z - m)
        p /= p.sum(axis=-1, keepdims=True)
        p[np.arange(len(t)), t] -= 1.0
        return (p * (float(g) / len(t)),)

    return _node(np.asarray(losses.mean()), (logits,), backward)


def kl_to_const(ref: np.ndarray, logits: Tensor) -> Tensor:
    """Mean over positions of KL(ref || softmax(logits)); ref held constant.

    ref rows are probability vectors; terms with ref == 0 contribute 0.
    Working from logits keeps log q exact (no underflow of small q).
    """
    logits = as_tensor(logits)
    if ref.shape != logits.data.shape:
        raise ValueError("reference/logits shape mismatch")
    z = logits.data
    m = z.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True))
    logq = z - lse
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(ref > 0.0, ref * (np.log(np.where(ref > 0.0, ref, 1.0)) - logq), 0.0)
    n = ref.shape[0]

    def backward(g):
        q = np.exp(logq)
        return ((q * ref.sum(axis=-1, keepdims=True) - ref) * (float(g) / n),)

    return _node(np.asarray(terms.sum(axis=-1).mean()), (logits,), backward)


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 2, pad: int = 1) -> Tensor:
    """2D convolution over (H, W, Cin) with kernel (k, k, Cin, Cout)."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    k = w.data.shape[0]
    xp = np.pad(x.data, ((pad, pad), (pad, pad), (0, 0)))
    hp, wp, cin = xp.shape
    ho = (hp - k) // stride + 1
    wo = (wp - k) // stride + 1
    cols = np.empty((ho, wo, k, k, cin), dtype=xp.dtype)
    for di in range(k):
        for dj in range(k):
            cols[:, :, di, dj, :] = xp[
                di : di + stride * ho : stride, dj : dj + stride * wo : stride, :
            ]
    cols2 = cols.reshape(ho * wo, k * k * cin)
    wm = w.data.reshape(k * k * cin, -1)
    out = (cols2 @ wm + b.data).reshape(ho, wo, -1)

    def backward(g):
        g2 = g.reshape(ho * wo, -1)
        gw = (cols2.T @ g2).reshape(w.data.shape)
        gb = g2.sum(axis=0)
        gcols = (g2 @ wm.T).reshape(ho, wo, k, k, cin)
        gxp = np.zeros_like(xp)
        for di in range(k):
            for dj in range(k):
                gxp[di : di + stride * ho : stride, dj : dj + stride * wo : stride, :] += gcols[
                    :, :, di, dj, :
                ]
        h, wdt = x.data.shape[:2]
        return gxp[pad : pad + h, pad : pad + wdt, :], gw, gb

    return _node(out, (x, w, b), backward)
