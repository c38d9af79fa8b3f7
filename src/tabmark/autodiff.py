"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray and remembers how it was produced; backward() walks
the tape in reverse topological order and accumulates gradients into every
reachable Tensor with requires_grad set.  Gradients ADD into .grad so that
per-sample backward calls implement batch accumulation; call zero_grad between
optimizer steps.  backward() frees the graph it walks: once a node's gradient
has gone to its parents, the node drops its parents and its backward rule with
the arrays that rule saved, so one sample's tape is released as its backward
runs.  A second backward through any node of a walked graph raises
RuntimeError.

Fused ops put one node on the tape and carry hand-derived backward rules.
The layers are built from linear, feed_forward, project_heads, attention,
layer_norm and conv2d (with its ReLU), each of which does the arithmetic of
the primitives it replaces in their order, so its output is bitwise theirs.
The losses cross_entropy and kl_to_const, and masked_softmax, are fused too.
Everything else composes from primitives.
All math runs in the dtype of the operands (float64 throughout this package).
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

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

    # -- graph -------------------------------------------------------------

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Accumulate d(self)/d(leaf) into every reachable requires_grad leaf.

        Frees the graph as it walks it: each interior node, once its backward
        rule has run, keeps only its data, so afterwards self is a leaf and
        every interior node no one else holds is gone.  A later backward that
        reaches a walked node raises RuntimeError.
        """
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
        while topo:
            node = topo.pop()
            g = grads.pop(id(node), None)
            parents, backward = node._parents, node._backward
            if backward is not None:
                node._parents, node._backward = (), _freed
            if g is None:
                continue
            if node.requires_grad:
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad += g
            if backward is None:
                continue
            for parent, pg in zip(parents, backward(g)):
                if pg is None:
                    continue
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg


def _freed(g):
    """The backward rule of a node an earlier backward() has walked."""
    raise RuntimeError("graph already freed by an earlier backward()")


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _taped(parents: tuple[Tensor, ...]) -> bool:
    """Whether a node over parents goes on the tape."""
    return _GRAD_ENABLED and any(p.requires_grad or p._parents for p in parents)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _taped(parents):
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
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _node(out, (a, b), backward)


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


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for x (n, d_in), w (d_in, d_out) and b (d_out,), as one node."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    out = x.data @ w.data
    out += b.data

    def backward(g):
        return g @ w.data.T, x.data.T @ g, g.sum(axis=0)

    return _node(out, (x, w, b), backward)


def _relu_(x: np.ndarray) -> np.ndarray:
    """relu in place, with the values and sign bits of np.where(x > 0, x, 0.0)
    at a fraction of its cost: fmax maps NaN to 0.0, and adding 0.0 turns the
    -0.0 it may keep into 0.0."""
    np.fmax(x, 0.0, out=x)
    x += 0.0
    return x


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """relu(x @ w1 + b1) @ w2 + b2 for x (n, d), as one node.

    The backward keeps the hidden activations; their positive entries are
    the ReLU mask.
    """
    x, w1, b1, w2, b2 = (as_tensor(t) for t in (x, w1, b1, w2, b2))
    h = x.data @ w1.data
    h += b1.data
    _relu_(h)
    out = h @ w2.data
    out += b2.data

    def backward(g):
        gh = g @ w2.data.T
        gh *= h > 0
        return gh @ w1.data.T, x.data.T @ gh, gh.sum(axis=0), h.T @ g, g.sum(axis=0)

    return _node(out, (x, w1, b1, w2, b2), backward)


def project_heads(y: Tensor, w: Tensor, heads: int) -> Tensor:
    """y @ w split into heads: (m, d) -> (heads, m, d / heads), as one node.

    The result is a view of the (m, d) product, laid out as the composed
    matmul, reshape and swapaxes leave it.
    """
    y, w = as_tensor(y), as_tensor(w)
    m, d = y.data.shape[0], w.data.shape[1]
    out = np.swapaxes((y.data @ w.data).reshape(m, heads, d // heads), 0, 1)

    def backward(g):
        g2 = np.swapaxes(g, 0, 1).reshape(m, d)
        return g2 @ w.data.T, y.data.T @ g2

    return _node(out, (y, w), backward)


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


def attention(x: Tensor, k: Tensor, v: Tensor, wq: Tensor, wo: Tensor, mask=None) -> Tensor:
    """Multi-head attention of the rows of x over the keys k and values v.

    x is (n, d); k and v are (heads, m, dh) with heads * dh = d.  Returns
    concat_h(softmax(Q_h K_h^T / sqrt(dh) + mask) V_h) wo with Q = x wq split
    into heads, as one tape node.  The forward does the arithmetic of the
    composed ops (matmul, reshape, swapaxes, mul, masked_softmax) in their
    order, so its result is bitwise theirs.  mask is (n, m) with entries 0
    or NEG_INF, or None; unlike masked_softmax it is not checked for fully
    masked rows, which the mask builders in layers rule out.  A (G, n/G, m/G)
    mask splits the rows and the keys into G groups of consecutive ones, and
    each group attends only to its own keys under its own mask: a
    block-diagonal mask whose off-diagonal blocks are never computed.  The
    backward keeps only Q, the attention weights and the merged context.
    """
    x, k, v, wq, wo = (as_tensor(t) for t in (x, k, v, wq, wo))
    heads, m, dh = k.data.shape
    n, d = x.data.shape
    g = 1 if mask is None or mask.ndim == 2 else mask.shape[0]
    # (heads, groups, rows or keys per group, dh)
    kg, vg = k.data.reshape(heads, g, m // g, dh), v.data.reshape(heads, g, m // g, dh)
    q = (x.data @ wq.data).reshape(g, n // g, heads, dh).transpose(2, 0, 1, 3)
    scale = 1.0 / math.sqrt(dh)
    # in place on fresh arrays: the same arithmetic, without the temporaries
    p = q @ np.swapaxes(kg, -1, -2)
    p *= scale
    if mask is not None:
        p += mask
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    merged = (p @ vg).transpose(1, 2, 0, 3).reshape(n, d)
    out = Tensor(merged @ wo.data)
    parents = (x, k, v, wq, wo)
    if not _taped(parents):
        return out

    def backward(grad):
        gctx = (grad @ wo.data.T).reshape(g, n // g, heads, dh).transpose(2, 0, 1, 3)
        gz = gctx @ np.swapaxes(vg, -1, -2)  # d/dp, then d/dscores in place
        gz -= np.einsum("...ij,...ij->...i", gz, p)[..., None]
        gz *= p
        gz *= scale
        gq = (gz @ kg).transpose(1, 2, 0, 3).reshape(n, d)
        return (
            gq @ wq.data.T,
            (np.swapaxes(gz, -1, -2) @ q).reshape(heads, m, dh),
            (np.swapaxes(p, -1, -2) @ gctx).reshape(heads, m, dh),
            x.data.T @ gq,
            merged.T @ grad,
        )

    out._parents = parents
    out._backward = backward
    return out


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift.

    The means are np.add.reduce sums divided by the count, which is what
    np.mean and np.var compute, without their per-call overhead.  For a
    single row (a decode pass) the statistics are Python floats, which do
    the same IEEE arithmetic in fewer NumPy calls.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.data.shape[-1]
    if x.data.shape[:-1] == (1,):
        xhat = x.data - float(np.add.reduce(x.data[0])) / d
        inv = 1.0 / math.sqrt(float(np.add.reduce((xhat * xhat)[0])) / d + eps)
    else:
        mu = np.add.reduce(x.data, axis=-1, keepdims=True)
        mu /= d
        xhat = x.data - mu
        var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True)
        var /= d
        var += eps
        inv = 1.0 / np.sqrt(var, out=var)
    xhat *= inv
    out = gamma.data * xhat
    out += beta.data

    def backward(g):
        gxhat = g * gamma.data
        m1 = np.add.reduce(gxhat, axis=-1, keepdims=True)
        m1 /= d
        m2 = np.add.reduce(gxhat * xhat, axis=-1, keepdims=True)
        m2 /= d
        gx = gxhat - m1
        gx -= xhat * m2
        gx *= inv
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
    """relu(2D convolution) over (H, W, Cin) with kernel (k, k, Cin, Cout).

    The encoder applies a ReLU after every convolution, so the op includes
    it.  im2col gathers every window in one copy, from a strided view of the
    zero-padded input.  The input gradient is skipped when x has no gradient
    path (an image).
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    k = w.data.shape[0]
    h, wdt, cin = x.data.shape
    xp = np.zeros((h + 2 * pad, wdt + 2 * pad, cin))
    xp[pad : pad + h, pad : pad + wdt] = x.data
    ho, wo = (h + 2 * pad - k) // stride + 1, (wdt + 2 * pad - k) // stride + 1
    # (ho, wo, k, k, cin) windows -> rows of (k, k, cin) patches
    s0, s1, s2 = xp.strides
    windows = as_strided(xp, (ho, wo, k, k, cin), (stride * s0, stride * s1, s0, s1, s2))
    cols2 = windows.reshape(ho * wo, k * k * cin)
    wm = w.data.reshape(k * k * cin, -1)
    out = cols2 @ wm
    out += b.data
    _relu_(out)
    x_grad, padded = _taped((x,)), xp.shape

    def backward(g):
        g2 = g.reshape(ho * wo, -1) * (out > 0)
        gw = (cols2.T @ g2).reshape(w.data.shape)
        gb = g2.sum(axis=0)
        if not x_grad:
            return None, gw, gb
        gcols = (g2 @ wm.T).reshape(ho, wo, k, k, cin)
        gxp = np.zeros(padded)
        for di in range(k):
            for dj in range(k):
                gxp[di : di + stride * ho : stride, dj : dj + stride * wo : stride, :] += gcols[
                    :, :, di, dj, :
                ]
        return gxp[pad : pad + h, pad : pad + wdt, :], gw, gb

    return _node(out.reshape(ho, wo, -1), (x, w, b), backward)
