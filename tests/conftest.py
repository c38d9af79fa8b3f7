"""Session fixtures shared across test modules.

The overfit toy model takes a few minutes of CPU training, so it is built
once per session and reused by every test that needs a trained decoder.

The composed_ops fixture holds the reference versions of autodiff's fused
layer ops, built from primitives one tape node each.
"""

import time

import numpy as np
import pytest

from references import relu, swapaxes
from tabmark import autodiff as ad
from tabmark import synth
from tabmark.model import ModelConfig, TableModel
from tabmark.training import TrainConfig, train

# Smallest configuration observed to memorize the 100-table wide corpus
# (structural similarity 1.0, total 0.99+) in a couple of CPU minutes.
TOY_MODEL = dict(
    image_side=128,
    d=48,
    heads=4,
    html_blocks=1,
    cell_blocks=1,
    refiner_blocks=1,
    ffn_mult=2,
    enc_channels=(8, 16, 32),
    seed=0,
)
TOY_TRAIN = dict(epochs=200, batch_size=8, seed=0)


@pytest.fixture(scope="session")
def wide_corpus():
    """100 wide-preset tables, seeds 0..99; the toy model's training set."""
    spec = synth.PRESETS["wide"]
    return [(f"t{i}", synth.generate(spec, seed=i)) for i in range(100)]


@pytest.fixture(scope="session")
def trained_toy(wide_corpus):
    """(model, train_seconds): toy decoder overfit on wide_corpus."""
    model = TableModel(ModelConfig(**TOY_MODEL))
    t0 = time.perf_counter()
    train(model, wide_corpus, TrainConfig(**TOY_TRAIN))
    return model, time.perf_counter() - t0


def _linear(x, w, b):
    return ad.add(ad.matmul(x, w), b)


def _feed_forward(x, w1, b1, w2, b2):
    return _linear(relu(_linear(x, w1, b1)), w2, b2)


def _project_heads(y, w, heads):
    m, d = y.shape[0], w.shape[1]
    return swapaxes(ad.reshape(ad.matmul(y, w), (m, heads, d // heads)), 0, 1)


def _layer_norm(x, gamma, beta, eps=1e-6):
    """layer_norm through np.mean and np.var."""
    x, gamma, beta = ad.as_tensor(x), ad.as_tensor(gamma), ad.as_tensor(beta)
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = gamma.data * xhat + beta.data

    def backward(g):
        gxhat = g * gamma.data
        gx = inv * (
            gxhat
            - gxhat.mean(axis=-1, keepdims=True)
            - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
        )
        axes = tuple(range(g.ndim - 1))
        return gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    return ad._node(out, (x, gamma, beta), backward)


def _conv2d(x, w, b, stride=2, pad=1):
    """relu of a convolution whose im2col copies one slice per kernel tap."""
    x, w, b = ad.as_tensor(x), ad.as_tensor(w), ad.as_tensor(b)
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
        gcols = (g2 @ wm.T).reshape(ho, wo, k, k, cin)
        gxp = np.zeros_like(xp)
        for di in range(k):
            for dj in range(k):
                gxp[di : di + stride * ho : stride, dj : dj + stride * wo : stride, :] += gcols[
                    :, :, di, dj, :
                ]
        h, wdt = x.data.shape[:2]
        return gxp[pad : pad + h, pad : pad + wdt, :], (cols2.T @ g2).reshape(w.shape), g2.sum(0)

    return relu(ad._node(out, (x, w, b), backward))


COMPOSED_OPS = {
    "linear": _linear,
    "feed_forward": _feed_forward,
    "project_heads": _project_heads,
    "layer_norm": _layer_norm,
    "conv2d": _conv2d,
}


@pytest.fixture
def composed_ops():
    """autodiff op name -> its composed reference, with the fused op's signature.

    The fused op must match its reference: the forward bitwise, gradients
    within 1e-12 relative.  Setting each onto autodiff builds a model on the
    references.
    """
    return dict(COMPOSED_OPS)
