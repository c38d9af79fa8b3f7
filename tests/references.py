"""Reference implementations that tests compare the program against.

Import as ``from references import ...``; pytest puts this directory on the
import path.  relu and swapaxes are autodiff primitives, one tape node each,
from which conftest's composed_ops rebuild the fused layer ops.
mutual_loss is the probability-space form of the bidirectional structure
loss that training computes from logits.  generate is synth.generate with its
earlier character draw (rng.choice over a NumPy array) and glyph scaling
(np.kron), which the corpora of this repository were first generated with.
AdamW steps with a new array for each intermediate and each weight update.
backward_keeping_graph is Tensor.backward's walk without the freeing: the
same visit order and sums, every node left as it was.
"""

from __future__ import annotations

from dataclasses import dataclass
from unittest import mock

import numpy as np

from tabmark import autodiff as ad
from tabmark import synth, training
from tabmark.autodiff import Tensor
from tabmark.training import LossReport, LossWeights, realign


def relu(x: Tensor) -> Tensor:
    x = ad.as_tensor(x)
    keep = x.data > 0
    return ad._node(np.where(keep, x.data, 0.0), (x,), lambda g: (g * keep,))


def swapaxes(x: Tensor, a: int, b: int) -> Tensor:
    x = ad.as_tensor(x)
    return ad._node(np.swapaxes(x.data, a, b), (x,), lambda g: (np.swapaxes(g, a, b),))


def backward_keeping_graph(root: Tensor, seed=None) -> None:
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack = [(root, False)]
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
    grads = {id(root): np.ones_like(root.data) if seed is None else np.asarray(seed)}
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


@dataclass
class DistributionSeq:
    """Per-position predicted probabilities paired with ground-truth ids."""

    probs: np.ndarray  # (L, V), rows sum to 1
    targets: np.ndarray  # (L,) ints

    def __post_init__(self) -> None:
        self.probs = np.asarray(self.probs, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.int64)
        if self.probs.ndim != 2 or self.targets.shape != (self.probs.shape[0],):
            raise ValueError("need (L, V) probabilities and L targets")
        if not np.allclose(self.probs.sum(axis=-1), 1.0, atol=1e-6):
            raise ValueError("probability rows must sum to 1")
        if np.any((self.targets < 0) | (self.targets >= self.probs.shape[1])):
            raise ValueError("target id outside the vocabulary")

    def __len__(self) -> int:
        return self.probs.shape[0]


def _kl_rows(ref: np.ndarray, q: np.ndarray) -> float:
    """Mean over positions of KL(ref || q); 0 * log 0 = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(ref > 0.0, ref * (np.log(ref) - np.log(q)), 0.0)
    return float(terms.sum(axis=-1).mean())


def mutual_loss(
    q_ltor: DistributionSeq, q_rtol: DistributionSeq, weights: LossWeights | None = None
) -> LossReport:
    """Probability-space reference for the bidirectional structure loss."""
    w = weights or LossWeights()
    if len(q_ltor) != len(q_rtol):
        raise ValueError("the two students must decode the same sample")
    n = np.arange(len(q_ltor))
    ce_lt = float(-np.log(q_ltor.probs[n, q_ltor.targets]).mean())
    ce_rt = float(-np.log(q_rtol.probs[n, q_rtol.targets]).mean())
    kl_lt = _kl_rows(realign(q_rtol.probs), q_ltor.probs)
    kl_rt = _kl_rows(realign(q_ltor.probs), q_rtol.probs)
    total = w.struct_ce * (ce_lt + ce_rt) + w.kl * (kl_lt + kl_rt)
    return LossReport(ce_lt, ce_rt, kl_lt, kl_rt, 0.0, 0.0, total)


class AdamW(training.AdamW):
    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m, v = self._m[name], self._v[name]
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            if self.lr == 0.0:
                continue
            p.data = p.data - self.lr * self.wd * p.data
            p.data = p.data - self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


_CHARS = np.array(list("abcdefghijklmnopqrstuvwxyz0123456789.,-%"))


def _sample_content(length: int, spec: synth.GenSpec, rng: np.random.Generator) -> str:
    out: list[str] = []
    for i in range(length):
        can_space = 0 < i < length - 1 and out[-1] != " "
        if can_space and rng.random() < spec.space_prob:
            out.append(" ")
        else:
            out.append(str(rng.choice(_CHARS)))
    return "".join(out)


def _render_text(canvas: np.ndarray, rect, text: str, scale: int):
    pad = 1 + scale
    per_line, max_lines = synth._cell_capacity(rect, scale)
    if per_line == 0 or max_lines == 0:
        return None
    x0, y0 = rect[0] + pad, rect[1] + pad
    extent = None
    for li in range(min(max_lines, (len(text) + per_line - 1) // per_line)):
        line = text[li * per_line : (li + 1) * per_line]
        y = y0 + li * synth.LINE_STEP * scale
        for ci, ch in enumerate(line):
            if ch == " " or ch not in synth.GLYPHS:
                continue
            x = x0 + ci * synth.ADVANCE * scale
            bitmap = np.kron(synth.GLYPHS[ch], np.ones((scale, scale), dtype=bool))
            gh, gw = bitmap.shape
            canvas[y : y + gh, x : x + gw][bitmap] = synth.INK
            if extent is None:
                extent = [x, y, x + gw, y + gh]
            else:
                extent[0] = min(extent[0], x)
                extent[1] = min(extent[1], y)
                extent[2] = max(extent[2], x + gw)
                extent[3] = max(extent[3], y + gh)
    return extent


def generate(spec: synth.GenSpec, seed) -> synth.TableRecord:
    """synth.generate with the reference character draw and glyph scaling."""
    with mock.patch.object(synth, "_sample_content", _sample_content), mock.patch.object(
        synth, "_render_text", _render_text
    ):
        return synth.generate(spec, seed)
