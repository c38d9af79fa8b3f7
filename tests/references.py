"""Reference implementations that tests compare the program against.

Import as ``from references import ...``; pytest puts this directory on the
import path.  relu and swapaxes are autodiff primitives, one tape node each,
from which conftest's composed_ops rebuild the fused layer ops.
mutual_loss is the probability-space form of the bidirectional structure
loss that training computes from logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tabmark import autodiff as ad
from tabmark.autodiff import Tensor
from tabmark.training import LossReport, LossWeights, realign


def relu(x: Tensor) -> Tensor:
    x = ad.as_tensor(x)
    keep = x.data > 0
    return ad._node(np.where(keep, x.data, 0.0), (x,), lambda g: (g * keep,))


def swapaxes(x: Tensor, a: int, b: int) -> Tensor:
    x = ad.as_tensor(x)
    return ad._node(np.swapaxes(x.data, a, b), (x,), lambda g: (np.swapaxes(g, a, b),))


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
