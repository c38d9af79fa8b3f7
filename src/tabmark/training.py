"""Losses, the optimizer, the staged training loop, and gradient checking.

The structure decoder trains as two weight-shared students (left-to-right and
right-to-left).  Each student minimizes cross-entropy plus a KL divergence
pulling it toward the other student's realigned output distribution; the
reference side of the KL is held constant (no gradient flows into the other
student through the KL term).

Both students run as one structure-decoder pass: their inputs, [SOS] + body
and [SOS] + reversed body, are stacked into 2n rows for html_step's "both"
direction.  A block-diagonal causal window mask keeps the students apart, so
every row is what a single-direction pass gives it; self-attention computes
only the diagonal blocks, and each cross-attention block projects the image
memory's keys and values once for both.  The logits are split back per
student before the losses.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import checkpoint
from . import synth
from . import vocab as V
from .autodiff import Tensor
from .model import TableModel, content_buffer, read_fields


def softmax(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    p = np.exp(z - z.max(axis=-1, keepdims=True))
    return p / p.sum(axis=-1, keepdims=True)


def realign(rows: np.ndarray) -> np.ndarray:
    """Map one student's per-position rows onto the other's positions.

    Both students end with EOS, so the EOS slot stays put and the token
    slots reverse.  The map is its own inverse.
    """
    rows = np.asarray(rows)
    if rows.shape[0] == 0:
        return rows
    return np.concatenate([rows[-2::-1], rows[-1:]], axis=0)


@dataclass(frozen=True)
class LossWeights:
    struct_ce: float = 1.0
    kl: float = 1.0
    content_ce: float = 1.0
    bbox: float = 1.0


@dataclass(frozen=True)
class LossReport:
    """Per-sample (or per-epoch mean) loss components; all nonnegative."""

    struct_ce_ltor: float
    struct_ce_rtol: float
    kl_ltor: float
    kl_rtol: float
    content_ce: float
    bbox: float
    total: float

    def __post_init__(self) -> None:
        for name in REPORT_FIELDS[:-1]:
            v = getattr(self, name)
            if math.isfinite(v) and v < -1e-9:
                raise ValueError(f"negative loss component {name}={v}")

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


REPORT_FIELDS = tuple(f.name for f in fields(LossReport))  # "total" last


def structure_mutual_loss(model: TableModel, body_ids, img_feats, kl_refs=None):
    """Teacher-forced bidirectional structure loss, differentiable.

    Returns (parts, hidden, kl_refs): parts maps component name to a scalar
    Tensor; hidden is the LtoR student's per-token state aligned with
    body_ids (the SOS row dropped); kl_refs are the constant reference
    distributions actually used, so a caller can re-evaluate the identical
    objective (finite differences pin them).
    """
    body = list(body_ids)
    sv = V.STRUCTURE
    n = len(body) + 1
    tgt_lt = body + [sv.eos]
    rev = body[::-1]
    tgt_rt = rev + [sv.eos]

    logits, hidden = model.html_step([sv.sos] + body + [sv.sos] + rev, "both", img_feats)
    logits_lt = ad.take_rows(logits, np.arange(n))
    logits_rt = ad.take_rows(logits, np.arange(n, 2 * n))

    if kl_refs is None:
        kl_refs = (realign(softmax(logits_rt.data)), realign(softmax(logits_lt.data)))
    ref_lt, ref_rt = kl_refs

    parts = {
        "struct_ce_ltor": ad.cross_entropy(logits_lt, tgt_lt),
        "struct_ce_rtol": ad.cross_entropy(logits_rt, tgt_rt),
        "kl_ltor": ad.kl_to_const(ref_lt, logits_lt),
        "kl_rtol": ad.kl_to_const(ref_rt, logits_rt),
    }
    token_hidden = ad.take_rows(hidden, np.arange(1, n))
    return parts, token_hidden, kl_refs


def bbox_loss(pred, truth) -> Tensor:
    """Mean absolute error over all 4n box components; 0 for empty tables."""
    truth = np.asarray(truth, dtype=np.float64).reshape(-1, 4)
    if tuple(pred.shape) != truth.shape:
        raise ValueError(f"box shape mismatch: {pred.shape} vs {truth.shape}")
    if truth.shape[0] == 0:
        return Tensor(np.asarray(0.0))
    return ad.mean(ad.absolute(ad.add(pred, Tensor(-truth))))


@dataclass
class SampleLoss:
    total: Tensor
    report: LossReport
    kl_refs: tuple[np.ndarray, np.ndarray]


def sample_loss(
    model: TableModel,
    record: synth.TableRecord,
    weights: LossWeights | None = None,
    kl_refs=None,
) -> SampleLoss:
    """Teacher-forced total loss of one record through every stage.

    The LtoR student's hidden states feed the fetcher, refiner, bbox head and
    cell decoder (inference decodes structure left-to-right).  The bbox
    variant conditions cells on its own predicted boxes, matching inference.
    """
    w = weights or LossWeights()
    cfg = model.cfg
    img = synth.prepare_image(record.image, cfg.image_side)
    feats = model.encode_image(img)

    body = list(record.structure_ids)
    parts, token_hidden, kl_refs = structure_mutual_loss(model, body, feats, kl_refs)

    refined = model.refine(model.fetch_cells(body, token_hidden))
    boxes_pred = model.bbox_head(refined)
    parts["bbox"] = bbox_loss(boxes_pred, record.boxes)

    buf, layout = content_buffer([list(V.tokenize_content(c).ids) for c in record.cells])
    cond = model.cell_conditioning(refined, boxes_pred)
    logits = model.cell_step(buf, layout, cond, feats)
    parts["content_ce"] = ad.cross_entropy(logits, buf[1:] + [V.CONTENT.eos])

    total = ad.add(
        ad.add(
            ad.mul(ad.add(parts["struct_ce_ltor"], parts["struct_ce_rtol"]), w.struct_ce),
            ad.mul(ad.add(parts["kl_ltor"], parts["kl_rtol"]), w.kl),
        ),
        ad.add(ad.mul(parts["content_ce"], w.content_ce), ad.mul(parts["bbox"], w.bbox)),
    )
    report = LossReport(
        **{k: float(parts[k].data) for k in REPORT_FIELDS[:-1]}, total=float(total.data)
    )
    return SampleLoss(total, report, kl_refs)


class AdamW:
    """Adaptive moments with decoupled weight decay.

    A zero learning rate still advances the moment state but leaves every
    weight bitwise untouched.  Parameters without a gradient are skipped.
    Moments and weights are updated in place, in the operation order of
    w - lr*wd*w - lr*(m/c1)/(sqrt(v/c2) + eps), so each parameter's step
    allocates two scratch arrays.
    """

    def __init__(self, params, lr: float, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.01):
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.wd = weight_decay
        self.t = 0
        self._m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m, v, w = self._m[name], self._v[name], p.data
            t = (1.0 - self.b1) * g  # scratch, reused for each later term
            m *= self.b1
            m += t
            np.multiply(g, 1.0 - self.b2, out=t)
            t *= g
            v *= self.b2
            v += t
            if self.lr == 0.0:
                continue
            np.multiply(w, self.lr * self.wd, out=t)
            w -= t
            np.divide(m, c1, out=t)
            t *= self.lr
            s = np.divide(v, c2)
            np.sqrt(s, out=s)
            s += self.eps
            t /= s
            w -= t


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 8
    lrs: tuple[float, float, float] = (1e-3, 1e-4, 1e-5)
    stage_proportions: tuple[int, int, int] = (25, 3, 2)
    weight_decay: float = 0.01
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)

    def validate(self) -> None:
        """Raise ValueError, naming the key and its value, for a config that
        would crash the loop or train silently on nothing."""
        lrs, props = self.lrs, self.stage_proportions
        checks = (
            ("epochs", self.epochs >= 1, "an integer >= 1"),
            ("batch_size", self.batch_size >= 1, "an integer >= 1"),
            ("lrs", lrs and all(math.isfinite(x) and x >= 0 for x in lrs),
             "one or more finite learning rates >= 0"),
            ("stage_proportions", len(props) == len(lrs) and min(props, default=0) >= 0
             and sum(props) > 0, "integers >= 0 with a positive sum, one per learning rate"),
            ("weight_decay", math.isfinite(self.weight_decay) and self.weight_decay >= 0,
             "a finite number >= 0"),
            ("seed", self.seed >= 0, "an integer >= 0"),
            ("weights", all(math.isfinite(w) and w >= 0 for w in astuple(self.weights)),
             "finite loss weights >= 0"),
        )
        for key, ok, need in checks:
            if not ok:
                raise ValueError(f"train config key {key} needs {need}, got {getattr(self, key)!r}")

    @classmethod
    def from_fields(cls, raw) -> "TrainConfig":
        """A validated config from JSON values (model.read_fields)."""
        cfg = cls(**read_fields(cls, raw, "train config"))
        cfg.validate()
        return cfg


def lr_schedule(epochs: int, lrs=(1e-3, 1e-4, 1e-5), proportions=(25, 3, 2)) -> list[float]:
    """Per-epoch learning rate; stage lengths proportional to `proportions`.

    With the defaults and 30 epochs the stages are exactly 25, 3 and 2 epochs.
    """
    if epochs < 1:
        raise ValueError("need at least one epoch")
    if len(lrs) != len(proportions):
        raise ValueError("one learning rate per stage")
    cum = np.cumsum(proportions, dtype=np.float64)
    out = []
    for e in range(epochs):
        stage = int(np.searchsorted(cum * epochs / cum[-1], e, side="right"))
        out.append(float(lrs[min(stage, len(lrs) - 1)]))
    return out


class TrainingDiverged(RuntimeError):
    pass


def train(
    model: TableModel,
    corpus,
    tcfg: TrainConfig | None = None,
    out_dir: str | None = None,
) -> list[dict]:
    """Run the staged loop over the corpus; returns per-epoch metric rows.

    corpus: TableRecords, or (id, record) pairs as load_corpus yields them.
    With out_dir set, writes metrics.jsonl (one row per epoch, no timing
    fields) and model.ckpt there.
    """
    tcfg = tcfg or TrainConfig()
    tcfg.validate()
    records = [r[1] if isinstance(r, tuple) else r for r in corpus]
    if not records:
        raise ValueError("empty corpus")
    rng = np.random.default_rng(tcfg.seed)
    opt = AdamW(model.params, lr=tcfg.lrs[0], weight_decay=tcfg.weight_decay)
    metrics: list[dict] = []
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    log_fh = open(os.path.join(out_dir, "metrics.jsonl"), "w") if out_dir else None
    try:
        for epoch, lr in enumerate(lr_schedule(tcfg.epochs, tcfg.lrs, tcfg.stage_proportions)):
            opt.lr = lr
            order = rng.permutation(len(records))
            sums = dict.fromkeys(REPORT_FIELDS, 0.0)
            for start in range(0, len(order), tcfg.batch_size):
                batch = order[start : start + tcfg.batch_size]
                model.params.zero_grad()
                for idx in batch:
                    out = sample_loss(model, records[idx], tcfg.weights)
                    if not math.isfinite(out.report.total):
                        raise TrainingDiverged(
                            f"non-finite loss at epoch {epoch}, sample {idx}: {out.report}"
                        )
                    ad.mul(out.total, 1.0 / len(batch)).backward()
                    for k in REPORT_FIELDS:
                        sums[k] += getattr(out.report, k)
                opt.step()
            row = {"epoch": epoch, "lr": lr}
            row.update({k: sums[k] / len(records) for k in REPORT_FIELDS})
            metrics.append(row)
            if log_fh:
                log_fh.write(json.dumps(row, sort_keys=True) + "\n")
                log_fh.flush()
    finally:
        if log_fh:
            log_fh.close()
    if out_dir:
        checkpoint.save(os.path.join(out_dir, "model.ckpt"), model)
    return metrics


def gradcheck(model: TableModel, record: synth.TableRecord, weights=None, step: float = 1e-5):
    """Max relative error between analytic and central-difference gradients.

    The KL references are pinned at the starting point so both sides
    differentiate the identical objective.  Checks every element of every
    parameter tensor; meant for tiny configs.
    """
    w = weights or LossWeights()
    with ad.no_grad():
        refs = sample_loss(model, record, w).kl_refs
    model.params.zero_grad()
    sample_loss(model, record, w, kl_refs=refs).total.backward()
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in model.params.items()
    }
    model.params.zero_grad()

    def evaluate() -> float:
        with ad.no_grad():
            return float(sample_loss(model, record, w, kl_refs=refs).total.data)

    worst = 0.0
    for name, p in model.params.items():
        flat = p.data.reshape(-1)
        grad = analytic[name].reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = evaluate()
            flat[i] = keep - step
            down = evaluate()
            flat[i] = keep
            fd = (up - down) / (2.0 * step)
            worst = max(worst, abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-3))
    return worst
