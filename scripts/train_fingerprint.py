"""Print one fingerprint line per training step on fixed tables, so that two
trees can be shown to train byte-identically.

    python3 scripts/train_fingerprint.py [--tables N] [--steps S]

The tables are N wide and N dense ones, synth.generate(preset, (7, i)) for
i < N (default 8).  The model is the untrained TableModel of the default
ModelConfig.  Step s is one training.train() call with TrainConfig(epochs=1)
over a minibatch of the default size, tables s*B .. s*B+B-1 taken cyclically
from the wide-then-dense list, as perfbench's train workload takes its pool;
S steps run one after another on the same model (default 4).

Each line is a JSON object: the step, the LossReport of every sample in the
order train() ran them, and one SHA-256 over every parameter after the step,
in registry order, each adding its name, shape, dtype and bytes.  The script
trains the tree it sits in (its src/); run a copy of it in another checkout
and diff the outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src")]

from tabmark import synth, training  # noqa: E402
from tabmark.model import ModelConfig, TableModel  # noqa: E402


def param_digest(model: TableModel) -> str:
    digest = hashlib.sha256()
    for name, p in model.params.items():
        digest.update(repr((name, p.data.shape, p.data.dtype.str)).encode())
        digest.update(p.data.tobytes())
    return digest.hexdigest()


def fingerprints(model: TableModel, tables: int, steps: int):
    """Yield one line per train() step."""
    records = [synth.generate(synth.PRESETS[preset], (7, i))
               for preset in ("wide", "dense") for i in range(tables)]
    tcfg = training.TrainConfig(epochs=1)
    n = tcfg.batch_size
    real = training.sample_loss
    reports: list[dict] = []

    def sample_loss(*args, **kwargs):
        out = real(*args, **kwargs)
        reports.append(out.report.as_dict())
        return out

    training.sample_loss = sample_loss
    try:
        for s in range(steps):
            reports.clear()
            batch = [records[(s * n + j) % len(records)] for j in range(n)]
            training.train(model, batch, tcfg)
            line = {"step": s, "reports": reports, "sha256": param_digest(model)}
            yield json.dumps(line, sort_keys=True)
    finally:
        training.sample_loss = real


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tables", type=int, default=8, help="tables per preset")
    ap.add_argument("--steps", type=int, default=4, help="train() minibatch steps")
    args = ap.parse_args(argv)
    if args.tables < 1:
        ap.error("--tables needs at least 1")
    model = TableModel(ModelConfig())
    for line in fingerprints(model, args.tables, args.steps):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
