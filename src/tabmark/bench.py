"""The decoding benchmark: wall time and pass counts, parallel vs sequential.

Timing methodology: monotonic clock, single worker, one warm-up image
excluded from the statistics, at least 20 measured samples.  Every sample is
decoded both ways; the harness fails loudly if the two decoders ever disagree
on any cell or if an instrumented pass counter violates its law, so a
benchmark run doubles as an equivalence check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import vocab as V
from .decoding import RecognizeResult, recognize
from .model import TableModel


class BenchMismatch(RuntimeError):
    """Parallel/sequential disagreement or a broken pass-count law."""


def make_scripted_step(model: TableModel | None, scripts: list[list[int]]):
    """A cell_step stand-in that deterministically emits the given scripts.

    For every row of a pass (the new rows, as cell_step takes them) the
    returned logits argmax to the next token of the cell that row predicts
    (its conditioning cell), or SEP once the script is exhausted, so both
    schedules follow the scripts exactly.  SOS and SEP rows, known by their
    token, predict a first token.  When a model is given, the real
    cell_step still runs on the same rows and its output is discarded: wall
    time stays honest while lengths are controlled.  A decoded structure with
    more cells than there are scripts raises ValueError; scripts past its
    cell count are not used.
    """
    width = len(V.CONTENT)
    # table[c, j]: the token after the j-th token of cell c; SEP once past its end
    longest = max((len(s) for s in scripts), default=0)
    table = np.full((len(scripts), longest + 1), V.SEP_ID, dtype=np.int64)
    for c, script in enumerate(scripts):
        table[c, : len(script)] = script

    def step(buffer, layout, cond, img_feats):
        if model is not None:
            model.cell_step(buffer, layout, cond, img_feats)
        n, n_cells = len(buffer), cond.shape[0]
        if n_cells > len(scripts):
            raise ValueError(
                f"the structure has {n_cells} cells but there are {len(scripts)} scripts"
            )
        ids, cell = np.asarray(buffer), layout.cond_cells(n_cells)
        boundary = (ids == V.CONTENT.sos) | (ids == V.SEP_ID)
        nxt = np.where(boundary, 0, np.minimum(layout.pos + 1, longest))
        live = cell < n_cells
        tokens = np.full(n, V.CONTENT.eos, dtype=np.int64)
        tokens[live] = table[cell[live], nxt[live]]
        logits = np.zeros((n, width))
        logits[np.arange(n), tokens] = 1.0
        return logits

    return step


def verify_sample(par: RecognizeResult, seq: RecognizeResult, label: str = "") -> None:
    """Equivalence and pass-law assertions for one benchmark sample."""
    if par.truncated["cell"] or seq.truncated["cell"]:
        return  # capacity cutoffs differ between schedules; nothing to compare
    tokens_par = [ts.ids for ts in par.cell_seqs]
    tokens_seq = [ts.ids for ts in seq.cell_seqs]
    if tokens_par != tokens_seq or par.html != seq.html:
        raise BenchMismatch(f"sample {label}: parallel and sequential outputs differ")
    lengths = [len(t) for t in tokens_par]
    want_par = max(lengths) + 1 if lengths else 0
    want_seq = sum(n + 1 for n in lengths)
    if par.passes["cell"] != want_par:
        raise BenchMismatch(
            f"sample {label}: parallel passes {par.passes['cell']}, law says {want_par}"
        )
    if seq.passes["cell"] != want_seq:
        raise BenchMismatch(
            f"sample {label}: sequential passes {seq.passes['cell']}, law says {want_seq}"
        )


@dataclass
class BenchReport:
    samples: int
    # per mode: cumulative stage means (seconds) and mean pass counts
    modes: dict[str, dict[str, float]]

    @property
    def pass_ratio(self):
        """None when no cells were decoded at all; the ratio is undefined."""
        par = self.modes["parallel"]["cell_passes"]
        return self.modes["sequential"]["cell_passes"] / par if par else None

    @property
    def cell_stage_speedup(self):
        par = self.modes["parallel"]["cell_stage"]
        return self.modes["sequential"]["cell_stage"] / par if par else None

    def as_dict(self, timings: bool = True) -> dict:
        time_keys = ("html", "bbox", "cell", "cell_stage")
        modes = {
            mode: {k: v for k, v in row.items() if timings or k not in time_keys}
            for mode, row in self.modes.items()
        }
        out = {"samples": self.samples, "modes": modes, "pass_ratio": self.pass_ratio}
        if timings:
            out["cell_stage_speedup"] = self.cell_stage_speedup
        return out

    def to_text(self) -> str:
        lines = [
            f"benchmark over {self.samples} samples (cumulative stage seconds)",
            f"{'mode':<12}{'HTML':>9}{'+Bbox':>9}{'+Cell':>9}{'struct passes':>15}{'cell passes':>13}",
        ]
        for mode in ("parallel", "sequential"):
            r = self.modes[mode]
            lines.append(
                f"{mode:<12}{r['html']:>9.4f}{r['bbox']:>9.4f}{r['cell']:>9.4f}"
                f"{r['structure_passes']:>15.1f}{r['cell_passes']:>13.1f}"
            )
        def ratio(x, suffix=""):
            return "n/a" if x is None else f"{x:.2f}{suffix}"

        lines.append(
            f"pass ratio (seq/par): {ratio(self.pass_ratio)}   "
            f"cell-stage speedup: {ratio(self.cell_stage_speedup, 'x')}"
        )
        return "\n".join(lines)


def run_bench(model: TableModel, images, min_samples: int = 20, step_fns=None) -> BenchReport:
    """Decode every image both ways; verify each sample; report means.

    images: array-likes; step_fns: optional per-image cell_step overrides
    (see make_scripted_step).  The first image also serves as an untimed
    warm-up.  Raises BenchMismatch on any equivalence or pass-law violation.
    """
    images = list(images)
    if len(images) < min_samples:
        raise ValueError(f"benchmark needs at least {min_samples} samples, got {len(images)}")
    if step_fns is not None and len(step_fns) != len(images):
        raise ValueError("one step override per image")

    def run(i: int, parallel: bool) -> RecognizeResult:
        fn = step_fns[i] if step_fns is not None else None
        return recognize(model, images[i], parallel=parallel, cell_step_fn=fn)

    run(0, True)
    run(0, False)  # warm-up, excluded

    acc = {
        mode: dict.fromkeys(
            ("html", "bbox", "cell", "cell_stage", "structure_passes", "cell_passes"), 0.0
        )
        for mode in ("parallel", "sequential")
    }
    for i in range(len(images)):
        par = run(i, True)
        seq = run(i, False)
        verify_sample(par, seq, label=str(i))
        for mode, res in (("parallel", par), ("sequential", seq)):
            row = acc[mode]
            row["html"] += res.timings["html"]
            row["bbox"] += res.timings["bbox"]
            row["cell"] += res.timings["cell"]
            row["cell_stage"] += res.timings["cell"] - res.timings["bbox"]
            row["structure_passes"] += res.passes["structure"]
            row["cell_passes"] += res.passes["cell"]
    n = len(images)
    for row in acc.values():
        for k in row:
            row[k] /= n
    return BenchReport(samples=n, modes=acc)
