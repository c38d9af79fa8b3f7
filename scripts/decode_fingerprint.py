"""Print one fingerprint line per decode of fixed tables, so that two trees
can be shown to decode byte-identically.

    python3 scripts/decode_fingerprint.py [--tables N] [key=value ...]

The tables are N wide and N dense ones, synth.generate(preset, (7, i)) for
i < N (default 20).  The model is the untrained TableModel of the ModelConfig
read from the key=value arguments (ModelConfig.from_text; the default config
when none are given).  Each table is recognised under both schedules, the
structure scripted through perfbench's ScriptedStructure and the cells
through bench.make_scripted_step with the true transcripts, so every decode
runs the real forward passes at the table's true lengths.

Each line is a JSON object: the preset, the table index, the schedule,
recognize(...).as_dict(timings=False) and one SHA-256 over the table's
prepared image, synth.prepare_image(image, side), then every array the real
html_step and cell_step returned, in call order, taken before a stand-in
overwrites it.  Each array adds its shape, dtype and bytes, so a mismatch in
the image path shows apart from the decode steps after it.  The script
decodes the tree it sits in (its src/ and perfbench/); run a copy of it in
another checkout and diff the outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.scripted import ScriptedStructure  # noqa: E402
from perfbench.workloads import content_scripts  # noqa: E402
from tabmark import bench, synth  # noqa: E402
from tabmark.decoding import recognize  # noqa: E402
from tabmark.model import ModelConfig, TableModel  # noqa: E402


def fingerprints(model: TableModel, tables: int):
    """Yield one line per (table, schedule), wide tables first."""
    structure = ScriptedStructure(model)
    real_html, real_cell = structure.real, model.cell_step
    digest = hashlib.sha256()

    def record(*arrays):
        for a in arrays:
            digest.update(repr((a.shape, a.dtype.str)).encode())
            digest.update(a.tobytes())

    def html_step(*args):
        logits, hidden = real_html(*args)
        record(logits.data, hidden.data)
        return logits, hidden

    def cell_step(*args):
        logits = real_cell(*args)
        record(logits.data)
        return logits

    structure.real, model.cell_step = html_step, cell_step
    try:
        for preset in ("wide", "dense"):
            for i in range(tables):
                rec = synth.generate(synth.PRESETS[preset], (7, i))
                for parallel in (True, False):
                    digest = hashlib.sha256()
                    record(synth.prepare_image(rec.image, model.cfg.image_side))
                    structure.script(rec.structure_ids)
                    step = bench.make_scripted_step(model, content_scripts(rec))
                    res = recognize(model, rec.image, parallel=parallel, cell_step_fn=step)
                    line = {"preset": preset, "table": i, "parallel": parallel,
                            "result": res.as_dict(timings=False), "sha256": digest.hexdigest()}
                    yield json.dumps(line, sort_keys=True)
    finally:
        structure.remove()
        del model.cell_step


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tables", type=int, default=20, help="tables per preset")
    ap.add_argument("config", nargs="*", help="ModelConfig fields as key=value")
    args = ap.parse_args(argv)
    model = TableModel(ModelConfig.from_text("\n".join(args.config)))
    for line in fingerprints(model, args.tables):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
