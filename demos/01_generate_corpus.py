"""Render a small synthetic corpus and poke at one record.

Every record pairs a grayscale table image with its ground truth: the HTML
structure token sequence, the per-cell text, and normalized cell boxes.
Generation is pure in the seed, so the same call always yields the same
bytes on disk.
"""

import os
import tempfile

import numpy as np

from tabmark import synth
from tabmark import vocab as V


def main() -> None:
    spec = synth.PRESETS["wide"]
    print("wide preset:", spec)

    rec = synth.generate(spec, seed=7)
    print(f"\nseed 7 -> {rec.n_cells()} cells, complex={rec.is_complex}")
    print("html:", rec.html())
    print("cells:", list(rec.cells))
    print("boxes (cx, cy, w, h):")
    for box in rec.boxes:
        print("   ", np.round(box, 3))

    # The image is 8-bit gray codes, one byte per pixel, as the PGM files hold
    # them, so file round-trips are exact.  Ink (0) is dark on paper white
    # (255); synth.prepare_image turns codes into the model's [0, 1] floats.
    img = rec.image
    print(f"\nimage {img.shape} {img.dtype}, ink fraction {float((img < 128).mean()):.3f}")

    with tempfile.TemporaryDirectory() as tmp:
        corpus_dir = os.path.join(tmp, "corpus")
        ids = synth.emit_corpus(8, spec, corpus_dir, master_seed=0)
        print(f"\nwrote {len(ids)} records to {corpus_dir}:")
        for name in sorted(os.listdir(corpus_dir))[:6]:
            print("   ", name)
        loaded = synth.load_corpus(corpus_dir)
        rid, first = loaded[0]
        print(f"reloaded {len(loaded)} records; {rid} round-trips image bytes:",
              bool(np.array_equal(first.image, synth.generate(spec, seed=first.seed).image)))


if __name__ == "__main__":
    main()
