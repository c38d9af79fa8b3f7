import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
import references

from tabmark import synth
from tabmark import vocab as V


class TestGlyphs:
    def test_alphabet_covered(self):
        for ch in V.ALPHABET:
            if ch != " ":
                assert ch in synth.GLYPHS, f"missing glyph for {ch!r}"

    def test_glyphs_distinct(self):
        seen = {}
        for ch, bitmap in synth.GLYPHS.items():
            key = bitmap.tobytes()
            assert key not in seen, f"{ch!r} duplicates {seen.get(key)!r}"
            seen[key] = ch

    def test_glyph_shape(self):
        for bitmap in synth.GLYPHS.values():
            assert bitmap.shape == (synth.GLYPH_H, synth.GLYPH_W)


class TestGenerate:
    def test_single_cell_table(self):
        spec = synth.GenSpec(rows=(1, 1), cols=(1, 1), content_len=(1, 1), merge_prob=0.0)
        rec = synth.generate(spec, 5)
        assert list(rec.structure_ids) == [
            V.STRUCTURE[V.TR_OPEN],
            V.STRUCTURE[V.TD_MERGED],
            V.STRUCTURE[V.TR_CLOSE],
        ]
        assert len(rec.cells) == 1 and len(rec.cells[0]) == 1
        assert rec.boxes.shape == (1, 4)
        assert rec.boxes[0, 2] > 0 and rec.boxes[0, 3] > 0

    def test_no_merges_is_simple(self):
        spec = synth.GenSpec(merge_prob=0.0)
        for seed in range(10):
            rec = synth.generate(spec, seed)
            assert not rec.is_complex

    def test_same_seed_bitwise_identical(self):
        spec = synth.PRESETS["dense"]
        a = synth.generate(spec, 123)
        b = synth.generate(spec, 123)
        assert np.array_equal(a.image, b.image)
        assert a.structure_ids == b.structure_ids
        assert a.cells == b.cells
        assert np.array_equal(a.boxes, b.boxes)

    def test_different_seeds_differ(self):
        spec = synth.PRESETS["wide"]
        a, b = synth.generate(spec, 1), synth.generate(spec, 2)
        assert not np.array_equal(a.image, b.image)

    def test_cell_count_matches_structure(self):
        for seed in range(20):
            rec = synth.generate(synth.PRESETS["dense"], seed)
            assert len(V.iter_cells(rec.structure_ids)) == len(rec.cells)
            assert rec.boxes.shape == (len(rec.cells), 4)

    def test_boxes_normalized(self):
        for seed in range(20):
            rec = synth.generate(synth.PRESETS["wide"], seed)
            assert np.all(rec.boxes >= 0.0) and np.all(rec.boxes <= 1.0)

    def test_structure_detokenizes_and_classify_agrees(self):
        from tabmark import teds

        for seed in range(30):
            rec = synth.generate(synth.PRESETS["dense"], seed)
            html = rec.html()
            tree = teds.html_to_tree(html, mode="total")
            assert (teds.classify(tree) == "complex") == rec.is_complex

    def test_ground_truth_boxes_match_rendered_ink(self):
        # re-measure glyph extents from the image; must agree within one
        # feature-grid pixel (8 image pixels) per side
        spec = synth.PRESETS["wide"]
        for seed in range(10):
            rec = synth.generate(spec, seed)
            side = spec.image_side
            ink = rec.image == synth.INK
            if not ink.any():
                continue
            ys, xs = np.where(ink)
            lo = np.array([xs.min(), ys.min()])
            hi = np.array([xs.max() + 1, ys.max() + 1])
            nonempty = rec.boxes[rec.boxes[:, 2] > 0]
            x0 = (nonempty[:, 0] - nonempty[:, 2] / 2) * side
            y0 = (nonempty[:, 1] - nonempty[:, 3] / 2) * side
            x1 = (nonempty[:, 0] + nonempty[:, 2] / 2) * side
            y1 = (nonempty[:, 1] + nonempty[:, 3] / 2) * side
            assert abs(x0.min() - lo[0]) <= 8 and abs(y0.min() - lo[1]) <= 8
            assert abs(x1.max() - hi[0]) <= 8 and abs(y1.max() - hi[1]) <= 8

    def test_dense_preset_shape_guarantees(self):
        lengths = []
        for seed in range(30):
            rec = synth.generate(synth.PRESETS["dense"], seed)
            assert len(rec.cells) >= 20
            lengths.extend(len(t) for t in rec.cells)
        assert np.mean(lengths) >= 8.0

    def test_content_length_statistics(self):
        # law-of-large-numbers check against the configured range
        spec = synth.PRESETS["wide"]
        lengths = []
        for seed in range(1000):
            lengths.extend(len(t) for t in synth.generate(spec, seed).cells)
        expected = (spec.content_len[0] + spec.content_len[1]) / 2
        assert abs(np.mean(lengths) - expected) / expected < 0.10

    def test_infeasible_merges_skipped_not_fatal(self):
        spec = synth.GenSpec(rows=(1, 1), cols=(2, 2), merge_prob=1.0, max_span=2)
        rec = synth.generate(spec, 0)  # rowspan merges cannot fit; must not hang
        assert len(rec.cells) >= 1


def assert_records_identical(got: synth.TableRecord, want: synth.TableRecord) -> None:
    for arr in ("image", "boxes"):
        a, b = getattr(got, arr), getattr(want, arr)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), arr
    for field in ("structure_ids", "cells", "is_complex", "seed"):
        assert getattr(got, field) == getattr(want, field), field


def random_spec(rng: np.random.Generator) -> synth.GenSpec:
    """A valid spec over the ranges the reference must agree on: glyph
    scales 1-3, contents from 0 characters, spaces never, sometimes or
    always, merges and margins."""
    rows = sorted(rng.integers(1, 7, size=2).tolist())
    cols = sorted(rng.integers(1, 7, size=2).tolist())
    lo = int(rng.integers(0, 9))
    return synth.GenSpec(
        rows=tuple(rows),
        cols=tuple(cols),
        merge_prob=float(rng.choice([0.0, 0.3, 1.0])),
        max_span=int(rng.integers(2, 5)),
        max_merges=int(rng.integers(0, 5)),
        content_len=(lo, lo + int(rng.integers(0, 12))),
        border_prob=float(rng.random()),
        glyph_scale=int(rng.integers(1, 4)),
        image_side=int(rng.integers(48, 129)),
        margin=int(rng.integers(0, 11)),
        space_prob=float(rng.choice([0.0, 0.3, 1.0])),
    )


class TestGenerateEqualsReference:
    """generate draws each character as one bounded integer and scales each
    glyph with repeat; the records stay bitwise those of the reference."""

    @pytest.mark.parametrize("preset", sorted(synth.PRESETS))
    def test_presets(self, preset):
        spec = synth.PRESETS[preset]
        for seed in synth.sample_seeds(7, 150):
            assert_records_identical(synth.generate(spec, seed), references.generate(spec, seed))

    def test_random_specs(self):
        rng = np.random.default_rng(2024)
        scales, spaces, empty, merged = set(), set(), 0, 0
        for k in range(200):
            spec = random_spec(rng)
            scales.add(spec.glyph_scale)
            spaces.add(spec.space_prob)
            for seed in (k, (k, 1), 10_000 + k):
                rec = synth.generate(spec, seed)
                assert_records_identical(rec, references.generate(spec, seed))
                empty += "" in rec.cells
                merged += rec.is_complex
        assert scales == {1, 2, 3} and spaces == {0.0, 0.3, 1.0} and empty and merged


class TestCorpusIO:
    def test_pgm_roundtrip(self, tmp_path):
        rec = synth.generate(synth.PRESETS["wide"], 3)
        path = str(tmp_path / "img.pgm")
        synth.write_pgm(path, rec.image)
        back = synth.read_pgm(path)
        assert back.dtype == rec.image.dtype == np.uint8
        assert np.array_equal(back, rec.image)

    @pytest.mark.parametrize(
        "content, fault",
        [
            (b"P5\n4 2\n255\n" + bytes(7), "truncated, 7 pixel bytes for a 4x2 image"),
            (b"P5\n4 2\n255", "truncated, 0 pixel bytes"),
            (b"P5\nfour 2\n255\n" + bytes(8), "width 'four' is not an integer"),
            (b"P5\n4 2.5\n255\n" + bytes(8), "height '2.5' is not an integer"),
            (b"P5\n4 2\n", "header ends before its maxval"),
            (b"P5\n4 2 # size", "header comment has no line end"),
            (b"P5\n0 4\n255\n", r"shape \(4, 0\) has a side below 1"),
            (b"P5\n-2 -2\n255\n" + bytes(4), r"shape \(-2, -2\) has a side below 1"),
            # CR ends the header and the LF is read as a pixel byte: one too many
            (b"P5\r\n4 2\r\n255\r\n" + bytes(8), "9 pixel bytes for a 4x2 image, 1 too many"),
            (b"P5\n4 2\n255\n" + bytes(11), "11 pixel bytes for a 4x2 image, 3 too many"),
        ],
    )
    def test_bad_pgm_names_file_and_fault(self, tmp_path, content, fault):
        path = tmp_path / "bad.pgm"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{fault}"):
            synth.read_pgm(str(path))

    def test_pgm_header_comments(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# made by hand\n2 1 # size\n255\n" + bytes([0, 255]))
        img = synth.read_pgm(str(path))
        assert img.dtype == np.uint8 and np.array_equal(img, [[0, 255]])

    def test_emit_zero_records(self, tmp_path):
        synth.emit_corpus(0, synth.PRESETS["wide"], str(tmp_path / "c"))
        assert (tmp_path / "c" / "annotations.jsonl").read_text() == ""

    def test_emit_and_load(self, tmp_path):
        path = str(tmp_path / "corpus")
        ids = synth.emit_corpus(5, synth.PRESETS["wide"], path, master_seed=42)
        assert len(ids) == 5
        loaded = synth.load_corpus(path)
        assert [i for i, _ in loaded] == ids
        direct = synth.generate(synth.PRESETS["wide"], (42, 2))
        assert np.array_equal(loaded[2][1].image, direct.image)
        assert loaded[2][1].cells == direct.cells

    def test_load_keeps_each_record_as_its_codes(self, tmp_path):
        # one byte per pixel, as generated, and no view into a file's bytes
        spec = synth.PRESETS["dense"]
        path = str(tmp_path / "corpus")
        synth.emit_corpus(4, spec, path, master_seed=9)
        for i, (_, rec) in enumerate(synth.load_corpus(path)):
            want = synth.generate(spec, (9, i)).image
            assert want.dtype == rec.image.dtype == np.uint8
            assert rec.image.tobytes() == want.tobytes()
            assert rec.image.nbytes == spec.image_side**2
            assert rec.image.flags.owndata

    def test_write_pgm_refuses_float_pixels(self, tmp_path):
        with pytest.raises(ValueError, match="uint8 codes, got float64"):
            synth.write_pgm(str(tmp_path / "f.pgm"), np.ones((2, 2)))

    def test_rerun_identical_bytes(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        synth.emit_corpus(3, synth.PRESETS["dense"], a, master_seed=7)
        synth.emit_corpus(3, synth.PRESETS["dense"], b, master_seed=7)
        for name in ("annotations.jsonl", "manifest.json", "table_00001.pgm"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_manifest_contents(self, tmp_path):
        path = str(tmp_path / "c")
        synth.emit_corpus(2, synth.PRESETS["wide"], path, master_seed=9)
        manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
        assert manifest["count"] == 2 and manifest["master_seed"] == 9
        assert manifest["spec"]["glyph_scale"] == 2

    @staticmethod
    def corrupt_line(tmp_path, edit) -> str:
        """A 3-record corpus whose second annotation line is edit(line)."""
        path = str(tmp_path / "c")
        synth.emit_corpus(3, synth.PRESETS["wide"], path, master_seed=5)
        ann = tmp_path / "c" / "annotations.jsonl"
        lines = ann.read_text().splitlines()
        lines[1] = edit(lines[1])
        ann.write_text("\n".join(lines) + "\n")
        return path

    def edit_json(self, change):
        def edit(line):
            ann = json.loads(line)
            change(ann)
            return json.dumps(ann)

        return edit

    def assert_located(self, path, fault):
        where = re.escape(os.path.join(path, "annotations.jsonl")) + ":2: "
        with pytest.raises(ValueError, match=where + fault):
            synth.load_corpus(path)

    def test_bad_json_is_located(self, tmp_path):
        path = self.corrupt_line(tmp_path, lambda line: line[:-5])
        self.assert_located(path, "bad JSON")

    def test_missing_field_is_located(self, tmp_path):
        for field in ("cells", "structure_tokens", "filename"):
            path = self.corrupt_line(tmp_path, self.edit_json(lambda a: a.pop(field)))
            self.assert_located(path, f"field '{field}' missing")

    def test_unknown_structure_token_is_located(self, tmp_path):
        def change(ann):
            ann["structure_tokens"][2] = "<blink>"

        path = self.corrupt_line(tmp_path, self.edit_json(change))
        self.assert_located(path, "unknown structure token '<blink>'")

    @pytest.mark.parametrize(
        "change, fault",
        [
            (
                lambda a: a["structure_tokens"].insert(2, "<eos>"),
                "tokens spell no supported table: line 1, column 20: unsupported tag <eos>",
            ),
            (
                lambda a: a["structure_tokens"].insert(1, "<tr>"),
                "tokens spell no supported table: line 1, column 11: <tr> in <tr>",
            ),
            (
                lambda a: a["structure_tokens"].__setitem__(slice(1, 2), ["<td", ">", "</td>"]),
                "position 1: expected '<td></td>', got '<td'",
            ),
            (lambda a: a["cells"].append(dict(a["cells"][0])), "7 cells for a structure of 6"),
            (lambda a: a["cells"].pop(), "5 cells for a structure of 6"),
            (
                lambda a: a.__setitem__("complex", True),
                "field 'complex' is True, but the structure has no span",
            ),
        ],
    )
    def test_structure_disagreement_is_located(self, tmp_path, change, fault):
        path = self.corrupt_line(tmp_path, self.edit_json(change))
        self.assert_located(path, re.escape(fault))

    @pytest.mark.parametrize("box", [[0.5, 0.5, 0.1], [0.5, 0.5, 0.1, "x"], 7, None])
    def test_box_not_four_numbers_is_located(self, tmp_path, box):
        def change(ann):
            ann["cells"][1]["box"] = box

        path = self.corrupt_line(tmp_path, self.edit_json(change))
        self.assert_located(path, re.escape(f"cell 1 box {box!r} is not 4 numbers"))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e308, -0.5, 1.5])
    def test_box_outside_the_unit_range_is_located(self, tmp_path, bad):
        # a NaN or huge box used to load and stop training on a non-finite loss
        box = [0.5, bad, 0.1, 0.1]

        def change(ann):
            ann["cells"][1]["box"] = box

        path = self.corrupt_line(tmp_path, self.edit_json(change))
        self.assert_located(path, re.escape(f"cell 1 box {box!r} is not 4 numbers in [0, 1]"))

    @pytest.mark.parametrize("seed", [5, "ab", [1.5], [True], None])
    def test_seed_not_a_list_of_integers_is_located(self, tmp_path, seed):
        path = self.corrupt_line(tmp_path, self.edit_json(lambda a: a.__setitem__("seed", seed)))
        self.assert_located(path, re.escape(f"field 'seed' {seed!r} is not a list of integers"))

    @pytest.mark.parametrize("kind", ["parent", "absolute", "subdir", "empty", "dotdot"])
    def test_filename_outside_the_corpus_is_refused(self, tmp_path, kind):
        # a valid PGM sits outside the corpus, so only the refusal stops the load
        outside = tmp_path / "outside.pgm"
        synth.write_pgm(str(outside), np.zeros((2, 2), dtype=np.uint8))
        name = {"parent": "../outside.pgm", "absolute": str(outside), "subdir": "sub/x.pgm",
                "empty": "", "dotdot": ".."}[kind]
        path = self.corrupt_line(tmp_path, self.edit_json(lambda a: a.update(filename=name)))
        os.mkdir(os.path.join(path, "sub"))
        synth.write_pgm(os.path.join(path, "sub", "x.pgm"), np.zeros((2, 2), dtype=np.uint8))
        self.assert_located(path, re.escape(f"filename {name!r} is not a file name in the corpus"))

    @pytest.mark.parametrize("content", [None, b"P5\n4 2\n255\n"])
    def test_unreadable_image_is_located(self, tmp_path, content):
        path = self.corrupt_line(tmp_path, lambda line: line)
        image = os.path.join(path, "table_00001.pgm")
        os.remove(image)
        fault = "cannot read 'table_00001.pgm': No such file"
        if content is not None:
            with open(image, "wb") as fh:
                fh.write(content)
            fault = f"{image}: truncated"
        self.assert_located(path, re.escape(fault))

    def test_record_regenerable_from_stored_seed(self, tmp_path):
        path = str(tmp_path / "c")
        synth.emit_corpus(3, synth.PRESETS["dense"], path, master_seed=11)
        rec_id, rec = synth.load_corpus(path)[1]
        again = synth.generate(synth.PRESETS["dense"], list(rec.seed))
        assert np.array_equal(again.image, rec.image)
        assert again.cells == rec.cells


class TestPrepareImage:
    def test_equals_the_padded_square_reference_bitwise(self):
        # shapes taller and wider than square, a longer side equal to the
        # model side, below it (upsampling) and above it, as codes and floats
        rng = np.random.default_rng(11)
        shapes = [(40, 16), (16, 40), (32, 32), (32, 20), (9, 32), (7, 3), (1, 1), (1, 70)]
        shapes += [tuple(rng.integers(1, 90, size=2)) for _ in range(12)]
        for shape in shapes:
            codes = rng.integers(0, 256, size=shape).astype(np.uint8)
            for img in (codes, rng.random(shape)):
                want = references.prepare_image(img, 32)
                got = synth.prepare_image(img, 32)
                assert (got.dtype, got.shape, got.tobytes()) == (
                    want.dtype, want.shape, want.tobytes()
                ), (shape, img.dtype)

    def test_long_thin_image_builds_no_padded_square(self):
        # a 1 x 4000 strip padded to its square would hold 4000^2 floats (128 MB)
        img = np.zeros((1, 4000), dtype=np.uint8)
        tracemalloc.start()
        try:
            out = synth.prepare_image(img, 128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (128, 128)
        assert peak < 4 * 2**20, peak

    @pytest.mark.parametrize("shape", [(16, 16), (24, 11)], ids=["square", "bilinear"])
    def test_codes_equal_their_floats_bitwise(self, shape):
        # all 256 codes, on an image taken at the model side as it is and on
        # one that is padded and resized
        img = (np.arange(shape[0] * shape[1]) % 256).astype(np.uint8).reshape(shape)
        want = synth.prepare_image(img / 255.0, 16)
        got = synth.prepare_image(img, 16)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    def test_identity_when_square_and_sized(self):
        img = np.random.default_rng(0).random((64, 64))
        out = synth.prepare_image(img, 64)
        assert np.allclose(out, img)

    def test_pads_then_resizes(self):
        img = np.zeros((100, 40))
        out = synth.prepare_image(img, 64)
        assert out.shape == (64, 64)
        # right side comes from white padding
        assert out[:, -1].mean() > 0.9

    def test_preserves_value_range(self):
        img = np.random.default_rng(1).random((77, 50))
        out = synth.prepare_image(img, 128)
        assert out.min() >= 0.0 and out.max() <= 1.0

    @pytest.mark.parametrize("shape", [(0, 0), (5, 0), (0, 7)])
    def test_empty_image_rejected(self, shape):
        with pytest.raises(ValueError, match=rf"shape \({shape[0]}, {shape[1]}\)"):
            synth.prepare_image(np.zeros(shape), 64)

    def test_one_dimensional_image_rejected(self):
        with pytest.raises(ValueError, match=r"2-D .*shape \(9,\)"):
            synth.prepare_image(np.zeros(9), 64)

    @pytest.mark.parametrize("value", [-0.5, 1.0 + 1e-9, 255.0])
    def test_out_of_range_pixel_located(self, value):
        img = np.ones((6, 8))
        img[0, 0] = 0.0  # both ends of the range are accepted
        img[3, 5] = value
        img[5, 1] = value
        with pytest.raises(ValueError, match=rf"pixel \(3, 5\) is {value}, outside \[0, 1\]"):
            synth.prepare_image(img, 64)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_located(self, value):
        img = np.zeros((6, 8))
        img[4, 2] = value
        img[5, 7] = value
        with pytest.raises(ValueError, match=r"pixel \(4, 2\)"):
            synth.prepare_image(img, 64)
