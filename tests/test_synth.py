import json

import numpy as np
import pytest

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
            ink = rec.image <= synth.INK / 255.0 + 1e-9
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


class TestCorpusIO:
    def test_pgm_roundtrip(self, tmp_path):
        rec = synth.generate(synth.PRESETS["wide"], 3)
        path = str(tmp_path / "img.pgm")
        synth.write_pgm(path, rec.image)
        back = synth.read_pgm(path)
        assert np.array_equal(back, rec.image)

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

    def test_record_regenerable_from_stored_seed(self, tmp_path):
        path = str(tmp_path / "c")
        synth.emit_corpus(3, synth.PRESETS["dense"], path, master_seed=11)
        rec_id, rec = synth.load_corpus(path)[1]
        again = synth.generate(synth.PRESETS["dense"], list(rec.seed))
        assert np.array_equal(again.image, rec.image)
        assert again.cells == rec.cells


class TestPrepareImage:
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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_located(self, value):
        img = np.zeros((6, 8))
        img[4, 2] = value
        img[5, 7] = value
        with pytest.raises(ValueError, match=r"pixel \(4, 2\)"):
            synth.prepare_image(img, 64)
