import numpy as np
import pytest

from tabmark import autodiff as ad
from tabmark import checkpoint, decoding
from tabmark import layers as L
from tabmark import model as M
from tabmark import synth
from tabmark import vocab as V
from tabmark.autodiff import Tensor
from tabmark.training import sample_loss

SOS = V.CONTENT.sos
SEP = V.SEP_ID


def tiny_cfg(**kw) -> M.ModelConfig:
    base = dict(
        image_side=32,
        d=16,
        heads=2,
        html_blocks=1,
        cell_blocks=1,
        refiner_blocks=1,
        ffn_mult=2,
        enc_channels=(4, 8, 16),
        seed=3,
    )
    base.update(kw)
    return M.ModelConfig(**base)


def content_ids(text: str) -> list[int]:
    return list(V.tokenize_content(text).ids)


def structure_ids(html: str) -> list[int]:
    return list(V.tokenize_structure(html).ids)


class TestModelConfig:
    def test_text_roundtrip(self):
        cfg = tiny_cfg(variant="bbox", window=7)
        again = M.ModelConfig.from_text(cfg.to_text())
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            M.ModelConfig.from_text("d=16\nbogus=3\n")

    def test_key_given_twice_rejected(self):
        with pytest.raises(ValueError, match="^config key window given twice$"):
            M.ModelConfig.from_text("d=16\nheads=2\nwindow=300\nwindow=3\n")

    def test_grid_property(self):
        assert tiny_cfg().downsample == 8
        assert tiny_cfg().grid == 4

    @pytest.mark.parametrize(
        "kw",
        [
            {"d": 18},  # not divisible by 4
            {"d": 20, "heads": 3},  # not divisible by heads
            {"image_side": 30},
            {"variant": "mystery"},
            {"html_blocks": 0},
            {"in_channels": 2},
            {"struct_cap": 0},
            {"struct_cap": 1},  # the buffer starts with SOS: no room for a token
        ],
    )
    def test_validation_rejects(self, kw):
        with pytest.raises(ValueError):
            tiny_cfg(**kw).validate()

    def test_in_channels_is_grayscale_only(self, tmp_path):
        # prepare_image takes 2-D images only, so RGB could never reach the model
        with pytest.raises(ValueError, match="in_channels"):
            tiny_cfg(in_channels=3).validate()
        path = tmp_path / "model.ckpt"
        checkpoint.save(str(path), M.TableModel(tiny_cfg(in_channels=1)))
        raw = path.read_bytes()
        assert b"in_channels=1\n" in raw
        assert checkpoint.load(str(path)).cfg.in_channels == 1
        path.write_bytes(raw.replace(b"in_channels=1\n", b"in_channels=3\n"))
        with pytest.raises(ValueError, match="in_channels"):
            checkpoint.load(str(path))

    @pytest.mark.parametrize(
        "line, match",
        [
            ("d=1x", "config key d needs an integer, got '1x'"),
            ("window=", "config key window needs an integer, got ''"),
            ("enc_channels=4,x,16", "enc_channels needs a list, each item an integer, got '4,x,16'"),
            ("enc_channels=4,8", r"3 positive channel counts, got \(4, 8\)"),
            ("enc_channels=0,8,16", r"3 positive channel counts, got \(0, 8, 16\)"),
            ("heads=0", "head count"),
            ("d=0", "d must be a positive multiple of 4"),
            ("window=-1", "need window >= 0"),
            ("struct_cap=1", "struct_cap must be >= 2, got 1"),
            ("ffn_mult=0", "ffn_mult >= 1"),
            ("image_side=0", "image side must be a positive multiple of 8, got 0"),
        ],
    )
    def test_from_text_names_bad_values(self, line, match):
        text = f"{line}\n" if line.startswith("d=") else f"d=16\n{line}\n"  # no key twice
        with pytest.raises(ValueError, match=match):
            M.ModelConfig.from_text(text)

    @pytest.mark.parametrize("key", list(M.ModelConfig.LIMITS))
    def test_upper_bounds_name_the_key(self, key):
        bound = M.ModelConfig.LIMITS[key]
        value = (4, 8, bound + 1) if key == "enc_channels" else bound + 1
        with pytest.raises(ValueError, match=rf"^{key} must be at most {bound}, got "):
            tiny_cfg(**{key: value}).validate()

    def test_with_variant(self):
        cfg = tiny_cfg()
        assert cfg.with_variant("through").variant == "through"
        assert cfg.variant == "full"


class TestCellBox:
    """Boxes leave recognize() as the bbox head's (n, 4) array, clipped
    into [0, 1], one row per decoded cell."""

    @staticmethod
    def recognize_with_head(rows, token):
        """recognize() on a blank image with the structure head forced to
        emit token at every step and the bbox head returning rows, cycled
        over the cells."""
        m = M.TableModel(tiny_cfg(struct_cap=8, content_cap=30))
        m.params["html.out.w"].data[:] = 0.0
        m.params["html.out.b"].data[:] = 0.0
        m.params["html.out.b"].data[token] = 1.0
        rows = np.asarray(rows, dtype=np.float64)
        m.bbox_head = lambda feats: Tensor(np.resize(rows, (feats.shape[0], 4)))
        return decoding.recognize(m, np.zeros((32, 32)))

    def test_array_roundtrip(self):
        arr = np.array([[0.2, 0.3, 0.2, 0.2], [0.0, 1.0, 0.5, 0.25]])
        out = self.recognize_with_head(arr, V.STRUCTURE["</td>"])  # 7 cells
        want = np.resize(arr, (7, 4))
        assert out.boxes.dtype == np.float64
        assert np.array_equal(out.boxes, want)
        assert np.array_equal(np.array(out.as_dict()["boxes"]), want)

    def test_empty_list(self):
        out = self.recognize_with_head([[0.2, 0.3, 0.2, 0.2]], V.STRUCTURE.eos)
        assert out.boxes.shape == (0, 4)
        assert out.as_dict()["boxes"] == []

    def test_clipping_out_of_range_predictions(self):
        out = self.recognize_with_head([[1.2, -0.1, 0.5, 0.5]], V.STRUCTURE["</td>"])
        assert out.boxes.tolist() == [[1.0, 0.0, 0.5, 0.5]] * 7


def grown_rows(cells, before) -> tuple[list[int], M.BufferLayout]:
    """The rows a cached cell decode hands over when each cell k has grown
    from before[k] tokens to all of cells[k]: each row's token, and its
    layout (the r-th token of cell k), in cell order."""
    at = [(k, r) for k, cell in enumerate(cells) for r in range(before[k], len(cell))]
    layout = M.BufferLayout.cell_tokens([k for k, _ in at], [r for _, r in at])
    return [cells[k][r] for k, r in at], layout


def loop_layout(ids, n_cells: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The layout of a content buffer in an encoding of its own, parsed back
    from its SEPs in a loop over positions: per position a mask cell (-1 at
    SOS, n + k at the k-th SEP), a feature index (-1: no feature) and a
    relative position.  content_buffer's keys must relabel it
    (test_equals_the_loop_reference)."""
    ids = list(ids)
    if not ids or ids[0] != SOS:
        raise ValueError("content buffer must start with SOS")
    n = len(ids)
    mask_cells = np.empty(n, dtype=np.int64)
    feat_index = np.empty(n, dtype=np.int64)
    rel_pos = np.empty(n, dtype=np.int64)
    mask_cells[0] = -1
    feat_index[0] = 0 if n_cells > 0 else -1
    rel_pos[0] = 0
    cell = seps_seen = offset = 0
    for p in range(1, n):
        t = ids[p]
        if t == SOS:
            raise ValueError(f"stray SOS at position {p}")
        if t == SEP:
            mask_cells[p] = n_cells + seps_seen  # unique island id
            nxt = seps_seen + 1
            feat_index[p] = nxt if nxt < n_cells else -1
            rel_pos[p] = 0
            seps_seen += 1
            cell = seps_seen
            offset = 0
        else:
            if cell >= n_cells:
                raise ValueError(f"token at position {p} belongs to unknown cell {cell}")
            mask_cells[p] = cell
            feat_index[p] = cell
            rel_pos[p] = offset
            offset += 1
    return mask_cells, feat_index, rel_pos


def loop_keys(ids, n_cells: int) -> M.BufferLayout:
    """loop_layout relabelled as (sequence, position) keys: the mask cell
    + 1 and the relative position (test_equals_the_loop_reference)."""
    mask_cells, _, rel_pos = loop_layout(ids, n_cells)
    return M.BufferLayout(mask_cells + 1, rel_pos)


class TestCellBufferLayout:
    """model.content_buffer: the buffer and its layout, written from per-cell
    token lists."""

    def test_sep_count_assigns_cells(self):
        # "a b SEP SEP c SEP": c belongs to cell 2 (two SEPs precede it)
        a, b, c = content_ids("abc")
        ids, lay = M.content_buffer([[a, b], [], [c]])
        assert ids == [SOS, a, b, SEP, SEP, c, SEP]
        assert lay.seq[5] == 3
        np.testing.assert_array_equal(lay.seq, [0, 1, 1, 4, 5, 3, 6])
        np.testing.assert_array_equal(lay.cond_cells(3), [0, 0, 0, 1, 2, 2, 3])
        np.testing.assert_array_equal(lay.pos, [0, 0, 1, 0, 0, 0, 0])

    def test_initial_decode_buffer(self):
        # [SOS, SEP, SEP, SEP]: each SEP is its own island carrying the next cell
        ids, lay = M.content_buffer([[], [], []])
        assert ids == [SOS, SEP, SEP, SEP]
        np.testing.assert_array_equal(lay.seq, [0, 4, 5, 6])
        np.testing.assert_array_equal(lay.cond_cells(3), [0, 1, 2, 3])
        np.testing.assert_array_equal(lay.pos, [0, 0, 0, 0])

    def test_first_token_of_every_cell_rel_zero(self):
        rng = np.random.default_rng(5)
        letters = content_ids("abcdefgh")
        for _ in range(50):
            n_cells = int(rng.integers(1, 5))
            cells = [
                [letters[int(rng.integers(0, 8))] for _ in range(int(rng.integers(0, 4)))]
                for _ in range(n_cells)
            ]
            ids, lay = M.content_buffer(cells)
            prev_boundary = True
            for p in range(1, len(ids)):
                if prev_boundary and ids[p] != SEP:
                    assert lay.pos[p] == 0
                prev_boundary = ids[p] == SEP

    def test_equals_the_loop_reference(self):
        # random cell lists, zero cells, empty cells and cells of 13 or more
        # tokens among them: the ids are [SOS] + (cell + SEP) per cell, and
        # the keys relabel the loop's layout parsed back from them: seq is
        # the mask cell + 1, pos the relative position, and cond_cells the
        # feature index with -1 read as n, dtypes included
        rng = np.random.default_rng(17)
        letters = content_ids("abcdefgh")
        seen = {"no cells": 0, "empty cell": 0, "long cell": 0}
        for _ in range(1200):
            n_cells = int(rng.integers(0, 7))
            longest = 20 if rng.random() < 0.3 else 5
            cells = [
                [int(t) for t in rng.choice(letters, size=int(rng.integers(0, longest)))]
                for _ in range(n_cells)
            ]
            seen["no cells"] += not cells
            seen["empty cell"] += any(not c for c in cells)
            seen["long cell"] += any(len(c) >= 13 for c in cells)
            ids, got = M.content_buffer(cells)
            assert type(ids) is list
            assert ids == [SOS] + [t for c in cells for t in c + [SEP]]
            mask_cells, feat_index, rel_pos = loop_layout(ids, n_cells)
            want = {
                "seq": (got.seq, mask_cells + 1),
                "pos": (got.pos, rel_pos),
                "cond_cells": (
                    got.cond_cells(n_cells), np.where(feat_index < 0, n_cells, feat_index)
                ),
            }
            for f, (a, b) in want.items():
                assert a.dtype == b.dtype and np.array_equal(a, b), (cells, f)
            # and the mask is the rule over mask cells: SOS, plus the own cell
            # within the window
            i = np.arange(len(ids))
            diff = i[:, None] - i[None, :]
            old = (mask_cells[:, None] == mask_cells) & (diff >= 0) & (diff <= 3)
            old_mask = np.where(old | (mask_cells == -1), 0.0, ad.NEG_INF)
            assert np.array_equal(L.build_cellwise_mask(got.seq, got.pos, 3), old_mask), cells
        assert min(seen.values()) > 100, seen

    def test_sep_islands_are_unique(self):
        a, b = content_ids("ab")
        _, lay = M.content_buffer([[a], [b]])
        seps = [lay.seq[2], lay.seq[4]]
        assert seps == [3, 4]  # past the cells' sequences 1..n_cells, and distinct


@pytest.fixture(scope="module")
def model():
    return M.TableModel(tiny_cfg())


@pytest.fixture(scope="module")
def img_feats(model):
    # untaped: every test of the module shares it, and a backward frees the
    # tape it walks, so a taped memory would let only one test backpropagate
    rng = np.random.default_rng(0)
    img = rng.random((32, 32))
    with ad.no_grad():
        return model.encode_image(img)


class TestEncodeImage:
    def test_output_shape(self, model, img_feats):
        assert img_feats.shape == (16, 16)  # 4x4 grid, d=16

    def test_wrong_side_rejected(self, model):
        with pytest.raises(ValueError, match="expected 32x32"):
            model.encode_image(np.zeros((64, 64)))

    def test_wrong_channels_rejected(self, model):
        with pytest.raises(ValueError, match="channel"):
            model.encode_image(np.zeros((32, 32, 3)))

    def test_encode_refuses_integer_codes(self, model):
        with pytest.raises(ValueError, match="float pixels in \\[0, 1\\], got uint8"):
            model.encode_image(np.full((32, 32), 255, dtype=np.uint8))

    def test_locality(self, model):
        # a perturbation confined to the top-left pixels leaves grid cells
        # outside the receptive field (15px here) bitwise unchanged
        rng = np.random.default_rng(1)
        img = rng.random((32, 32))
        poked = img.copy()
        poked[0:4, 0:4] = 1.0 - poked[0:4, 0:4]
        a = model.encode_image(img).data.reshape(4, 4, -1)
        b = model.encode_image(poked).data.reshape(4, 4, -1)
        assert not np.array_equal(a, b)
        for i in range(4):
            for j in range(4):
                if i >= 2 or j >= 2:
                    np.testing.assert_array_equal(a[i, j], b[i, j])

    def test_position_grid_built_once(self, model, monkeypatch):
        # the 2D codes are computed with the model, not on every image
        img = np.random.default_rng(2).random((32, 32))
        x = Tensor(img[:, :, None])
        for w, b in zip(model.conv_w, model.conv_b):
            x = ad.conv2d(x, w, b)
        x = model.enc_proj(ad.reshape(x, (16, 16)))
        want = model.enc_norm(ad.add(x, L.pos_grid_2d(4, 4, 16))).data
        monkeypatch.setattr(L, "pos_grid_2d", None)
        np.testing.assert_array_equal(model.encode_image(img).data, want)


class TestPositionCodes:
    """TableModel.pos_codes against layers.pos_encode_1d, bit for bit."""

    def test_table_rows_equal_pos_encode_1d_up_to_both_default_caps(self):
        cfg = M.ModelConfig()
        model = M.TableModel(cfg)
        assert not any("pos" in name for name, _ in model.params.items())  # not a parameter
        want = np.stack([L.pos_encode_1d(p, cfg.d) for p in range(cfg.content_cap)])
        want_bits = want.view(np.uint64)
        sizes = []
        for top in (1, 2, 3, 45, 44, cfg.struct_cap, 301, 1000, cfg.content_cap):
            got = model.pos_codes(np.arange(top))
            assert np.array_equal(got.view(np.uint64), want_bits[:top]), top
            size = model.pos_table.shape[0]
            assert np.array_equal(model.pos_table.view(np.uint64), want_bits[:size]), top
            sizes.append(size)
        assert sizes == sorted(sizes) and len(set(sizes)) > 4  # grown several times
        assert sizes[-1] == cfg.content_cap  # never past the longer cap
        order = np.random.default_rng(0).permutation(cfg.content_cap)
        assert np.array_equal(model.pos_codes(order).view(np.uint64), want_bits[order])
        assert model.pos_codes(np.zeros(0, dtype=np.int64)).shape == (0, cfg.d)


class TestHtmlStep:
    def test_shapes(self, model, img_feats):
        ids = [V.STRUCTURE.sos] + structure_ids("<table><tr><td>x</td></tr></table>")
        logits, hidden = model.html_step(ids, "ltor", img_feats)
        assert logits.shape == (len(ids), len(V.STRUCTURE))
        assert hidden.shape == (len(ids), 16)

    def test_cap_rejected(self, img_feats):
        m = M.TableModel(tiny_cfg(struct_cap=3))
        with pytest.raises(ValueError, match="exceeds cap"):
            m.html_step([V.STRUCTURE.sos] * 4, "ltor", m.encode_image(np.zeros((32, 32))))

    def test_bad_direction_rejected(self, model, img_feats):
        with pytest.raises(ValueError, match="direction"):
            model.html_step([V.STRUCTURE.sos], "ttob", img_feats)

    def test_both_students_cap_is_per_student(self):
        m = M.TableModel(tiny_cfg(struct_cap=3))
        feats = m.encode_image(np.zeros((32, 32)))
        logits, hidden = m.html_step([V.STRUCTURE.sos] * 6, "both", feats)
        assert logits.shape == (6, len(V.STRUCTURE)) and hidden.shape == (6, 16)
        with pytest.raises(ValueError, match="exceeds cap"):
            m.html_step([V.STRUCTURE.sos] * 8, "both", feats)

    def test_both_students_refusals(self, model, img_feats):
        with pytest.raises(ValueError, match="do not split"):
            model.html_step([V.STRUCTURE.sos] * 3, "both", img_feats)
        with pytest.raises(ValueError, match="plain memory"):
            model.html_step([V.STRUCTURE.sos] * 2, "both", M.DecodeCache(img_feats))

    def test_directions_differ(self, model, img_feats):
        ids = [V.STRUCTURE.sos] + structure_ids("<table><tr><td></td></tr></table>")
        lt, _ = model.html_step(ids, "ltor", img_feats)
        rt, _ = model.html_step(ids, "rtol", img_feats)
        assert not np.allclose(lt.data, rt.data)

    def test_prefix_invariance(self, model, img_feats):
        # causal masking: logits at early positions ignore later tokens
        ids = [V.STRUCTURE.sos] + structure_ids(
            "<table><tr><td></td><td></td></tr><tr><td></td><td></td></tr></table>"
        )
        full, _ = model.html_step(ids, "ltor", img_feats)
        pre, _ = model.html_step(ids[:4], "ltor", img_feats)
        np.testing.assert_allclose(pre.data, full.data[:4], rtol=0, atol=1e-10)


class TestFetchRefine:
    def test_anchor_positions(self, model):
        ids = [
            V.STRUCTURE[V.TR_OPEN],
            V.STRUCTURE[V.TD_MERGED],
            V.STRUCTURE[V.TD_MERGED],
            V.STRUCTURE[V.TR_CLOSE],
        ]
        fetched = model.fetch_cells(ids, Tensor(np.arange(64.0).reshape(4, 16)))
        assert fetched.shape == (2, 16)
        np.testing.assert_array_equal(fetched.data, np.arange(16.0, 48.0).reshape(2, 16))

    def test_spanned_cell_single_anchor(self, model):
        ids = structure_ids('<table><tr><td colspan="2">x</td></tr></table>')
        hidden = np.arange(len(ids), dtype=np.float64)[:, None].repeat(16, axis=1)
        fetched = model.fetch_cells(ids, Tensor(hidden))
        assert fetched.shape == (1, 16)
        assert ids[int(fetched.data[0, 0])] == V.STRUCTURE[V.TD_CLOSE]

    def test_empty_table(self, model):
        fetched = model.fetch_cells([], Tensor(np.zeros((0, 16))))
        assert fetched.shape == (0, 16)
        assert model.refine(fetched).shape == (0, 16)

    def test_row_count_must_match_tokens(self, model):
        ids = structure_ids("<table><tr><td></td></tr></table>")
        with pytest.raises(ValueError, match=f"^{len(ids) + 1} hidden rows for {len(ids)} tokens$"):
            model.fetch_cells(ids, Tensor(np.zeros((len(ids) + 1, 16))))
        with pytest.raises(ValueError, match="hidden rows"):
            model.fetch_cells(ids, Tensor(np.zeros((0, 16))))

    def test_refine_permutation_equivariance(self, model):
        rng = np.random.default_rng(2)
        feats = rng.standard_normal((6, 16))
        perm = rng.permutation(6)
        out = model.refine(Tensor(feats)).data
        out_p = model.refine(Tensor(feats[perm])).data
        np.testing.assert_allclose(out_p, out[perm], rtol=0, atol=1e-10)

    def test_through_variant_is_identity(self):
        m = M.TableModel(tiny_cfg(variant="through"))
        feats = Tensor(np.random.default_rng(3).standard_normal((4, 16)))
        assert m.refine(feats) is feats

    def test_bbox_head_range(self, model):
        feats = Tensor(np.random.default_rng(4).standard_normal((5, 16)) * 10)
        boxes = model.bbox_head(feats)
        assert boxes.shape == (5, 4)
        assert np.all((boxes.data > 0) & (boxes.data < 1))


class TestCellStep:
    def run_step(self, m, cells, cond=None, img=None):
        buffer, lay = M.content_buffer(cells)
        if cond is None:
            cond = Tensor(np.random.default_rng(9).standard_normal((len(cells), m.cfg.d)))
        if img is None:
            img = m.encode_image(np.zeros((m.cfg.image_side, m.cfg.image_side)))
        return m.cell_step(buffer, lay, cond, img)

    def test_shape(self, model):
        a, b = content_ids("ab")
        logits = self.run_step(model, [[a], [b]])
        assert logits.shape == (5, len(V.CONTENT))

    def test_cap_rejected(self):
        m = M.TableModel(tiny_cfg(content_cap=2))
        with pytest.raises(ValueError, match="exceeds cap"):
            self.run_step(m, [[], []])

    def test_layout_mismatch_rejected(self, model, img_feats):
        _, lay = M.content_buffer([[]])
        with pytest.raises(ValueError, match="layout length"):
            model.cell_step([SOS, SEP, SEP], lay, Tensor(np.zeros((2, 16))), img_feats)

    def test_missing_feature_rejected(self, model, img_feats):
        buf, lay = M.content_buffer([[], []])
        where = r"row 1 \(sequence 3, position 0\) is outside a buffer of 1 cells"
        with pytest.raises(ValueError, match=where):
            model.cell_step(buf, lay, Tensor(np.zeros((1, 16))), img_feats)

    @pytest.mark.parametrize("row, seq, pos", [(2, -1, 0), (2, 5, 0), (3, 3, -1), (1, 1, 40)])
    def test_rows_outside_the_buffer_are_refused(self, row, seq, pos):
        # a negative position would read a code from the end of the position
        # table, a negative sequence the cache's table from its end
        m = M.TableModel(tiny_cfg(content_cap=40))
        feats = m.encode_image(np.zeros((32, 32)))
        a, b = content_ids("ab")
        buf, lay = M.content_buffer([[a, b], []])
        lay.seq[row], lay.pos[row] = seq, pos
        cond = Tensor(np.random.default_rng(9).standard_normal((2, 16)))
        where = rf"row {row} \(sequence {seq}, position {pos}\) is outside a buffer of 2 cells"
        with pytest.raises(ValueError, match=where):
            m.cell_step(buf, lay, cond, feats)
        cache = M.DecodeCache(feats)
        with ad.no_grad(), pytest.raises(ValueError, match=where):
            m.cell_step(buf, lay, cond, cache)
        assert cache.owner is None and cache.held == 0 and cache.table.size == 0
        with ad.no_grad():  # a cache that holds rows is left as it was, too
            start, first = M.content_buffer([[], []])
            m.cell_step(start, first, cond, cache)
            held, table = cache.held, cache.table.copy()
            new, grown = M.content_buffer([[a], []])[0][1:2], M.BufferLayout.cell_tokens([0], [0])
            grown.seq[0], grown.pos[0] = seq, pos
            with pytest.raises(ValueError, match=rf"row 0 \(sequence {seq}, position {pos}\)"):
                m.cell_step(new, grown, cond, cache)
            assert cache.held == held and np.array_equal(cache.table, table)
            m.cell_step(new, M.BufferLayout.cell_tokens([0], [0]), cond, cache)
            assert cache.held == held + 1

    def test_cell_isolation(self, model, img_feats):
        # equal-length edit in cell 0 leaves every cell-1 row bitwise unchanged
        a, b, x, y, c = content_ids("abxyc")
        cond = Tensor(np.random.default_rng(11).standard_normal((2, 16)))
        buf1, lay1 = M.content_buffer([[a, b], [c]])
        buf2, lay2 = M.content_buffer([[x, y], [c]])
        l1 = model.cell_step(buf1, lay1, cond, img_feats)
        l2 = model.cell_step(buf2, lay2, cond, img_feats)
        np.testing.assert_array_equal(l1.data[4], l2.data[4])  # c's row
        np.testing.assert_array_equal(l1.data[3], l2.data[3])  # cell 0's SEP island
        assert not np.array_equal(l1.data[1], l2.data[1])

    def test_conditioning_variants(self):
        m_full = M.TableModel(tiny_cfg())
        m_bbox = M.TableModel(tiny_cfg(variant="bbox"))
        refined = Tensor(np.random.default_rng(12).standard_normal((3, 16)))
        boxes = Tensor(np.random.default_rng(13).random((3, 4)))
        assert m_full.cell_conditioning(refined, boxes) is refined
        out = m_bbox.cell_conditioning(refined, boxes)
        np.testing.assert_array_equal(out.data, m_bbox.box_embed(boxes).data)


class TestVariantSurgery:
    """The ablation lattice is realized by weight surgery, not separate graphs."""

    def test_full_equals_through_with_inert_refiner(self):
        cfg = tiny_cfg(seed=21)
        m = M.TableModel(cfg)
        for i in range(cfg.refiner_blocks):
            m.params[f"refiner.block{i}.self.wo"].data[:] = 0.0
            m.params[f"refiner.block{i}.ffn.down.w"].data[:] = 0.0
            m.params[f"refiner.block{i}.ffn.down.b"].data[:] = 0.0
        feats = Tensor(np.random.default_rng(14).standard_normal((5, 16)))
        np.testing.assert_array_equal(m.refine(feats).data, feats.data)

    def test_bbox_equals_full_with_zero_feature_mix(self):
        m1 = M.TableModel(tiny_cfg(seed=22))
        m2 = M.TableModel(tiny_cfg(seed=22, variant="bbox"))
        for m in (m1, m2):
            m.params["cell.mix_feat.w"].data[:] = 0.0
        a, b = content_ids("ab")
        buf, lay = M.content_buffer([[a], [b]])
        img = m1.encode_image(np.zeros((32, 32)))
        rng = np.random.default_rng(15)
        refined = Tensor(rng.standard_normal((2, 16)))
        boxes = Tensor(rng.random((2, 4)))
        l1 = m1.cell_step(buf, lay, m1.cell_conditioning(refined, boxes), img)
        l2 = m2.cell_step(buf, lay, m2.cell_conditioning(refined, boxes), img)
        np.testing.assert_array_equal(l1.data, l2.data)


class TestWeightSharing:
    def test_single_registry_no_direction_copies(self, model):
        names = [name for name, _ in model.params.items()]
        assert len(names) == len(set(names))
        assert not any("rtol" in n or "ltor" in n for n in names)
        assert model.params["html.dir"] is model.dir_emb

    def test_direction_rows_both_trained(self, model, img_feats):
        # both structure students backprop into the shared tables
        model.params.zero_grad()
        ids = [V.STRUCTURE.sos] + structure_ids("<table><tr><td></td></tr></table>")
        ad.add(*(ad.mean(model.html_step(ids, direction, img_feats)[0])
                 for direction in ("ltor", "rtol"))).backward()
        g = model.dir_emb.grad
        assert g is not None
        assert np.any(g[0] != 0) and np.any(g[1] != 0)
        assert model.struct_emb.grad is not None
        model.params.zero_grad()

    def test_same_seed_same_init(self):
        m1 = M.TableModel(tiny_cfg(seed=7))
        m2 = M.TableModel(tiny_cfg(seed=7))
        m3 = M.TableModel(tiny_cfg(seed=8))
        for (n1, p1), (_, p2), (_, p3) in zip(m1.params.items(), m2.params.items(), m3.params.items()):
            np.testing.assert_array_equal(p1.data, p2.data, err_msg=n1)
        assert any(
            not np.array_equal(p1.data, p3.data)
            for (_, p1), (_, p3) in zip(m1.params.items(), m3.params.items())
        )


class TestEndToEnd:
    def test_teacher_forced_pipeline_shapes(self):
        cfg = tiny_cfg()
        m = M.TableModel(cfg)
        rec = synth.generate(synth.PRESETS["wide"], seed=42)
        img = synth.prepare_image(rec.image, cfg.image_side)
        feats = m.encode_image(img)

        body = list(rec.structure_ids)
        inp = [V.STRUCTURE.sos] + body
        logits, hidden = m.html_step(inp, "ltor", feats)
        assert logits.shape == (len(inp), len(V.STRUCTURE))

        token_hidden = ad.take_rows(hidden, np.arange(1, len(inp)))
        n = rec.n_cells()
        cells = m.fetch_cells(body, token_hidden)
        assert cells.shape == (n, cfg.d)
        refined = m.refine(cells)
        assert refined.shape == (n, cfg.d)
        boxes = m.bbox_head(refined)
        assert boxes.shape == (n, 4)

        buf, lay = M.content_buffer([content_ids(c) for c in rec.cells])
        cond = m.cell_conditioning(refined, boxes)
        cell_logits = m.cell_step(buf, lay, cond, feats)
        assert cell_logits.shape == (len(buf), len(V.CONTENT))


def tape_nodes(root: Tensor) -> int:
    seen, stack = {id(root)}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def fused_layer_outputs(model: M.TableModel, rec: synth.TableRecord) -> dict:
    """What the fused-layer comparison looks at: the sample_loss gradients,
    and html_step and cell_step outputs, uncached and cached, as arrays."""
    cfg = model.cfg
    model.params.zero_grad()
    total = sample_loss(model, rec).total
    nodes = tape_nodes(total)  # before the backward, which frees the tape
    total.backward()
    out = {f"grad {name}": p.grad for name, p in model.params.items() if p.grad is not None}
    out["tape nodes"] = nodes
    with ad.no_grad():
        feats = model.encode_image(synth.prepare_image(rec.image, cfg.image_side))
        ids = [V.STRUCTURE.sos] + list(rec.structure_ids)
        out["html"], out["hidden"] = (t.data for t in model.html_step(ids, "ltor", feats))
        cache = M.DecodeCache(feats)
        rows = []  # one new row per pass, as decoding does
        for k in range(1, len(ids) + 1):
            rows.append([t.data for t in model.html_step(ids[:k], "ltor", cache)])
        out["html cached"], out["hidden cached"] = (np.concatenate(r) for r in zip(*rows))

        cells = [content_ids(c) for c in rec.cells]
        cond = Tensor(np.random.default_rng(len(cells)).normal(size=(len(cells), cfg.d)))
        cache = M.DecodeCache(feats)
        rows = [model.cell_step(*M.content_buffer([[] for _ in cells]), cond, cache).data]
        for t in range(1, max(map(len, cells)) + 1):  # every cell grows by a token per pass
            new = grown_rows([c[:t] for c in cells], [min(len(c), t - 1) for c in cells])
            rows.append(model.cell_step(*new, cond, cache).data)
        out["cell cached"] = np.concatenate(rows)
        out["cell"] = model.cell_step(*M.content_buffer(cells), cond, feats).data
    return out


class TestFusedLayers:
    """The model on autodiff's fused layer ops against the same model on the
    composed references (linear, feed_forward, project_heads, layer_norm and
    conv2d set onto autodiff): bitwise equal everywhere, on a smaller tape."""

    def test_bitwise_equal_to_the_composed_model(self, composed_ops, monkeypatch):
        model = M.TableModel(M.ModelConfig())
        tables = [synth.generate(synth.PRESETS["wide"], seed=s) for s in range(10)]
        tables += [synth.generate(synth.PRESETS["dense"], seed=s) for s in range(5)]
        for i, rec in enumerate(tables):
            fused = fused_layer_outputs(model, rec)
            with monkeypatch.context() as mp:
                for name, fn in composed_ops.items():
                    mp.setattr(ad, name, fn)
                ref = fused_layer_outputs(model, rec)
            assert fused.pop("tape nodes") < ref.pop("tape nodes"), i
            assert fused.keys() == ref.keys(), i
            for key, want in ref.items():
                assert np.array_equal(fused[key], want), (i, key)
