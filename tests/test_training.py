import json
import math
import os
import struct
import tracemalloc

import numpy as np
import pytest

from references import AdamW as ReferenceAdamW
from references import DistributionSeq, backward_keeping_graph, mutual_loss
from tabmark import autodiff as ad
from tabmark import checkpoint
from tabmark import layers as L
from tabmark import model as M
from tabmark import synth
from tabmark import training as T
from tabmark import vocab as V
from tabmark.autodiff import Tensor


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


MICRO_SPEC = synth.GenSpec(
    rows=(1, 1), cols=(2, 2), content_len=(1, 2), glyph_scale=2, image_side=32, margin=2
)


def micro_record(seed=5) -> synth.TableRecord:
    return synth.generate(MICRO_SPEC, seed)


def random_dist(rng, L, vocab) -> DistributionSeq:
    probs = T.softmax(rng.standard_normal((L, vocab)))
    targets = rng.integers(0, vocab, size=L)
    return DistributionSeq(probs, targets)


class TestRealign:
    def test_reverses_tokens_fixes_eos_slot(self):
        rows = np.arange(8.0).reshape(4, 2)
        out = T.realign(rows)
        np.testing.assert_array_equal(out[-1], rows[-1])
        np.testing.assert_array_equal(out[:-1], rows[:-1][::-1])

    def test_involution(self):
        rng = np.random.default_rng(0)
        rows = rng.random((7, 5))
        np.testing.assert_array_equal(T.realign(T.realign(rows)), rows)

    def test_aligns_targets_of_the_two_students(self):
        body = [4, 7, 9, 3]
        eos = V.STRUCTURE.eos
        tgt_lt = np.array(body + [eos])
        tgt_rt = np.array(body[::-1] + [eos])
        np.testing.assert_array_equal(T.realign(tgt_rt), tgt_lt)

    def test_degenerate_lengths(self):
        assert T.realign(np.zeros((0, 3))).shape == (0, 3)
        one = np.array([[0.2, 0.8]])
        np.testing.assert_array_equal(T.realign(one), one)


class TestDistributionSeq:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DistributionSeq(np.full((2, 3), 0.5), [0, 1])

    def test_target_range(self):
        with pytest.raises(ValueError, match="vocabulary"):
            DistributionSeq(np.full((1, 4), 0.25), [4])

    def test_length_pairing(self):
        with pytest.raises(ValueError):
            DistributionSeq(np.full((2, 4), 0.25), [0])


class TestMutualLoss:
    def test_consistent_students_have_zero_kl(self):
        rng = np.random.default_rng(1)
        q_lt = random_dist(rng, 6, 10)
        q_rt = DistributionSeq(T.realign(q_lt.probs), T.realign(q_lt.targets))
        rep = mutual_loss(q_lt, q_rt)
        assert rep.kl_ltor == pytest.approx(0.0, abs=1e-12)
        assert rep.kl_rtol == pytest.approx(0.0, abs=1e-12)
        assert rep.total == pytest.approx(rep.struct_ce_ltor + rep.struct_ce_rtol)

    def test_uniform_ce_is_log_vocab(self):
        vocab = 27
        uniform = DistributionSeq(np.full((5, vocab), 1.0 / vocab), [3] * 5)
        rep = mutual_loss(uniform, uniform)
        assert rep.struct_ce_ltor == pytest.approx(math.log(vocab), abs=1e-6)

    def test_kl_nonnegative_1000_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            L = int(rng.integers(1, 6))
            rep = mutual_loss(random_dist(rng, L, 8), random_dist(rng, L, 8))
            assert rep.kl_ltor >= 0.0
            assert rep.kl_rtol >= 0.0

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="same sample"):
            mutual_loss(random_dist(rng, 3, 8), random_dist(rng, 4, 8))

    def test_fused_path_matches_reference(self):
        m = M.TableModel(tiny_cfg())
        feats = m.encode_image(np.random.default_rng(4).random((32, 32)))
        body = list(V.tokenize_structure("<table><tr><td></td><td></td></tr></table>").ids)
        parts, _, refs = T.structure_mutual_loss(m, body, feats)

        sv = V.STRUCTURE
        logits_lt, _ = m.html_step([sv.sos] + body, "ltor", feats)
        logits_rt, _ = m.html_step([sv.sos] + body[::-1], "rtol", feats)
        ref = mutual_loss(
            DistributionSeq(T.softmax(logits_lt.data), body + [sv.eos]),
            DistributionSeq(T.softmax(logits_rt.data), body[::-1] + [sv.eos]),
        )
        assert float(parts["struct_ce_ltor"].data) == pytest.approx(ref.struct_ce_ltor, abs=1e-9)
        assert float(parts["struct_ce_rtol"].data) == pytest.approx(ref.struct_ce_rtol, abs=1e-9)
        assert float(parts["kl_ltor"].data) == pytest.approx(ref.kl_ltor, abs=1e-9)
        assert float(parts["kl_rtol"].data) == pytest.approx(ref.kl_rtol, abs=1e-9)
        # the KL references are plain constant arrays: nothing differentiates
        # through the other student's output
        assert type(refs[0]) is np.ndarray and type(refs[1]) is np.ndarray


def two_pass_structure_loss(model, body_ids, img_feats, kl_refs=None):
    """Reference for structure_mutual_loss: one html_step call per student."""
    body = list(body_ids)
    sv = V.STRUCTURE
    inp_lt = [sv.sos] + body
    rev = body[::-1]
    inp_rt = [sv.sos] + rev
    logits_lt, hidden_lt = model.html_step(inp_lt, "ltor", img_feats)
    logits_rt, _ = model.html_step(inp_rt, "rtol", img_feats)
    if kl_refs is None:
        kl_refs = (T.realign(T.softmax(logits_rt.data)), T.realign(T.softmax(logits_lt.data)))
    parts = {
        "struct_ce_ltor": ad.cross_entropy(logits_lt, body + [sv.eos]),
        "struct_ce_rtol": ad.cross_entropy(logits_rt, rev + [sv.eos]),
        "kl_ltor": ad.kl_to_const(kl_refs[0], logits_lt),
        "kl_rtol": ad.kl_to_const(kl_refs[1], logits_rt),
    }
    return parts, ad.take_rows(hidden_lt, np.arange(1, len(inp_lt))), kl_refs


STRUCT_PARTS = ("struct_ce_ltor", "struct_ce_rtol", "kl_ltor", "kl_rtol")


def grads(model) -> dict[str, np.ndarray]:
    return {k: p.grad.copy() for k, p in model.params.items() if p.grad is not None}


def assert_grads_close(got, want, rel=1e-12):
    assert set(got) == set(want)
    for name, g in want.items():
        scale = max(float(np.abs(g).max()), 1e-300)
        assert float(np.abs(got[name] - g).max()) <= rel * scale, name


def check_one_pass(model, body, feats):
    """The stacked pass and structure_mutual_loss against two_pass_structure_loss."""
    sv = V.STRUCTURE
    n = len(body) + 1
    logits, hidden = model.html_step([sv.sos] + body + [sv.sos] + body[::-1], "both", feats)
    for rows, inp, direction in (
        (slice(0, n), [sv.sos] + body, "ltor"),
        (slice(n, 2 * n), [sv.sos] + body[::-1], "rtol"),
    ):
        want_logits, want_hidden = model.html_step(inp, direction, feats)
        np.testing.assert_allclose(logits.data[rows], want_logits.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(hidden.data[rows], want_hidden.data, rtol=0, atol=1e-12)

    parts, token_hidden, refs = T.structure_mutual_loss(model, body, feats)
    want_parts, want_hidden, want_refs = two_pass_structure_loss(model, body, feats)
    for name in STRUCT_PARTS:
        got, want = float(parts[name].data), float(want_parts[name].data)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12), name
    np.testing.assert_allclose(token_hidden.data, want_hidden.data, rtol=0, atol=1e-12)
    for a, b in zip(refs, want_refs):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


class TestStudentsInOnePass:
    """structure_mutual_loss runs both students as one stacked html_step pass;
    two single-direction passes are the reference."""

    @pytest.fixture(scope="class")
    def model(self):
        return M.TableModel(M.ModelConfig())

    RECORDS = [("wide", (11, i)) for i in range(10)] + [("dense", (12, i)) for i in range(5)]

    @pytest.mark.parametrize("preset, seed", RECORDS)
    def test_matches_two_passes(self, model, preset, seed, monkeypatch):
        rec = synth.generate(synth.PRESETS[preset], seed)
        feats = model.encode_image(synth.prepare_image(rec.image, model.cfg.image_side))
        body = list(rec.structure_ids)
        check_one_pass(model, body, feats)

        model.params.zero_grad()
        fused = T.sample_loss(model, rec)
        fused.total.backward()
        got = grads(model)
        monkeypatch.setattr(T, "structure_mutual_loss", two_pass_structure_loss)
        model.params.zero_grad()
        ref = T.sample_loss(model, rec)
        ref.total.backward()
        want = grads(model)
        model.params.zero_grad()
        assert fused.report.total == pytest.approx(ref.report.total, rel=1e-12)
        assert_grads_close(got, want)

    def test_short_bodies(self, model):
        # a lone SOS per student, and a one-token body
        image = np.random.default_rng(6).random((128, 128))
        for body in ([], [V.STRUCTURE["<tr>"]]):
            check_one_pass(model, body, model.encode_image(image))
            total = {}
            for f in (T.structure_mutual_loss, two_pass_structure_loss):
                model.params.zero_grad()
                # one encoder tape per loss: a backward frees the tape it walks
                parts = f(model, body, model.encode_image(image))[0]
                ad.add(
                    ad.add(parts["struct_ce_ltor"], parts["struct_ce_rtol"]),
                    ad.add(parts["kl_ltor"], parts["kl_rtol"]),
                ).backward()
                total[f] = grads(model)
            model.params.zero_grad()
            assert_grads_close(total[T.structure_mutual_loss], total[two_pass_structure_loss])

    def test_memory_projected_once_per_block(self, model, monkeypatch):
        # one training sample projects each html block's image memory once
        calls = []
        project = L.MultiHeadAttention._project

        def counting(attn, y):
            calls.append(attn)
            return project(attn, y)

        monkeypatch.setattr(L.MultiHeadAttention, "_project", counting)
        T.sample_loss(model, synth.generate(synth.PRESETS["wide"], (11, 0)))
        for blk in model.html_blocks:
            assert calls.count(blk.cross_attn) == 1

class TestContentLoss:
    # sample_loss scores the content buffer with ad.cross_entropy directly: its
    # targets never hold PAD, which tokenize_content never emits
    def test_confident_correct_logits(self):
        targets = [6, 7, V.SEP_ID]
        logits = np.zeros((3, len(V.CONTENT)))
        logits[np.arange(3), targets] = 25.0
        assert float(ad.cross_entropy(Tensor(logits), targets).data) < 1e-9

    def test_uniform_is_log_vocab(self):
        loss = ad.cross_entropy(Tensor(np.zeros((4, len(V.CONTENT)))), [1, 2, 3, 4])
        assert float(loss.data) == pytest.approx(math.log(len(V.CONTENT)), abs=1e-9)

    def test_targets_hold_no_pad(self):
        assert V.CONTENT.pad not in V.tokenize_content("<pad>" + "".join(V.CONTENT.tokens)).ids
        for preset in ("wide", "dense"):
            rec = synth.generate(synth.PRESETS[preset], seed=(3, 0))
            buf, _ = M.content_buffer([list(V.tokenize_content(c).ids) for c in rec.cells])
            assert V.CONTENT.pad not in buf[1:] + [V.CONTENT.eos]


class TestBboxLoss:
    def test_exact_is_zero(self):
        truth = np.array([[0.2, 0.3, 0.2, 0.2]])
        assert float(T.bbox_loss(Tensor(truth.copy()), truth).data) == 0.0

    def test_uniform_offset(self):
        truth = np.full((3, 4), 0.5)
        pred = Tensor(truth + 0.1)
        assert float(T.bbox_loss(pred, truth).data) == pytest.approx(0.1)

    def test_empty_table(self):
        assert float(T.bbox_loss(Tensor(np.zeros((0, 4))), np.zeros((0, 4))).data) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            T.bbox_loss(Tensor(np.zeros((2, 4))), np.zeros((3, 4)))


class TestSampleLoss:
    def test_finite_at_random_init(self):
        m = M.TableModel(tiny_cfg())
        out = T.sample_loss(m, micro_record())
        for name in T.REPORT_FIELDS:
            v = getattr(out.report, name)
            assert math.isfinite(v), name
            assert v >= 0.0

    def test_total_is_weighted_sum(self):
        m = M.TableModel(tiny_cfg())
        w = T.LossWeights(struct_ce=0.5, kl=2.0, content_ce=3.0, bbox=0.25)
        r = T.sample_loss(m, micro_record(), w).report
        expected = (
            0.5 * (r.struct_ce_ltor + r.struct_ce_rtol)
            + 2.0 * (r.kl_ltor + r.kl_rtol)
            + 3.0 * r.content_ce
            + 0.25 * r.bbox
        )
        assert r.total == pytest.approx(expected, rel=1e-12)

    def test_total_dominates_components_at_unit_weights(self):
        m = M.TableModel(tiny_cfg())
        r = T.sample_loss(m, micro_record()).report
        for name in T.REPORT_FIELDS[:-1]:
            assert r.total >= getattr(r, name)

    def test_report_rejects_negative_component(self):
        with pytest.raises(ValueError, match="negative"):
            T.LossReport(-0.5, 0, 0, 0, 0, 0, 0)


class TestAdamW:
    def make(self, lr, wd=0.01):
        m = M.TableModel(tiny_cfg())
        return m, T.AdamW(m.params, lr=lr, weight_decay=wd)

    def seed_grads(self, m):
        rng = np.random.default_rng(6)
        for _, p in m.params.items():
            p.grad = rng.standard_normal(p.data.shape)

    def test_zero_lr_is_bitwise_noop(self):
        m, opt = self.make(lr=0.0)
        self.seed_grads(m)
        before = {n: p.data.copy() for n, p in m.params.items()}
        opt.step()
        for n, p in m.params.items():
            np.testing.assert_array_equal(p.data, before[n], err_msg=n)

    def test_step_moves_weights(self):
        m, opt = self.make(lr=1e-3)
        self.seed_grads(m)
        before = {n: p.data.copy() for n, p in m.params.items()}
        opt.step()
        assert any(not np.array_equal(p.data, before[n]) for n, p in m.params.items())

    def test_none_grads_skipped(self):
        m, opt = self.make(lr=1e-3)
        keep = m.params["bbox.embed.w"].data.copy()
        self.seed_grads(m)
        m.params["bbox.embed.w"].grad = None
        opt.step()
        np.testing.assert_array_equal(m.params["bbox.embed.w"].data, keep)

    def test_decay_is_decoupled(self):
        # zero gradient: the only movement is the multiplicative decay
        m, opt = self.make(lr=0.1, wd=0.5)
        w = m.params["html.emb"]
        before = w.data.copy()
        for _, p in m.params.items():
            p.grad = np.zeros_like(p.data)
        opt.step()
        np.testing.assert_allclose(w.data, before * (1.0 - 0.1 * 0.5), rtol=1e-12)

    def test_in_place_step_equals_reference(self):
        # 20 steps over three shapes, with a zero-lr stretch and a parameter
        # whose gradient is missing on some steps
        rng = np.random.default_rng(11)
        shapes = {"a": (7,), "b": (16, 9), "c": (3, 3, 4, 5)}
        weights = {n: rng.standard_normal(s) for n, s in shapes.items()}
        store = {}
        for side, cls in (("got", T.AdamW), ("want", ReferenceAdamW)):
            params = {n: ad.Tensor(w.copy(), requires_grad=True) for n, w in weights.items()}
            store[side] = params, cls(params, lr=1e-2, weight_decay=0.05)
        for step in range(20):
            grads = {n: rng.standard_normal(s) * 10.0 ** rng.integers(-4, 3)
                     for n, s in shapes.items()}
            for params, opt in store.values():
                opt.lr = 0.0 if 5 <= step < 8 else 1e-2 / (1 + step)
                for n, p in params.items():
                    p.grad = None if n == "c" and step % 3 == 0 else grads[n].copy()
                opt.step()
            (got, got_opt), (want, want_opt) = store["got"], store["want"]
            for n in shapes:
                assert got[n].data.tobytes() == want[n].data.tobytes(), (step, n)
                assert got_opt._m[n].tobytes() == want_opt._m[n].tobytes(), (step, n)
                assert got_opt._v[n].tobytes() == want_opt._v[n].tobytes(), (step, n)


class TestLrSchedule:
    def test_default_thirty_epochs(self):
        lrs = T.lr_schedule(30)
        assert lrs == [1e-3] * 25 + [1e-4] * 3 + [1e-5] * 2

    def test_rescaled_budget(self):
        lrs = T.lr_schedule(60)
        assert lrs == [1e-3] * 50 + [1e-4] * 6 + [1e-5] * 4

    def test_tiny_budget(self):
        assert T.lr_schedule(1) == [1e-3]

    def test_rejects_zero_epochs(self):
        with pytest.raises(ValueError):
            T.lr_schedule(0)


class TestTrain:
    def corpus(self, n=4):
        return [micro_record(seed=i) for i in range(n)]

    def test_metrics_rows(self):
        m = M.TableModel(tiny_cfg())
        tcfg = T.TrainConfig(epochs=2, batch_size=2, seed=1)
        rows = T.train(m, self.corpus(), tcfg)
        assert len(rows) == 2
        for row in rows:
            assert set(row) == {"epoch", "lr"} | set(T.REPORT_FIELDS)
            assert all(math.isfinite(v) for v in row.values())
        assert rows[0]["lr"] == 1e-3

    def test_accepts_id_record_pairs(self):
        m = M.TableModel(tiny_cfg())
        pairs = [(f"t{i}", r) for i, r in enumerate(self.corpus(2))]
        rows = T.train(m, pairs, T.TrainConfig(epochs=1, batch_size=2))
        assert len(rows) == 1

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            T.train(M.TableModel(tiny_cfg()), [], T.TrainConfig(epochs=1))

    def test_loss_decreases_on_overfit_snippet(self):
        m = M.TableModel(tiny_cfg())
        rows = T.train(m, self.corpus(2), T.TrainConfig(epochs=8, batch_size=2, seed=2))
        assert rows[-1]["total"] < rows[0]["total"]

    def test_deterministic_given_seeds(self):
        rows = []
        finals = []
        for _ in range(2):
            m = M.TableModel(tiny_cfg(seed=11))
            rows.append(T.train(m, self.corpus(3), T.TrainConfig(epochs=2, seed=7)))
            finals.append({n: p.data.copy() for n, p in m.params.items()})
        assert rows[0] == rows[1]
        for n in finals[0]:
            np.testing.assert_array_equal(finals[0][n], finals[1][n], err_msg=n)

    def test_out_dir_artifacts(self, tmp_path):
        m = M.TableModel(tiny_cfg())
        rows = T.train(m, self.corpus(2), T.TrainConfig(epochs=2, batch_size=2), str(tmp_path))
        lines = [
            json.loads(s) for s in (tmp_path / "metrics.jsonl").read_text().splitlines()
        ]
        assert lines == [json.loads(json.dumps(r, sort_keys=True)) for r in rows]
        assert "time" not in json.dumps(lines)
        loaded = checkpoint.load(os.path.join(tmp_path, "model.ckpt"))
        assert loaded.cfg == m.cfg
        for (n, p), (_, q) in zip(m.params.items(), loaded.params.items()):
            np.testing.assert_array_equal(p.data, q.data, err_msg=n)

    def test_nan_aborts_with_diagnostic(self):
        m = M.TableModel(tiny_cfg())
        m.params["html.mix_tok.w"].data[0, 0] = np.nan
        with pytest.raises(T.TrainingDiverged, match="epoch 0"):
            T.train(m, self.corpus(1), T.TrainConfig(epochs=1, batch_size=1))


class TestFreedTape:
    """backward frees the tape it walks, so train() holds one sample's tape at
    a time, with the same parameters as a walk that keeps the graph."""

    def test_minibatch_equals_keep_the_graph_walk(self, monkeypatch):
        tables = [synth.generate(synth.PRESETS["wide"], (13, i)) for i in range(3)]
        tables += [synth.generate(synth.PRESETS["dense"], (13, i)) for i in range(2)]
        tcfg = T.TrainConfig(epochs=1, batch_size=len(tables))
        runs = []
        for walk in (Tensor.backward, backward_keeping_graph):
            monkeypatch.setattr(Tensor, "backward", walk)
            m = M.TableModel(M.ModelConfig())
            rows = T.train(m, tables, tcfg)
            runs.append((rows, {n: p.data.tobytes() for n, p in m.params.items()}))
        (rows, params), (want_rows, want_params) = runs
        assert rows == want_rows
        assert params.keys() == want_params.keys()
        for name, want in want_params.items():
            assert params[name] == want, name

    def test_minibatch_peak_is_one_sample_tape(self):
        # a minibatch of 8 holds the gradients between samples, and nothing of
        # an earlier sample's tape, so its peak stays that of a one-sample run
        rec = synth.generate(synth.PRESETS["wide"], (13, 0))
        peaks = {}
        for batch_size in (1, 8):
            m = M.TableModel(M.ModelConfig())
            tcfg = T.TrainConfig(epochs=1, batch_size=batch_size)
            tracemalloc.start()
            try:
                T.train(m, [rec] * batch_size, tcfg)
                peaks[batch_size] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        param_bytes = sum(p.data.nbytes for _, p in m.params.items())
        assert peaks[8] - peaks[1] <= param_bytes + 2**20, (peaks, param_bytes)


class TestCheckpointErrors:
    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            checkpoint.load(str(p))

    def test_truncation(self, tmp_path):
        m = M.TableModel(tiny_cfg())
        p = tmp_path / "m.ckpt"
        checkpoint.save(str(p), m)
        raw = p.read_bytes()
        p.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(ValueError, match="truncated"):
            checkpoint.load(str(p))

    def test_trailing_bytes(self, tmp_path):
        m = M.TableModel(tiny_cfg())
        p = tmp_path / "m.ckpt"
        checkpoint.save(str(p), m)
        p.write_bytes(p.read_bytes() + b"x")
        with pytest.raises(ValueError, match="trailing"):
            checkpoint.load(str(p))

    def test_roundtrip_exact(self, tmp_path):
        m = M.TableModel(tiny_cfg(variant="bbox"))
        p = tmp_path / "m.ckpt"
        checkpoint.save(str(p), m)
        again = checkpoint.load(str(p))
        assert again.cfg == m.cfg
        for (n, a), (_, b) in zip(m.params.items(), again.params.items()):
            np.testing.assert_array_equal(a.data, b.data, err_msg=n)
        assert all(b.data.flags.writeable for _, b in again.params.items())

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["html.out.b", "bbox.out.b"])
    def test_non_finite_weight_names_file_and_tensor(self, tmp_path, name, value):
        m = M.TableModel(tiny_cfg())
        m.params[name].data[0] = value
        p = tmp_path / "m.ckpt"
        checkpoint.save(str(p), m)
        with pytest.raises(ValueError, match=f"^{p}: tensor '{name}' holds a non-finite value$"):
            checkpoint.load(str(p))

    @staticmethod
    def header(cfg, tensors) -> bytes:
        """A checkpoint up to the data of its last tensor: (name, shape) pairs,
        every tensor but the last followed by its zero-filled data."""
        text = cfg.to_text().encode("utf-8")
        out = checkpoint.MAGIC + struct.pack("<I", len(text)) + text
        out += struct.pack("<I", len(tensors))
        for i, (name, shape) in enumerate(tensors):
            raw = name.encode("utf-8")
            out += struct.pack("<I", len(raw)) + raw
            out += struct.pack(f"<I{len(shape)}I", len(shape), *shape)
            if i < len(tensors) - 1:
                out += bytes(8 * int(np.prod(shape)))
        return out

    @pytest.mark.parametrize(
        "tensors, match",
        [
            # 2 MB declared for a (3, 3, 1, 4) kernel
            ([("enc.conv1.w", (512, 512))], r"'enc.conv1.w' has shape \(512, 512\)"),
            ([("enc.bogus", (512, 512))], "unknown tensor 'enc.bogus'"),
            ([("enc.conv1.b", (4,)), ("enc.conv1.b", (64, 64))], "duplicate tensor 'enc.conv1.b'"),
        ],
        ids=["oversized", "unknown", "duplicate"],
    )
    def test_header_checked_before_data_is_read(self, tmp_path, tensors, match):
        cfg = tiny_cfg()
        p = tmp_path / "crafted.ckpt"
        p.write_bytes(self.header(cfg, tensors))  # the declared data is absent
        with pytest.raises(ValueError, match=match):
            checkpoint.load(str(p))


class TestGradcheck:
    def test_full_model_elementwise(self):
        cfg = tiny_cfg(d=8, heads=2, enc_channels=(2, 3, 4), ffn_mult=2, seed=9)
        m = M.TableModel(cfg)
        err = T.gradcheck(m, micro_record(seed=3))
        assert err < 1e-4, f"max relative gradient error {err}"
