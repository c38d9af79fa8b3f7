import numpy as np
import pytest

from references import swapaxes
from tabmark import autodiff as ad
from tabmark import layers as L


class TestPositionalCodes:
    def test_p0_is_0101(self):
        assert np.allclose(L.pos_encode_1d(0, 4), [0.0, 1.0, 0.0, 1.0])

    def test_values_bounded(self):
        codes = L.pos_encode_1d(np.arange(500), 32)
        assert np.all(codes <= 1.0) and np.all(codes >= -1.0)

    def test_injective_to_10000(self):
        codes = L.pos_encode_1d(np.arange(10001), 64)
        # distinct rows: compare lexicographically sorted neighbors
        order = np.lexsort(codes.T[::-1])
        diff = np.abs(np.diff(codes[order], axis=0)).max(axis=1)
        assert np.all(diff > 1e-9)

    def test_odd_d_rejected(self):
        with pytest.raises(ValueError):
            L.pos_encode_1d(3, 5)

    def test_2d_is_concatenation(self):
        d = 16
        code = L.pos_encode_2d(3, 7, d)
        assert np.allclose(code[: d // 2], L.pos_encode_1d(3, d // 2))
        assert np.allclose(code[d // 2 :], L.pos_encode_1d(7, d // 2))

    def test_2d_asymmetric_over_grid(self):
        d = 16
        for i in range(6):
            for j in range(6):
                if i != j:
                    assert not np.allclose(
                        L.pos_encode_2d(i, j, d), L.pos_encode_2d(j, i, d)
                    )

    def test_2d_symmetric_origin(self):
        d = 8
        assert np.allclose(
            L.pos_encode_2d(0, 0, d),
            np.concatenate([L.pos_encode_1d(0, d // 2)] * 2),
        )

    def test_2d_requires_multiple_of_4(self):
        with pytest.raises(ValueError):
            L.pos_encode_2d(1, 1, 6)


def ranks(seq) -> np.ndarray:
    """Each row's position: the number of earlier rows of its sequence."""
    seq = list(seq)
    return np.array([seq[:i].count(s) for i, s in enumerate(seq)], dtype=np.int64)


class TestMasks:
    def test_local_row2_window1(self):
        mask = L.build_local_mask(4, 1)
        assert list(np.where(mask[2] == 0.0)[0]) == [1, 2]

    def test_local_wide_window_is_causal(self):
        mask = L.build_local_mask(5, 10)
        expect = np.where(np.tril(np.ones((5, 5))) > 0, 0.0, ad.NEG_INF)
        assert np.array_equal(mask, expect)

    def test_local_is_the_row_rule_over_one_sequence(self):
        # the local mask skips the row rule's sequence and root terms, which
        # change nothing when every row is sequence 0
        for n in range(1, 61):
            for w in range(n + 2):
                want = L.build_cellwise_mask(np.zeros(n, dtype=np.int64), np.arange(n), w)
                got = L.build_local_mask(n, w)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (n, w)

    def test_cellwise_spec_example(self):
        # [SOS, t1, SEP1, t2, SEP2]; each SEP is a sequence of its own
        seq = [0, 1, 101, 2, 102]
        mask = L.build_cellwise_mask(seq, ranks(seq), w=300)
        t2 = 3
        assert list(np.where(mask[t2] == 0.0)[0]) == [0, 3]  # {SOS, t2}, not t1

    def test_cellwise_sos_carveout_beats_window(self):
        seq = [0] + [1] * 10
        mask = L.build_cellwise_mask(seq, ranks(seq), w=2)
        assert mask[10, 0] == 0.0  # SOS visible although i-j > w

    def test_cellwise_single_cell_equals_local_plus_sos(self):
        n = 7
        seq = [0] + [1] * (n - 1)
        cellwise = L.build_cellwise_mask(seq, ranks(seq), w=300)
        local = L.build_local_mask(n, 300)
        local[:, 0] = 0.0
        assert np.array_equal(cellwise, local)

    def test_cellwise_rejects_empty(self):
        with pytest.raises(ValueError):
            L.build_cellwise_mask([], [], 3)

    def test_every_row_has_an_unmasked_entry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            seq = [0] + list(rng.integers(0, 4, size=n - 1) + 1) if n > 1 else [0]
            mask = L.build_cellwise_mask(seq, ranks(seq), w=int(rng.integers(0, 5)))
            assert np.all(np.any(mask == 0.0, axis=1))


def make_attention(d=8, heads=2, seed=0):
    ps = L.ParamSet(np.random.default_rng(seed))
    return ps, L.MultiHeadAttention(ps, "attn", d, heads)


class TestAttention:
    def test_shape_contract(self):
        _, attn = make_attention()
        x = ad.Tensor(np.random.default_rng(1).normal(size=(5, 8)))
        y = ad.Tensor(np.random.default_rng(2).normal(size=(7, 8)))
        z = attn(x, y, np.zeros((5, 7)))
        assert z.shape == (5, 8)

    def test_no_mask_equals_zero_mask_bitwise(self):
        _, attn = make_attention()
        rng = np.random.default_rng(11)
        x = ad.Tensor(rng.normal(size=(5, 8)))
        y = ad.Tensor(rng.normal(size=(7, 8)))
        assert np.array_equal(attn(x, y, None).data, attn(x, y, np.zeros((5, 7))).data)

    def test_single_key_collapses_softmax(self):
        _, attn = make_attention()
        rng = np.random.default_rng(3)
        x = ad.Tensor(rng.normal(size=(4, 8)))
        y = ad.Tensor(rng.normal(size=(1, 8)))
        z = attn(x, y, np.zeros((4, 1)))
        v = y.data @ attn.wv.data
        expect = np.repeat(v, 4, axis=0) @ attn.wo.data
        assert np.allclose(z.data, expect, atol=1e-12)

    def test_equal_logits_average_values(self):
        ps = L.ParamSet(np.random.default_rng(4))
        attn = L.MultiHeadAttention(ps, "attn", 8, 2)
        attn.wq.data[:] = 0.0  # all scores 0 -> uniform weights
        rng = np.random.default_rng(5)
        x = ad.Tensor(rng.normal(size=(3, 8)))
        y = ad.Tensor(rng.normal(size=(6, 8)))
        z = attn(x, y, np.zeros((3, 6)))
        expect = np.repeat((y.data @ attn.wv.data).mean(axis=0, keepdims=True), 3, 0) @ attn.wo.data
        assert np.allclose(z.data, expect, atol=1e-10)

    def test_shape_mismatch_rejected(self):
        _, attn = make_attention()
        x = ad.Tensor(np.zeros((3, 8)))
        with pytest.raises(ValueError):
            attn(x, x, np.zeros((3, 4)))
        with pytest.raises(ValueError):
            attn(ad.Tensor(np.zeros((3, 6))), x, np.zeros((3, 3)))

    def test_indivisible_heads_rejected(self):
        ps = L.ParamSet(np.random.default_rng(0))
        with pytest.raises(ValueError):
            L.MultiHeadAttention(ps, "bad", 8, 3)

    def test_causal_truncation_invariance(self):
        # with a causal-local mask, Z at positions <= k ignores the suffix
        _, attn = make_attention(seed=7)
        rng = np.random.default_rng(8)
        x_full = rng.normal(size=(9, 8))
        mask = L.build_local_mask(9, 3)
        z_full = attn(ad.Tensor(x_full), ad.Tensor(x_full), mask).data
        k = 5
        z_trunc = attn(
            ad.Tensor(x_full[: k + 1]), ad.Tensor(x_full[: k + 1]), L.build_local_mask(k + 1, 3)
        ).data
        assert np.allclose(z_full[: k + 1], z_trunc, atol=1e-12)

    def test_cell_isolation_through_attention(self):
        _, attn = make_attention(seed=9)
        rng = np.random.default_rng(10)
        seq = [0, 1, 1, 8, 2, 2, 9, 3]
        mask = L.build_cellwise_mask(seq, ranks(seq), w=300)
        x1 = rng.normal(size=(8, 8))
        x2 = x1.copy()
        cell_b = [4, 5]  # replace all of cell 1
        x2[cell_b] = rng.normal(size=(2, 8))
        z1 = attn(ad.Tensor(x1), ad.Tensor(x1), mask).data
        z2 = attn(ad.Tensor(x2), ad.Tensor(x2), mask).data
        cell_a = [1, 2]
        assert np.allclose(z1[cell_a], z2[cell_a], atol=1e-12)
        assert np.allclose(z1[0], z2[0], atol=1e-12)  # SOS sees only itself


def split_heads(t, heads):
    # (n, d) -> (heads, n, d / heads)
    n, d = t.shape
    return swapaxes(ad.reshape(t, (n, heads, d // heads)), 0, 1)


def composed_attention(attn, x, y, mask):
    """The reference: MultiHeadAttention as seventeen primitive tape nodes."""
    n = x.shape[0]
    q = split_heads(ad.matmul(x, attn.wq), attn.heads)
    k = split_heads(ad.matmul(y, attn.wk), attn.heads)
    v = split_heads(ad.matmul(y, attn.wv), attn.heads)
    scores = ad.mul(ad.matmul(q, swapaxes(k, 1, 2)), 1.0 / np.sqrt(attn.dh))
    ctx = ad.matmul(ad.masked_softmax(scores, mask), v)  # (heads, n, dh)
    return ad.matmul(ad.reshape(swapaxes(ctx, 0, 1), (n, attn.d)), attn.wo)


class TestFusedAttention:
    """MultiHeadAttention (one autodiff.attention node) against the composed ops."""

    @pytest.mark.parametrize("cross", [False, True])
    @pytest.mark.parametrize("masked", [False, True])
    def test_equals_composed_reference(self, cross, masked):
        ps, attn = make_attention(d=16, heads=4, seed=14)
        rng = np.random.default_rng(15)
        for trial in range(5):
            n = int(rng.integers(2, 12))
            m = int(rng.integers(2, 12)) if cross else n
            x0, y0 = rng.normal(size=(n, 16)), rng.normal(size=(m, 16))
            mask = None
            if masked:
                seq = [0] + list(rng.integers(0, 3, size=m - 1) + 1)
                mask = (L.build_cellwise_mask(seq, ranks(seq), 2)[rng.integers(0, m, size=n)]
                        if cross else L.build_local_mask(n, 2))
            coef = rng.normal(size=(n, 16))
            runs = []
            for fn in (composed_attention, lambda a, x, y, mk: a(x, y, mk)):
                ps.zero_grad()
                x = ad.Tensor(x0, requires_grad=True)
                y = ad.Tensor(y0, requires_grad=True) if cross else x
                out = fn(attn, x, y, mask)
                ad.mean(ad.mul(out, coef)).backward()
                grads = [p.grad for _, p in ps.items()] + [x.grad] + ([y.grad] if cross else [])
                runs.append((out.data, grads))
            (ref_out, ref_grads), (out, grads) = runs
            assert np.array_equal(out, ref_out), trial
            for ref, got in zip(ref_grads, grads):
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), trial

    def test_grouped_mask_equals_block_diagonal_mask(self):
        # a (G, r, r) mask stack is the block-diagonal (G*r, G*r) mask: the same
        # outputs and gradients, without computing the off-diagonal blocks
        ps, attn = make_attention(d=16, heads=4, seed=17)
        rng = np.random.default_rng(18)
        for trial, (groups, rows) in enumerate([(2, 1), (2, 5), (3, 4), (2, 9)]):
            n = groups * rows
            x0, coef = rng.normal(size=(n, 16)), rng.normal(size=(n, 16))
            local = L.build_local_mask(rows, 2)
            block = L.build_cellwise_mask(  # sequences 1..G, no root
                np.repeat(np.arange(1, groups + 1), rows), np.tile(np.arange(rows), groups), 2
            )
            runs = []
            for mask in (block, np.broadcast_to(local, (groups, rows, rows))):
                ps.zero_grad()
                x = ad.Tensor(x0, requires_grad=True)
                out = attn(x, x, mask)
                ad.mean(ad.mul(out, coef)).backward()
                runs.append((out.data, [p.grad for _, p in ps.items()] + [x.grad]))
            (ref_out, ref_grads), (out, grads) = runs
            np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
            for ref, got in zip(ref_grads, grads):
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), trial

    def test_grouped_mask_must_fit(self):
        _, attn = make_attention()
        x = ad.Tensor(np.zeros((6, 8)))
        with pytest.raises(ValueError, match="does not fit"):
            attn(x, x, np.zeros((4, 2, 2)))  # 4 groups of 2 rows would need 8
        with pytest.raises(ValueError, match="does not fit"):
            attn(x, x, np.zeros((6, 5)))

    def test_one_tape_node_past_the_projections(self):
        _, attn = make_attention()
        x = ad.Tensor(np.random.default_rng(16).normal(size=(4, 8)), requires_grad=True)
        out = attn(x, x, L.build_local_mask(4, 1))
        assert out._parents[0] is x and out._parents[3:] == (attn.wq, attn.wo)


class TestBlocks:
    def test_zero_ffn_is_identity_plus_norm_path(self):
        ps = L.ParamSet(np.random.default_rng(0))
        ffn = L.FeedForward(ps, "ffn", 8, 4)
        ffn.down.w.data[:] = 0.0
        x = ad.Tensor(np.random.default_rng(1).normal(size=(5, 8)))
        out = ad.add(x, ffn(x))
        assert np.allclose(out.data, x.data)

    def test_block_preserves_shape(self):
        ps = L.ParamSet(np.random.default_rng(2))
        block = L.DecoderBlock(ps, "blk", 8, 2, 4, cross=True)
        for n in (1, 4, 11):
            x = ad.Tensor(np.random.default_rng(n).normal(size=(n, 8)))
            mem = ad.Tensor(np.random.default_rng(n + 1).normal(size=(6, 8)))
            out = block(x, L.build_local_mask(n, 300), mem)
            assert out.shape == (n, 8)

    def test_two_block_stack_gradcheck(self):
        """Analytic vs central-difference gradients for every parameter tensor
        of a 2-block, d=16, 2-head stack (double precision, step 1e-5)."""
        d, heads = 16, 2
        ps = L.ParamSet(np.random.default_rng(11))
        blocks = [L.DecoderBlock(ps, f"b{i}", d, heads, 2, cross=True) for i in range(2)]
        rng = np.random.default_rng(12)
        x0 = rng.normal(size=(5, d))
        mem0 = rng.normal(size=(4, d))
        mask = L.build_local_mask(5, 2)
        coef = rng.normal(size=(5, d))

        def loss_value() -> float:
            x = ad.Tensor(x0)
            for blk in blocks:
                x = blk(x, mask, ad.Tensor(mem0))
            return float(ad.mean(ad.mul(x, coef)).data)

        x = ad.Tensor(x0)
        for blk in blocks:
            x = blk(x, mask, ad.Tensor(mem0))
        ad.mean(ad.mul(x, coef)).backward()

        eps, worst = 1e-5, 0.0
        rng_probe = np.random.default_rng(13)
        for name, p in ps.items():
            assert p.grad is not None, name
            flat = p.data.ravel()
            gflat = p.grad.ravel()
            # probe a sample of elements per tensor; full FD is covered by trainer.gradcheck
            idxs = rng_probe.choice(flat.size, size=min(6, flat.size), replace=False)
            for i in idxs:
                old = flat[i]
                flat[i] = old + eps
                hi = loss_value()
                flat[i] = old - eps
                lo = loss_value()
                flat[i] = old
                num = (hi - lo) / (2 * eps)
                rel = abs(gflat[i] - num) / max(abs(gflat[i]), abs(num), 1e-3)
                worst = max(worst, rel)
        assert worst < 1e-4
