import numpy as np
import pytest

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


class TestMasks:
    def test_local_row2_window1(self):
        mask = L.build_local_mask(4, 1)
        assert list(np.where(mask[2] == 0.0)[0]) == [1, 2]

    def test_local_wide_window_is_causal(self):
        mask = L.build_local_mask(5, 10)
        expect = np.where(np.tril(np.ones((5, 5))) > 0, 0.0, ad.NEG_INF)
        assert np.array_equal(mask, expect)

    def test_cellwise_spec_example(self):
        # [SOS, t1, SEP1, t2, SEP2]; SEPs carry unique pseudo-cell ids
        layout = [L.SOS_CELL, 0, 100, 1, 101]
        mask = L.build_cellwise_mask(layout, w=300)
        t2 = 3
        assert list(np.where(mask[t2] == 0.0)[0]) == [0, 3]  # {SOS, t2}, not t1

    def test_cellwise_sos_carveout_beats_window(self):
        layout = [L.SOS_CELL] + [0] * 10
        mask = L.build_cellwise_mask(layout, w=2)
        assert mask[10, 0] == 0.0  # SOS visible although i-j > w

    def test_cellwise_single_cell_equals_local_plus_sos(self):
        n = 7
        layout = [L.SOS_CELL] + [0] * (n - 1)
        cellwise = L.build_cellwise_mask(layout, w=300)
        local = L.build_local_mask(n, 300)
        local[:, 0] = 0.0
        assert np.array_equal(cellwise, local)

    def test_cellwise_rejects_empty(self):
        with pytest.raises(ValueError):
            L.build_cellwise_mask([], 3)

    def test_every_row_has_an_unmasked_entry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            layout = [L.SOS_CELL] + list(rng.integers(0, 4, size=n - 1)) if n > 1 else [L.SOS_CELL]
            mask = L.build_cellwise_mask(layout, w=int(rng.integers(0, 5)))
            assert np.all(np.any(mask == 0.0, axis=1))


def make_attention(d=8, heads=2, seed=0):
    ps = L.ParamSet(np.random.default_rng(seed))
    return ps, L.MultiHeadAttention(ps, "attn", d, heads)


class TestAttention:
    def test_shape_contract(self):
        _, attn = make_attention()
        x = ad.Tensor(np.random.default_rng(1).normal(size=(5, 8)))
        y = ad.Tensor(np.random.default_rng(2).normal(size=(7, 8)))
        z = attn(x, y, L.zero_mask(5, 7))
        assert z.shape == (5, 8)

    def test_no_mask_equals_zero_mask_bitwise(self):
        _, attn = make_attention()
        rng = np.random.default_rng(11)
        x = ad.Tensor(rng.normal(size=(5, 8)))
        y = ad.Tensor(rng.normal(size=(7, 8)))
        assert np.array_equal(attn(x, y, None).data, attn(x, y, L.zero_mask(5, 7)).data)

    def test_single_key_collapses_softmax(self):
        _, attn = make_attention()
        rng = np.random.default_rng(3)
        x = ad.Tensor(rng.normal(size=(4, 8)))
        y = ad.Tensor(rng.normal(size=(1, 8)))
        z = attn(x, y, L.zero_mask(4, 1))
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
        z = attn(x, y, L.zero_mask(3, 6))
        expect = np.repeat((y.data @ attn.wv.data).mean(axis=0, keepdims=True), 3, 0) @ attn.wo.data
        assert np.allclose(z.data, expect, atol=1e-10)

    def test_shape_mismatch_rejected(self):
        _, attn = make_attention()
        x = ad.Tensor(np.zeros((3, 8)))
        with pytest.raises(ValueError):
            attn(x, x, L.zero_mask(3, 4))
        with pytest.raises(ValueError):
            attn(ad.Tensor(np.zeros((3, 6))), x, L.zero_mask(3, 3))

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
        layout = [L.SOS_CELL, 0, 0, 7, 1, 1, 8, 2]
        mask = L.build_cellwise_mask(layout, w=300)
        x1 = rng.normal(size=(8, 8))
        x2 = x1.copy()
        cell_b = [4, 5]  # replace all of cell 1
        x2[cell_b] = rng.normal(size=(2, 8))
        z1 = attn(ad.Tensor(x1), ad.Tensor(x1), mask).data
        z2 = attn(ad.Tensor(x2), ad.Tensor(x2), mask).data
        cell_a = [1, 2]
        assert np.allclose(z1[cell_a], z2[cell_a], atol=1e-12)
        assert np.allclose(z1[0], z2[0], atol=1e-12)  # SOS sees only itself


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
