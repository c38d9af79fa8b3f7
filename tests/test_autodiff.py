"""Finite-difference verification of every autodiff primitive."""

import weakref

import numpy as np
import pytest

from references import relu, swapaxes
from tabmark import autodiff as ad


def fd_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar f at x."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        hi = f(x)
        flat[i] = old - eps
        lo = f(x)
        flat[i] = old
        gf[i] = (hi - lo) / (2 * eps)
    return g


def check_op(build, *shapes, seed=0, tol=1e-7):
    """Compare analytic grads of scalar build(*tensors) against FD for each input."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) for s in shapes]
    tensors = [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*tensors)
    out.backward()
    for i, (arr, ten) in enumerate(zip(arrays, tensors)):
        def f(_x, i=i):
            vals = [a.copy() for a in arrays]
            vals[i] = _x
            return float(build(*[ad.Tensor(v) for v in vals]).data)

        numeric = fd_grad(f, arr.copy())
        analytic = ten.grad
        assert analytic is not None, f"input {i} got no gradient"
        denom = max(np.abs(numeric).max(), np.abs(analytic).max(), 1e-8)
        assert np.abs(analytic - numeric).max() / denom < tol, f"input {i} mismatch"


class TestPrimitives:
    def test_add_broadcast(self):
        check_op(lambda a, b: ad.mean(ad.add(a, b)), (4, 3), (3,))

    def test_mul_broadcast(self):
        check_op(lambda a, b: ad.mean(ad.mul(a, b)), (4, 3), (4, 1))

    def test_matmul_2d(self):
        check_op(lambda a, b: ad.mean(ad.matmul(a, b)), (4, 3), (3, 5))

    def test_matmul_batched(self):
        check_op(lambda a, b: ad.mean(ad.matmul(a, b)), (2, 4, 3), (2, 3, 5))

    def test_relu(self):
        check_op(lambda a: ad.mean(relu(a)), (5, 4), seed=3)

    def test_sigmoid(self):
        check_op(lambda a: ad.mean(ad.sigmoid(a)), (5, 4))

    def test_abs(self):
        check_op(lambda a: ad.mean(ad.absolute(a)), (5, 4), seed=1)

    def test_reshape_swapaxes(self):
        check_op(lambda a: ad.mean(swapaxes(ad.reshape(a, (2, 3, 4)), 0, 2)), (6, 4))

    def test_take_rows_with_duplicates(self):
        idx = [0, 2, 2, 1]
        check_op(lambda a: ad.mean(ad.take_rows(a, idx)), (4, 3))

    def test_concat_rows(self):
        check_op(lambda a, b: ad.mean(ad.concat_rows([a, b])), (2, 3), (4, 3))


class TestFusedOps:
    def test_masked_softmax_grad(self):
        mask = np.zeros((4, 4))
        mask[np.triu_indices(4, 1)] = ad.NEG_INF
        coef = np.random.default_rng(9).normal(size=(4, 4))
        check_op(lambda s: ad.mean(ad.mul(ad.masked_softmax(s, mask), coef)), (4, 4))

    def test_masked_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        mask = np.where(rng.random((6, 6)) < 0.4, ad.NEG_INF, 0.0)
        mask[:, 0] = 0.0  # keep every row feasible
        p = ad.masked_softmax(ad.Tensor(rng.normal(size=(6, 6))), mask)
        assert np.allclose(p.data.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(p.data[mask == ad.NEG_INF] == 0.0)

    def test_masked_softmax_rejects_dead_row(self):
        mask = np.full((2, 2), ad.NEG_INF)
        mask[0, 0] = 0.0
        with pytest.raises(ValueError):
            ad.masked_softmax(ad.Tensor(np.zeros((2, 2))), mask)

    def test_masked_value_rows_contribute_zero(self):
        # perturb a masked value row: output bitwise unchanged
        rng = np.random.default_rng(5)
        scores = rng.normal(size=(3, 4))
        values = rng.normal(size=(4, 2))
        mask = np.zeros((3, 4))
        mask[:, 3] = ad.NEG_INF
        out1 = ad.matmul(ad.masked_softmax(ad.Tensor(scores), mask), ad.Tensor(values)).data
        values2 = values.copy()
        values2[3] += 1000.0
        out2 = ad.matmul(ad.masked_softmax(ad.Tensor(scores), mask), ad.Tensor(values2)).data
        assert np.array_equal(out1, out2)

    def test_layer_norm_grad(self):
        check_op(
            lambda x, g, b: ad.mean(ad.mul(ad.layer_norm(x, g, b), 1.3)),
            (5, 8),
            (8,),
            (8,),
            tol=1e-6,
        )

    def test_layer_norm_statistics(self):
        rng = np.random.default_rng(1)
        x = ad.Tensor(rng.normal(size=(7, 16)) * 3 + 2)
        y = ad.layer_norm(x, ad.Tensor(np.ones(16)), ad.Tensor(np.zeros(16)))
        assert np.allclose(y.data.mean(axis=-1), 0.0, atol=1e-9)
        assert np.allclose(y.data.std(axis=-1), 1.0, atol=1e-3)

    def test_cross_entropy_grad(self):
        targets = [1, 0, 3]
        check_op(lambda z: ad.cross_entropy(z, targets), (3, 4))

    def test_cross_entropy_uniform_equals_log_v(self):
        v = 46
        loss = ad.cross_entropy(ad.Tensor(np.zeros((5, v))), [0, 1, 2, 3, 4])
        assert abs(float(loss.data) - np.log(v)) < 1e-12

    def test_kl_grad(self):
        rng = np.random.default_rng(2)
        ref = rng.random((3, 5))
        ref /= ref.sum(axis=-1, keepdims=True)
        check_op(lambda z: ad.kl_to_const(ref, z), (3, 5))

    def test_kl_zero_when_equal(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(4, 6))
        p = np.exp(z - z.max(axis=-1, keepdims=True))
        p /= p.sum(axis=-1, keepdims=True)
        assert abs(float(ad.kl_to_const(p, ad.Tensor(z)).data)) < 1e-12

    def test_kl_handles_zero_reference_entries(self):
        ref = np.array([[0.0, 1.0, 0.0]])
        val = ad.kl_to_const(ref, ad.Tensor(np.zeros((1, 3))))
        assert np.isfinite(float(val.data))

    def test_conv2d_grad(self):
        check_op(
            lambda x, w, b: ad.mean(ad.conv2d(x, w, b, stride=2, pad=1)),
            (6, 6, 2),
            (3, 3, 2, 4),
            (4,),
            tol=1e-6,
        )

    def test_conv2d_skips_input_gradient_of_an_image(self):
        rng = np.random.default_rng(4)
        img, w0, b0 = rng.normal(size=(6, 6, 1)), rng.normal(size=(3, 3, 1, 4)), rng.normal(size=4)
        grads = []
        for x_grad in (True, False):
            x = ad.Tensor(img, requires_grad=x_grad)
            w, b = ad.Tensor(w0, requires_grad=True), ad.Tensor(b0, requires_grad=True)
            out = ad.conv2d(x, w, b)
            gx, _, _ = out._backward(np.ones_like(out.data))
            assert (gx is None) == (not x_grad)
            ad.mean(out).backward()
            grads.append((w.grad, b.grad))
        assert np.array_equal(grads[0][0], grads[1][0])
        assert np.array_equal(grads[0][1], grads[1][1])

    def test_conv2d_shape(self):
        x = ad.Tensor(np.zeros((128, 128, 1)))
        w = ad.Tensor(np.zeros((3, 3, 1, 8)))
        out = ad.conv2d(x, w, ad.Tensor(np.zeros(8)))
        assert out.shape == (64, 64, 8)


class TestFusedLayerOps:
    """linear, feed_forward, project_heads, conv2d and layer_norm against
    finite differences and against their composed references."""

    # op name -> (input shapes, extra positional arguments, output weight shape)
    CASES = {
        "linear": (((4, 3), (3, 5), (5,)), (), (4, 5)),
        "feed_forward": (((4, 3), (3, 6), (6,), (6, 3), (3,)), (), (4, 3)),
        "project_heads": (((5, 4), (4, 4)), (2,), (2, 5, 2)),
        "conv2d": (((7, 7, 2), (3, 3, 2, 4), (4,)), (), (4, 4, 4)),
        "layer_norm": (((5, 8), (8,), (8,)), (), (5, 8)),
    }

    def loss(self, fn, extra, coef):
        return lambda *ts: ad.mean(ad.mul(fn(*ts, *extra), coef))

    @pytest.mark.parametrize("name", list(CASES))
    def test_grad(self, name):
        shapes, extra, out_shape = self.CASES[name]
        coef = np.random.default_rng(20).normal(size=out_shape)
        check_op(self.loss(getattr(ad, name), extra, coef), *shapes, seed=21, tol=1e-6)

    @pytest.mark.parametrize("name", list(CASES))
    def test_equals_composed_reference(self, name, composed_ops):
        shapes, extra, out_shape = self.CASES[name]
        rng = np.random.default_rng(22)
        for trial in range(5):
            arrays = [rng.normal(size=s) for s in shapes]
            coef = rng.normal(size=out_shape)
            runs = []
            for fn in (composed_ops[name], getattr(ad, name)):
                ins = [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
                out = fn(*ins, *extra)
                ad.mean(ad.mul(out, coef)).backward()
                runs.append((out.data, [t.grad for t in ins]))
            (ref_out, ref_grads), (out, grads) = runs
            assert np.array_equal(out, ref_out), trial
            for ref, got in zip(ref_grads, grads):
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), trial

    @pytest.mark.parametrize("name", list(CASES))
    def test_one_tape_node(self, name):
        shapes, extra, _ = self.CASES[name]
        rng = np.random.default_rng(23)
        ins = [ad.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        out = getattr(ad, name)(*ins, *extra)
        assert out._parents == tuple(ins)

    def test_conv2d_includes_the_relu(self):
        rng = np.random.default_rng(24)
        x, w, b = rng.normal(size=(6, 6, 2)), rng.normal(size=(3, 3, 2, 5)), rng.normal(size=5)
        out = ad.conv2d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b)).data
        assert out.min() == 0.0 and np.any(out > 0.0)


def bits(a: np.ndarray) -> np.ndarray:
    """The raw bits of a float64 array: equal bits mean equal values and signs,
    NaN included."""
    return np.ascontiguousarray(a).view(np.uint64)


def special_values(rng, shape) -> np.ndarray:
    """Normal values with NaN, +-inf, -0.0 and 0.0 scattered through them."""
    a = rng.normal(size=shape)
    flat = a.reshape(-1)
    at = rng.permutation(flat.size)[: max(5, flat.size // 4)]
    flat[at] = np.resize([np.nan, np.inf, -np.inf, -0.0, 0.0], at.size)
    return a


class TestFastPaths:
    """The fast forms of the fused ops against their references, bit for bit:
    the in-place fmax ReLU, the one-row layer_norm and the strided conv2d."""

    def test_relu_keeps_the_bits_of_np_where(self):
        # every size to 70 puts a special value in each SIMD lane and in the
        # scalar tail, where fmax alone can keep -0.0
        rng = np.random.default_rng(30)
        for size in range(1, 71):
            for x in (special_values(rng, size), np.full(size, -0.0)):
                want = relu(ad.Tensor(x)).data
                assert np.array_equal(bits(ad._relu_(x.copy())), bits(want)), size

    @pytest.mark.parametrize("name", ["feed_forward", "conv2d"])
    def test_special_values_equal_composed_reference(self, name, composed_ops):
        shapes, extra, _ = TestFusedLayerOps.CASES[name]
        rng = np.random.default_rng(31)
        for trial in range(10):
            arrays = [special_values(rng, s) for s in shapes[:1]]
            arrays += [rng.normal(size=s) for s in shapes[1:]]
            for a in arrays[1:]:
                a.reshape(-1)[:2] = -0.0  # -0.0 weights and biases
            with np.errstate(invalid="ignore"):
                want = composed_ops[name](*arrays, *extra).data
                got = getattr(ad, name)(*arrays, *extra).data
            assert np.array_equal(bits(got), bits(want)), trial

    @pytest.mark.parametrize("shape", [(5, 5, 1), (7, 9, 3), (8, 6, 2), (1, 1, 2), (11, 4, 1)])
    @pytest.mark.parametrize("stride, pad", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
    def test_conv2d_sizes_strides_and_pads(self, shape, stride, pad, composed_ops):
        rng = np.random.default_rng(32)
        k = 3 if min(shape[:2]) + 2 * pad >= 3 else 1
        arrays = [rng.normal(size=shape), rng.normal(size=(k, k, shape[2], 4)), rng.normal(size=4)]
        runs = []
        for fn in (composed_ops["conv2d"], ad.conv2d):
            ins = [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
            out = fn(*ins, stride=stride, pad=pad)
            coef = np.random.default_rng(33).normal(size=out.shape)
            ad.mean(ad.mul(out, coef)).backward()
            runs.append((out.data, [t.grad for t in ins]))
        (ref_out, ref_grads), (out, grads) = runs
        assert out.shape == ref_out.shape and np.array_equal(bits(out), bits(ref_out))
        for ref, got in zip(ref_grads, grads):
            assert np.abs(got - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1.0)

    def test_one_row_layer_norm_equals_its_row_of_the_batch(self):
        rng = np.random.default_rng(34)
        d = 64
        gamma, beta = rng.normal(size=d), rng.normal(size=d)
        x = rng.normal(size=(2000, d)) * 10.0 ** rng.uniform(-3, 3, size=(2000, 1))
        x += rng.normal(size=(2000, 1)) * 10.0 ** rng.uniform(-3, 3, size=(2000, 1))
        g = rng.normal(size=(2000, d))
        xs = ad.Tensor(x, requires_grad=True)
        batch = ad.layer_norm(xs, gamma, beta)
        ad.mul(batch, g).backward()
        for i in range(x.shape[0]):
            row = ad.Tensor(x[i : i + 1], requires_grad=True)
            out = ad.layer_norm(row, gamma, beta)
            assert np.array_equal(bits(out.data[0]), bits(batch.data[i])), i
            if i % 50 == 0:
                ad.mul(out, g[i : i + 1]).backward()
                assert np.array_equal(bits(row.grad[0]), bits(xs.grad[i])), i


def split_heads(t: ad.Tensor, heads: int) -> ad.Tensor:
    n, d = t.shape
    return swapaxes(ad.reshape(t, (n, heads, d // heads)), 0, 1)


class TestAttention:
    """autodiff.attention against finite differences, over all five inputs."""

    # 3 queries, 4 keys, 2 heads of 2 channels
    SHAPES = ((3, 4), (2, 4, 2), (2, 4, 2), (4, 4), (4, 4))

    def loss(self, mask, coef):
        return lambda x, k, v, wq, wo: ad.mean(ad.mul(ad.attention(x, k, v, wq, wo, mask), coef))

    def test_grad_with_mask(self):
        mask = np.zeros((3, 4))
        mask[0, 1:] = ad.NEG_INF
        mask[1, 3] = ad.NEG_INF
        coef = np.random.default_rng(6).normal(size=(3, 4))
        check_op(self.loss(mask, coef), *self.SHAPES, seed=1)

    def test_grad_without_mask(self):
        coef = np.random.default_rng(7).normal(size=(3, 4))
        check_op(self.loss(None, coef), *self.SHAPES, seed=2)

    def test_grad_with_grouped_mask(self):
        # 2 groups of 2 queries, each over its own 2 of the 4 keys
        mask = np.zeros((2, 2, 2))
        mask[0, 0, 1] = ad.NEG_INF
        mask[1, 1, 0] = ad.NEG_INF
        coef = np.random.default_rng(10).normal(size=(4, 4))
        shapes = ((4, 4),) + self.SHAPES[1:]
        check_op(self.loss(mask, coef), *shapes, seed=4)

    def test_grad_with_x_as_key_source(self):
        # self-attention: x feeds the queries and, projected, the keys and values
        mask = np.where(np.tril(np.ones((5, 5))) > 0, 0.0, ad.NEG_INF)
        coef = np.random.default_rng(8).normal(size=(5, 4))

        def build(x, wk, wv, wq, wo):
            k, v = split_heads(ad.matmul(x, wk), 2), split_heads(ad.matmul(x, wv), 2)
            return ad.mean(ad.mul(ad.attention(x, k, v, wq, wo, mask), coef))

        check_op(build, (5, 4), (4, 4), (4, 4), (4, 4), (4, 4), seed=3)

    def test_no_grad_builds_no_node(self):
        rng = np.random.default_rng(9)
        ins = [ad.Tensor(rng.normal(size=s), requires_grad=True) for s in self.SHAPES]
        with ad.no_grad():
            out = ad.attention(*ins)
        assert out._parents == () and out._backward is None


class TestTapeMechanics:
    def test_gradient_accumulation_across_backwards(self):
        w = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        for _ in range(3):
            ad.mean(ad.matmul(ad.Tensor(np.ones((1, 2))), w)).backward()
        expected = np.full((2, 2), 1 / 2)  # mean over 2 outputs, each sums a column
        assert np.allclose(w.grad, 3 * expected)
        w.zero_grad()
        assert w.grad is None

    def test_diamond_graph_accumulates_once_per_path(self):
        x = ad.Tensor(np.array([2.0]), requires_grad=True)
        y = ad.add(ad.mul(x, 3.0), ad.mul(x, x))  # 3x + x^2 -> dy/dx = 3 + 2x = 7
        ad.mean(y).backward()
        assert np.allclose(x.grad, [7.0])

    def test_no_grad_suppresses_tape(self):
        w = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            out = ad.mul(w, 2.0)
        assert out._parents == ()
        assert ad.grad_enabled()

    def test_constant_subgraphs_not_taped(self):
        a, b = ad.Tensor(np.ones(3)), ad.Tensor(np.ones(3))
        assert ad.add(a, b)._parents == ()

    def test_requires_grad_survives_through_chain(self):
        w = ad.Tensor(np.ones(3), requires_grad=True)
        out = ad.mul(ad.add(w, 1.0), 2.0)
        ad.mean(out).backward()
        assert np.allclose(w.grad, [2 / 3] * 3)

    def test_second_backward_through_a_freed_graph_raises(self):
        w = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        mid = ad.matmul(ad.Tensor(np.ones((1, 2))), w)
        loss = ad.mean(mid)
        loss.backward()
        assert loss._parents == () and mid._parents == ()
        for root in (loss, mid, ad.mean(ad.add(mid, w))):
            with pytest.raises(RuntimeError, match="graph already freed"):
                root.backward()
        assert np.array_equal(w.grad, np.full((2, 2), 1 / 2))  # from the first walk only

    def test_interior_nodes_die_after_backward(self):
        w = ad.Tensor(np.ones((3, 3)), requires_grad=True)
        mid = ad.matmul(w, w)
        inner = ad.mul(mid, 2.0)
        loss = ad.mean(inner)
        # a Tensor holds its data, so the data dying shows the Tensor died
        refs = [weakref.ref(t.data) for t in (mid, inner)]
        del mid, inner
        assert all(r() is not None for r in refs)  # held by the tape
        loss.backward()
        assert all(r() is None for r in refs)
        assert w.grad is not None and float(loss.data) == 6.0
