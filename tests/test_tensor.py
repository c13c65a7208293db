import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from sceneparse import model
from sceneparse import tensor as T
from sceneparse.errors import GraphError, NumericError, ShapeError


def finite_diff(loss_fn, param, h=1e-6):
    """Central-difference gradient of a scalar loss in one parameter."""
    g = np.zeros_like(param.data)
    flat = param.data.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        hi = float(loss_fn().data)
        flat[i] = keep - h
        lo = float(loss_fn().data)
        flat[i] = keep
        gf[i] = (hi - lo) / (2 * h)
    return g


def analytic_grad(loss_fn, params):
    loss = loss_fn()
    T.backward(loss, params)
    return [p.grad.copy() for p in params]


def conv2d_loops(x, w, stride, pad):
    """Direct convolution oracle with explicit python loops."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    xp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad))
    xp[:, :, pad : pad + h, pad : pad + wd] = x
    h_out = (h + 2 * pad - kh) // stride + 1
    w_out = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, o, h_out, w_out))
    for ni in range(n):
        for oi in range(o):
            for yi in range(h_out):
                for xi in range(w_out):
                    patch = xp[ni, :, yi * stride : yi * stride + kh, xi * stride : xi * stride + kw]
                    out[ni, oi, yi, xi] = (patch * w[oi]).sum()
    return out


def conv2d_einsum(inp, kernel, stride=1, pad=0):
    """The einsum conv2d that explicit GEMMs replaced, kept as a bit-exact
    oracle: values, output memory layout and gradients must match it."""
    if stride < 1:
        raise ShapeError(f"stride must be >= 1, got {stride}")
    if pad < 0:
        raise ShapeError(f"pad must be >= 0, got {pad}")
    if kernel.data.ndim != 4:
        raise ShapeError(f"kernel must be 4-D, got {kernel.data.shape}")
    x, squeeze = T._as_batched(inp.data, "conv2d")
    n, c, h, w = x.shape
    c_out, c_in, kh, kw = kernel.data.shape
    if c_in != c:
        raise ShapeError(f"kernel expects {c_in} input channels, input has {c}")
    if kh > h + 2 * pad or kw > w + 2 * pad:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {h + 2 * pad}x{w + 2 * pad}")
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    out = np.einsum("nchwij,ocij->nohw", windows, kernel.data, optimize=True)
    h_out, w_out = out.shape[2], out.shape[3]

    def bwd(res):
        g = res.grad if not squeeze else res.grad[None]
        if kernel.requires_grad:
            T._accum(kernel, np.einsum("nchwij,nohw->ocij", windows, g, optimize=True))
        if inp.requires_grad:
            dxp = np.zeros_like(xp)
            dcols = np.einsum("nohw,ocij->nchwij", g, kernel.data, optimize=True)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += dcols[..., i, j]
            dx = dxp[:, :, pad : pad + h, pad : pad + w] if pad else dxp
            T._accum(inp, dx[0] if squeeze else dx)

    return T._result(out[0] if squeeze else out, (inp, kernel), bwd)


def backward_zero_prefill(loss, params=None):
    """The reverse sweep that zero-filled every reached node's gradient
    before it ran, kept as a bit-exact oracle for backward."""
    if loss.data.shape != ():
        raise GraphError(f"backward root must be scalar, got shape {loss.data.shape}")
    order = T._topo_order(loss)
    for node in order:
        node.grad = np.zeros_like(node.data)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node)
    if params is not None:
        touched = {id(n) for n in order}
        for p in params:
            if id(p) not in touched:
                p.grad = np.zeros_like(p.data)


def relu_select(x):
    """The relu forward before the branch-free kernel."""
    return np.where(x > 0, x, 0.0)


def sigmoid_two_branch(x):
    """The sigmoid forward before the branch-free kernel."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestBranchFreeKernels:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_match_old_forms_bytes_and_layout(self, rng, dtype):
        tiny = np.finfo(dtype).smallest_subnormal
        special = [0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 4 * tiny, -4 * tiny, 746.0, -746.0, 88.0, -88.0]
        flat = np.concatenate([np.array(special, dtype=dtype), rng.normal(scale=6.0, size=4000).astype(dtype)])
        # a [C,N,H,W] buffer seen as [N,C,H,W], as conv2d lays out its output
        maps = rng.normal(scale=6.0, size=(8, 16, 8, 8)).astype(dtype).transpose(1, 0, 2, 3)
        for x in (flat, maps):
            for kernel, oracle in ((T.arrays.relu, relu_select), (T.arrays.sigmoid, sigmoid_two_branch)):
                got, want = kernel(x), oracle(x)
                assert got.dtype == want.dtype == dtype
                assert got.strides == want.strides
                assert got.tobytes() == want.tobytes(), kernel

    def test_nan_stays_nan(self):
        x = np.array([np.nan, -np.nan])
        assert T.arrays.relu(x).tobytes() == relu_select(x).tobytes()
        assert np.isnan(T.arrays.sigmoid(x)).all()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_image_kernels_keep_dtype(self, rng, dtype):
        x = rng.random((2, 3, 8, 8)).astype(dtype)
        k = rng.normal(size=(4, 3, 3, 3)).astype(dtype)
        b = rng.normal(size=4).astype(dtype)
        y = T.arrays.bias_add(T.arrays.conv2d(x, k, 2, 1), b)
        z = T.arrays.global_avg_pool(T.arrays.upsample_nearest(y, 2))
        out = T.arrays.linear(z, rng.normal(size=(5, 4)).astype(dtype), np.zeros(5, dtype))
        assert y.dtype == z.dtype == out.dtype == dtype
        assert y.shape == (2, 4, 4, 4) and out.shape == (2, 5)


class TestElementwise:
    def test_add_mul_values(self, rng):
        a = T.tensor(rng.normal(size=(3, 4)))
        b = T.tensor(rng.normal(size=(3, 4)))
        assert np.allclose(T.add(a, b).data, a.data + b.data)
        assert np.allclose(T.mul(a, b).data, a.data * b.data)
        assert np.allclose(T.scale(a, 2.5).data, 2.5 * a.data)

    def test_shape_mismatch(self, rng):
        a = T.tensor(rng.normal(size=(3, 4)))
        b = T.tensor(rng.normal(size=(4, 3)))
        with pytest.raises(ShapeError):
            T.add(a, b)
        with pytest.raises(ShapeError):
            T.mul(a, b)

    def test_relu_values(self):
        a = T.tensor(np.array([-2.0, 0.0, 3.5]))
        assert np.array_equal(T.relu(a).data, [0.0, 0.0, 3.5])

    def test_sigmoid_matches_formula_and_is_stable(self):
        x = np.array([-800.0, -5.0, 0.0, 5.0, 800.0])
        got = T.sigmoid(T.tensor(x)).data
        assert got[0] == 0.0 and got[-1] == 1.0
        for i in (1, 2, 3):
            assert got[i] == pytest.approx(1 / (1 + math.exp(-x[i])), abs=1e-15)

    def test_softmax_rows_sum_to_one(self, rng):
        x = T.tensor(rng.normal(size=(5, 7)) * 30)
        s = T.softmax(x).data
        assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-12)
        assert (s >= 0).all()

    def test_softmax_shift_invariant(self, rng):
        x = rng.normal(size=(4,))
        a = T.softmax(T.tensor(x)).data
        b = T.softmax(T.tensor(x + 1000.0)).data
        assert np.allclose(a, b, atol=1e-12)

    def test_activate_dispatch(self, rng):
        x = T.tensor(rng.normal(size=(3,)))
        assert np.array_equal(T.activate(x, "relu").data, T.relu(x).data)
        with pytest.raises(ShapeError):
            T.activate(x, "tanh")

    def test_gradients(self, rng):
        a = T.tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = T.tensor(rng.normal(size=(3, 4)), requires_grad=True)

        def loss():
            return T.tsum(T.mul(T.sigmoid(a), T.add(a, b)))

        ga, gb = analytic_grad(loss, [a, b])
        assert np.allclose(ga, finite_diff(loss, a), atol=1e-8)
        assert np.allclose(gb, finite_diff(loss, b), atol=1e-8)


class TestConv2d:
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (3, 0)])
    def test_forward_matches_loop_oracle(self, rng, stride, pad):
        x = rng.normal(size=(2, 3, 7, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        got = T.conv2d(T.tensor(x), T.tensor(w), stride=stride, pad=pad).data
        want = conv2d_loops(x, w, stride, pad)
        assert np.allclose(got, want, atol=1e-12)

    def test_unbatched_input(self, rng):
        x = rng.normal(size=(3, 6, 6))
        w = rng.normal(size=(2, 3, 3, 3))
        got = T.conv2d(T.tensor(x), T.tensor(w), pad=1).data
        want = conv2d_loops(x[None], w, 1, 1)[0]
        assert got.shape == (2, 6, 6)
        assert np.allclose(got, want, atol=1e-12)

    def test_one_by_one_kernel(self, rng):
        x = rng.normal(size=(1, 4, 5, 5))
        w = rng.normal(size=(2, 4, 1, 1))
        got = T.conv2d(T.tensor(x), T.tensor(w)).data
        want = np.einsum("nchw,oc->nohw", x, w[:, :, 0, 0])
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 1)])
    def test_gradients(self, rng, stride, pad):
        x = T.tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)
        w = T.tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)

        def loss():
            return T.tsum(T.conv2d(x, w, stride=stride, pad=pad))

        gx, gw = analytic_grad(loss, [x, w])
        assert np.allclose(gx, finite_diff(loss, x), atol=1e-7)
        assert np.allclose(gw, finite_diff(loss, w), atol=1e-7)

    def test_channel_mismatch(self, rng):
        x = T.tensor(rng.normal(size=(1, 3, 5, 5)))
        w = T.tensor(rng.normal(size=(2, 4, 3, 3)))
        with pytest.raises(ShapeError):
            T.conv2d(x, w)


class TestUpsampleAndPool:
    def test_upsample_index_formula(self, rng):
        x = rng.normal(size=(2, 3, 4))
        up = T.upsample_nearest(T.tensor(x), 3).data
        for y in range(9):
            for xx in range(12):
                assert up[:, y, xx] == pytest.approx(x[:, y // 3, xx // 3])

    def test_upsample_gradient(self, rng):
        x = T.tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)

        def loss():
            return T.tsum(T.mul(u := T.upsample_nearest(x, 2), u))

        (gx,) = analytic_grad(loss, [x])
        assert np.allclose(gx, finite_diff(loss, x), atol=1e-7)

    def test_gap_values(self, rng):
        x = rng.normal(size=(2, 3, 4, 5))
        got = T.global_avg_pool(T.tensor(x)).data
        assert np.allclose(got, x.mean(axis=(2, 3)), atol=1e-12)
        single = T.global_avg_pool(T.tensor(x[0])).data
        assert np.allclose(single, x[0].mean(axis=(1, 2)), atol=1e-12)

    def test_gap_gradient(self, rng):
        x = T.tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
        w = T.tensor(rng.normal(size=(2, 2)), requires_grad=True)
        b = T.tensor(rng.normal(size=(2,)), requires_grad=True)

        def loss():
            return T.cross_entropy(T.linear(T.global_avg_pool(x), w, b), np.array([0, 1]))

        gx, gw, gb = analytic_grad(loss, [x, w, b])
        assert np.allclose(gx, finite_diff(loss, x), atol=1e-8)
        assert np.allclose(gw, finite_diff(loss, w), atol=1e-8)
        assert np.allclose(gb, finite_diff(loss, b), atol=1e-8)


class TestBiasConcatLinear:
    def test_bias_add_per_channel(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        b = rng.normal(size=(3,))
        got = T.bias_add(T.tensor(x), T.tensor(b)).data
        assert np.allclose(got, x + b[None, :, None, None], atol=1e-15)

    def test_bias_add_gradient(self, rng):
        x = T.tensor(rng.normal(size=(2, 3, 3, 3)), requires_grad=True)
        b = T.tensor(rng.normal(size=(3,)), requires_grad=True)

        def loss():
            return T.tsum(T.relu(T.bias_add(x, b)))

        gx, gb = analytic_grad(loss, [x, b])
        assert np.allclose(gx, finite_diff(loss, x), atol=1e-7)
        assert np.allclose(gb, finite_diff(loss, b), atol=1e-7)

    def test_linear_batched_and_single(self, rng):
        w = rng.normal(size=(4, 6))
        b = rng.normal(size=(4,))
        xb = rng.normal(size=(3, 6))
        got = T.linear(T.tensor(xb), T.tensor(w), T.tensor(b)).data
        assert np.allclose(got, xb @ w.T + b, atol=1e-13)
        got1 = T.linear(T.tensor(xb[0]), T.tensor(w), T.tensor(b)).data
        assert np.allclose(got1, w @ xb[0] + b, atol=1e-13)


class TestLosses:
    def test_cross_entropy_formula(self):
        logits = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        want = np.mean(
            [
                -1.0 + math.log(sum(math.exp(v) for v in logits[0])),
                -0.0 + math.log(3.0),
            ]
        )
        got = float(T.cross_entropy(T.tensor(logits), np.array([0, 1])).data)
        assert got == pytest.approx(want, abs=1e-12)

    def test_cross_entropy_extreme_logits(self):
        logits = np.array([[1000.0, 0.0]])
        loss = float(T.cross_entropy(T.tensor(logits), np.array([0])).data)
        assert loss == pytest.approx(0.0, abs=1e-12)
        loss2 = float(T.cross_entropy(T.tensor(logits), np.array([1])).data)
        assert loss2 == pytest.approx(1000.0, rel=1e-12)

    def test_cross_entropy_target_range(self):
        with pytest.raises(IndexError):
            T.cross_entropy(T.tensor(np.zeros((1, 3))), np.array([3]))

    def test_cross_entropy_gradient(self, rng):
        x = T.tensor(rng.normal(size=(4, 5)), requires_grad=True)

        def loss():
            return T.cross_entropy(x, np.array([0, 2, 4, 1]))

        (gx,) = analytic_grad(loss, [x])
        assert np.allclose(gx, finite_diff(loss, x), atol=1e-8)
        # softmax identity: dL/dz = (softmax(z) - onehot) / batch
        sm = np.exp(x.data - x.data.max(axis=1, keepdims=True))
        sm /= sm.sum(axis=1, keepdims=True)
        onehot = np.eye(5)[[0, 2, 4, 1]]
        assert np.allclose(gx, (sm - onehot) / 4, atol=1e-12)


class TestBackwardSemantics:
    def test_non_scalar_rejected(self, rng):
        x = T.tensor(rng.normal(size=(3,)), requires_grad=True)
        with pytest.raises(GraphError):
            T.backward(T.relu(x))

    def test_grads_reset_between_sweeps(self):
        x = T.tensor(np.array([2.0]), requires_grad=True)
        T.backward(T.tsum(x), [x])
        T.backward(T.tsum(x), [x])
        assert x.grad == pytest.approx(1.0)

    def test_unreached_param_zero_filled(self):
        x = T.tensor(np.array([2.0]), requires_grad=True)
        y = T.tensor(np.array([3.0]), requires_grad=True)
        T.backward(T.tsum(x), [x, y])
        assert np.array_equal(y.grad, np.zeros(1))

    def test_diamond_graph_accumulates(self):
        x = T.tensor(np.array([3.0]), requires_grad=True)
        # y = x*x + x -> dy/dx = 2x + 1 = 7
        y = T.tsum(T.add(T.mul(x, x), x))
        T.backward(y, [x])
        assert x.grad == pytest.approx(np.array([7.0]))

    def test_check_finite(self):
        with pytest.raises(NumericError):
            T.check_finite(T.tensor(np.array([1.0, np.nan])))
        T.check_finite(T.tensor(np.array([1.0, 2.0])))


class TestSgd:
    def test_two_step_recurrence_by_hand(self):
        p = T.tensor(np.array([1.0]), requires_grad=True)
        st = T.OptimizerState(lr=0.1, momentum=0.9, weight_decay=0.005)
        g1, g2 = np.array([0.3]), np.array([-0.2])

        # hand recurrence
        ph, v = 1.0, 0.0
        for g in (0.3, -0.2):
            gp = g + 0.005 * ph
            v = 0.9 * v + gp
            ph = ph - 0.1 * v

        T.sgd_step([p], [g1], st)
        T.sgd_step([p], [g2], st)
        assert p.data[0] == pytest.approx(ph, abs=1e-15)

    def test_zero_lr_is_identity(self, rng):
        w0 = rng.normal(size=(3, 3))
        p = T.tensor(w0.copy(), requires_grad=True)
        st = T.OptimizerState(lr=0.0, momentum=0.9, weight_decay=0.005)
        T.sgd_step([p], [rng.normal(size=(3, 3))], st)
        assert np.array_equal(p.data, w0)

    def test_plain_sgd_no_momentum(self):
        p = T.tensor(np.array([2.0]), requires_grad=True)
        st = T.OptimizerState(lr=0.5, momentum=0.0, weight_decay=0.0)
        T.sgd_step([p], [np.array([1.0])], st)
        assert p.data[0] == pytest.approx(1.5)

    def test_schedule_divides_lr(self):
        st = T.OptimizerState(lr=0.01, step_schedule=((20, 10.0), (40, 10.0)))
        assert st.lr_for_epoch(0) == pytest.approx(0.01)
        assert st.lr_for_epoch(19) == pytest.approx(0.01)
        assert st.lr_for_epoch(20) == pytest.approx(0.001)
        assert st.lr_for_epoch(39) == pytest.approx(0.001)
        assert st.lr_for_epoch(40) == pytest.approx(0.0001)

    def test_length_mismatch(self):
        p = T.tensor(np.zeros(2), requires_grad=True)
        st = T.OptimizerState(lr=0.1)
        with pytest.raises(ShapeError):
            T.sgd_step([p], [], st)


class TestCheckGradients:
    def test_small_graph_passes(self, rng):
        w = T.tensor(rng.normal(size=(3, 4)), requires_grad=True)
        x = T.tensor(rng.normal(size=(2, 4)))

        def loss():
            return T.cross_entropy(T.linear(x, w, T.tensor(np.zeros(3))), np.array([0, 2]))

        err = T.check_gradients(loss, [w])
        assert err <= 1e-9

    def test_linear_graph_tight(self):
        # d(sum(c*p))/dp is constant, so the FD estimate is exact up to
        # rounding; the error floor is far below the acceptance tolerance
        p = T.tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)

        def loss():
            return T.tsum(T.scale(p, 1.75))

        assert T.check_gradients(loss, [p]) <= 1e-10

    def test_corrupted_gradient_detected(self, rng):
        w = T.tensor(rng.normal(size=(3, 4)), requires_grad=True)
        x = T.tensor(rng.normal(size=(2, 4)))

        def loss():
            return T.cross_entropy(T.linear(x, w, T.tensor(np.zeros(3))), np.array([0, 2]))

        err = T.check_gradients(loss, [w], grad_perturbation=0.1)
        assert err > 1e-4

    def test_subsampling_deterministic(self, rng):
        w = T.tensor(rng.normal(size=(20, 20)), requires_grad=True)

        def loss():
            return T.tsum(T.mul(w, w))

        e1 = T.check_gradients(loss, [w], max_samples=50, seed=3)
        e2 = T.check_gradients(loss, [w], max_samples=50, seed=3)
        assert e1 == e2


# (input shape, kernel shape, stride, pad): the desk classifier's convs
# (32-px tiles, channels 8/16/32, attention 1x1s) at a small and a training
# batch, pad 0, unbatched inputs, and the 1x1 output map of an 8-px one
ORACLE_CASES = [
    ((2, 3, 32, 32), (8, 3, 3, 3), 1, 1),
    ((32, 3, 32, 32), (8, 3, 3, 3), 1, 1),
    ((32, 8, 32, 32), (8, 8, 3, 3), 2, 1),
    ((32, 8, 16, 16), (16, 8, 3, 3), 1, 1),
    ((2, 16, 16, 16), (16, 16, 3, 3), 2, 1),
    ((32, 16, 8, 8), (32, 16, 3, 3), 1, 1),
    ((32, 32, 8, 8), (32, 32, 3, 3), 2, 1),
    ((32, 32, 8, 8), (16, 32, 1, 1), 1, 0),
    ((2, 16, 16, 16), (8, 16, 1, 1), 1, 0),
    ((4, 8, 16, 16), (8, 8, 3, 3), 2, 0),
    ((3, 7, 8), (4, 3, 3, 3), 3, 0),
    ((8, 16, 16), (16, 8, 3, 3), 1, 1),
    ((1, 8, 16, 16), (16, 8, 3, 3), 2, 1),
    ((8, 4, 2, 2), (4, 4, 3, 3), 2, 1),
    ((64, 4, 2, 2), (4, 4, 3, 3), 2, 1),
]


class TestEinsumOracles:
    def _run(self, conv, sweep, x, w, stride, pad, upstream):
        xt = T.tensor(x.copy(), requires_grad=True)
        wt = T.tensor(w.copy(), requires_grad=True)
        out = conv(xt, wt, stride, pad)
        sweep(T.tsum(T.mul(out, T.tensor(upstream))), [xt, wt])
        return out.data, xt.grad, wt.grad

    @pytest.mark.parametrize("x_shape,w_shape,stride,pad", ORACLE_CASES)
    def test_conv_bit_equal(self, rng, x_shape, w_shape, stride, pad):
        x = rng.normal(size=x_shape)
        w = rng.normal(size=w_shape)
        upstream = rng.normal(size=conv2d_einsum(T.tensor(x), T.tensor(w), stride, pad).data.shape)
        want = self._run(conv2d_einsum, backward_zero_prefill, x, w, stride, pad, upstream)
        got = self._run(T.conv2d, T.backward, x, w, stride, pad, upstream)
        for g, e, what in zip(got, want, ("output", "input gradient", "kernel gradient")):
            # the memory order decides how later reductions sum; the stride
            # of a length-1 axis is never stepped
            assert [st for st, d in zip(g.strides, g.shape) if d > 1] == [
                st for st, d in zip(e.strides, e.shape) if d > 1
            ], what
            assert g.tobytes() == e.tobytes(), what

    @pytest.mark.parametrize(
        "cfg,batch",
        [
            (model.BackboneConfig(input_size=8, stage_channels=(2, 3, 4), num_classes_per_task=(3,)), 8),
            (model.BackboneConfig(input_size=32, stage_channels=(8, 16, 32), num_classes_per_task=(8,)), 32),
        ],
        ids=["small", "desk"],
    )
    def test_training_epoch_bit_equal(self, tmp_path, monkeypatch, cfg, batch):
        from tests.test_model import tile_dataset

        k = cfg.num_classes_per_task[0]
        man = tile_dataset(tmp_path, n_classes=k, per_class=64 // k, size=cfg.input_size)
        hyper = model.TrainConfig(epochs=1, batch_size=batch, lr=0.01, schedule=(), seed=2)
        got, got_trace = model.train(cfg, [man], hyper)
        monkeypatch.setattr(T, "conv2d", conv2d_einsum)
        monkeypatch.setattr(T, "backward", backward_zero_prefill)
        want, want_trace = model.train(cfg, [man], hyper)
        assert got_trace == want_trace
        for name in want.params:
            assert got.params[name].tobytes() == want.params[name].tobytes(), name
