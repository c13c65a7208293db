import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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
    x = inp.data
    if x.ndim != 4:
        raise ShapeError(f"conv2d expects [N,C,H,W], got {x.shape}")
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
        g = res.grad
        if kernel.requires_grad:
            T._accum(kernel, np.einsum("nchwij,nohw->ocij", windows, g, optimize=True))
        if inp.requires_grad:
            dxp = np.zeros_like(xp)
            dcols = np.einsum("nohw,ocij->nchwij", g, kernel.data, optimize=True)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += dcols[..., i, j]
            T._accum(inp, dxp[:, :, pad : pad + h, pad : pad + w] if pad else dxp)

    return T._result(out, (inp, kernel), bwd)


def conv2d_padded(inp, kernel, stride=1, pad=0):
    """The conv2d that built its im2col matrix from an ``np.pad`` copy of the
    input through a strided window view, and summed its input gradient into
    a padded buffer before slicing it, kept as a bit-exact oracle.  It copies
    its im2col matrix to row-major order: that reshape returned a strided
    view only for degenerate shapes (a 1x1 kernel at stride > 1, or a kernel
    as wide as the padded input), for which BLAS sums in another order."""
    x = inp.data
    n, c, h, w = x.shape
    c_out, _, kh, kw = kernel.data.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    h_out, w_out = windows.shape[2], windows.shape[3]
    k = c * kh * kw
    if h_out == w_out == 1:
        cols = np.ascontiguousarray(windows.reshape(n, k)).T
    else:
        cols = np.ascontiguousarray(windows.transpose(1, 4, 5, 0, 2, 3)).reshape(k, n * h_out * w_out)
    kmat = kernel.data.reshape(c_out, k)
    out = (kmat @ cols).reshape(c_out, n, h_out, w_out).transpose(1, 0, 2, 3)

    def bwd(res):
        gm = res.grad.transpose(1, 0, 2, 3).reshape(c_out, n * h_out * w_out)
        if kernel.requires_grad:
            T._accum(kernel, (gm @ cols.T).reshape(kernel.data.shape))
        if inp.requires_grad:
            dcols = (kmat.T.copy() @ gm).reshape(c, kh, kw, n, h_out, w_out)
            dxp = np.zeros((c, n, h + 2 * pad, w + 2 * pad), dtype=dcols.dtype)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += dcols[:, i, j]
            T._accum(inp, dxp.transpose(1, 0, 2, 3)[:, :, pad : pad + h, pad : pad + w])

    return T._result(out, (inp, kernel), bwd)


def same(oracle):
    """An oracle conv called as ``T.conv2d`` is, padded by the kernel's
    half-width (k - 1) / 2."""
    return lambda inp, kernel, stride=1: oracle(inp, kernel, stride, kernel.data.shape[2] // 2)


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


def upsample_backward_reshape_sum(grad, factor):
    """The upsample_nearest backward that summed each factor x factor block
    of output gradients through a reshape, kept as a bit-exact oracle."""
    n, c, fh, fw = grad.shape
    return grad.reshape(n, c, fh // factor, factor, fw // factor, factor).sum(axis=(3, 5))


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
            for op, oracle in ((T.relu, relu_select), (T.sigmoid, sigmoid_two_branch)):
                got, want = op(T.tensor(x)).data, oracle(x)
                assert got.dtype == want.dtype == dtype
                assert got.strides == want.strides
                assert got.tobytes() == want.tobytes(), op

    def test_nan_stays_nan(self):
        x = np.array([np.nan, -np.nan])
        assert T.relu(T.tensor(x)).data.tobytes() == relu_select(x).tobytes()
        assert np.isnan(T.sigmoid(T.tensor(x)).data).all()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_image_kernels_keep_dtype(self, rng, dtype):
        def t(shape, draw=rng.normal):
            return T.tensor(draw(size=shape).astype(dtype))

        y = T.bias_add(T.conv2d(t((2, 3, 8, 8), rng.random), t((4, 3, 3, 3)), 2), t((4,)))
        z = T.global_avg_pool(T.upsample_nearest(y, 2))
        out = T.linear(z, t((5, 4)), T.tensor(np.zeros(5, dtype)))
        assert y.data.dtype == z.data.dtype == out.data.dtype == dtype
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
        s = T.softmax(rng.normal(size=(5, 7)) * 30)
        assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-12)
        assert (s >= 0).all()

    def test_softmax_shift_invariant(self, rng):
        x = rng.normal(size=(4,))
        assert np.allclose(T.softmax(x), T.softmax(x + 1000.0), atol=1e-12)

    def test_gradients(self, rng):
        a = T.tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = T.tensor(rng.normal(size=(3, 4)), requires_grad=True)

        def loss():
            return T.tsum(T.mul(T.sigmoid(a), T.add(a, b)))

        ga, gb = analytic_grad(loss, [a, b])
        assert np.allclose(ga, finite_diff(loss, a), atol=1e-8)
        assert np.allclose(gb, finite_diff(loss, b), atol=1e-8)


class TestConv2d:
    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 1), (3, 1)])
    def test_forward_matches_loop_oracle(self, rng, stride, pad):
        x = rng.normal(size=(2, 3, 6, 12))
        w = rng.normal(size=(4, 3, 3, 3))
        got = T.conv2d(T.tensor(x), T.tensor(w), stride=stride).data
        want = conv2d_loops(x, w, stride, pad)
        assert got.shape == (2, 4, 6 // stride, 12 // stride)
        assert np.allclose(got, want, atol=1e-12)

    def test_one_by_one_kernel(self, rng):
        x = rng.normal(size=(1, 4, 5, 5))
        w = rng.normal(size=(2, 4, 1, 1))
        got = T.conv2d(T.tensor(x), T.tensor(w)).data
        want = np.einsum("nchw,oc->nohw", x, w[:, :, 0, 0])
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_gradients(self, rng, stride):
        x = T.tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)
        w = T.tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)

        def loss():
            return T.tsum(T.conv2d(x, w, stride=stride))

        gx, gw = analytic_grad(loss, [x, w])
        assert np.allclose(gx, finite_diff(loss, x), atol=1e-7)
        assert np.allclose(gw, finite_diff(loss, w), atol=1e-7)

    def test_channel_mismatch(self, rng):
        x = T.tensor(rng.normal(size=(1, 3, 5, 5)))
        w = T.tensor(rng.normal(size=(2, 4, 3, 3)))
        with pytest.raises(ShapeError):
            T.conv2d(x, w)

    @pytest.mark.parametrize(
        "x_shape,w_shape,stride",
        [
            ((1, 2, 6, 6), (3, 2, 2, 2), 1),
            ((1, 2, 8, 8), (3, 2, 4, 4), 2),
            ((1, 2, 6, 6), (3, 2, 3, 1), 1),
            ((1, 2, 6, 6), (3, 2, 1, 3), 1),
            ((1, 2, 7, 8), (3, 2, 3, 3), 2),
            ((1, 2, 8, 7), (3, 2, 3, 3), 2),
            ((1, 2, 6, 6), (3, 2, 3, 3), 4),
            ((1, 2, 6, 6), (3, 2, 3, 3), 0),
            ((1, 2, 0, 0), (3, 2, 3, 3), 1),
        ],
        ids=["even", "even-stride", "tall", "wide", "h-undivided", "w-undivided", "stride-big", "stride-0", "empty"],
    )
    def test_only_same_convs(self, x_shape, w_shape, stride):
        # an odd square kernel padded by its half-width, at a stride that
        # divides the input; nothing else is a same conv
        with pytest.raises(ShapeError):
            T.conv2d(T.tensor(np.zeros(x_shape)), T.tensor(np.zeros(w_shape)), stride)

    def test_padding_is_not_an_argument(self):
        with pytest.raises(TypeError):
            T.conv2d(T.tensor(np.zeros((1, 2, 6, 6))), T.tensor(np.zeros((3, 2, 3, 3))), 1, 0)


def conv_run(conv, sweep, x, w, stride, upstream):
    """Output, input gradient and kernel gradient of one conv under a loss
    that weighs its output by ``upstream``."""
    xt = T.tensor(x.copy(), requires_grad=True)
    wt = T.tensor(w.copy(), requires_grad=True)
    out = conv(xt, wt, stride)
    sweep(T.tsum(T.mul(out, T.tensor(upstream))), [xt, wt])
    return out.data, xt.grad, wt.grad


class TestConv2dPaddingFree:
    """conv2d fills its im2col matrix by one flat shifted copy per tap from
    the input's phase planes, and sums its input gradient by one flat
    shifted add per tap, with no padded copy; bytes and memory layout must
    equal the padded oracle's."""

    @settings(max_examples=150)
    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 3),
        c_out=st.integers(1, 3),
        h_out=st.integers(1, 4),
        w_out=st.integers(1, 4),
        k=st.sampled_from([1, 3, 5]),
        stride=st.integers(1, 3),
        f32=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    # 1- and 2-px maps, where a tap's flat shift |dy*W' + dx| reaches H'*W'
    @example(n=2, c=2, c_out=3, h_out=1, w_out=1, k=5, stride=1, f32=True, seed=0)
    @example(n=2, c=2, c_out=2, h_out=1, w_out=2, k=5, stride=1, f32=False, seed=1)
    @example(n=1, c=1, c_out=2, h_out=2, w_out=1, k=3, stride=1, f32=True, seed=2)
    # 1x1 outputs, which take the sample-major im2col buffer
    @example(n=3, c=2, c_out=2, h_out=1, w_out=1, k=3, stride=1, f32=False, seed=3)
    @example(n=3, c=2, c_out=2, h_out=1, w_out=1, k=3, stride=2, f32=True, seed=4)
    def test_bytes_equal_padded_oracle(self, n, c, c_out, h_out, w_out, k, stride, f32, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        dtype = np.float32 if f32 else np.float64
        x = rng.normal(size=(n, c, stride * h_out, stride * w_out)).astype(dtype)
        kernel = rng.normal(size=(c_out, c, k, k)).astype(dtype)
        upstream = rng.normal(size=(n, c_out, h_out, w_out)).astype(dtype)
        want = conv_run(same(conv2d_padded), T.backward, x, kernel, stride, upstream)
        got = conv_run(T.conv2d, T.backward, x, kernel, stride, upstream)
        for g, e, what in zip(got, want, ("output", "input gradient", "kernel gradient")):
            assert g.dtype == e.dtype == dtype, what
            assert g.strides == e.strides, what
            assert g.tobytes() == e.tobytes(), what

    @pytest.mark.parametrize(
        "h_out,w_out,k,stride", [(5, 4, 3, 1), (3, 2, 3, 3), (1, 2, 5, 1), (2, 1, 5, 2), (2, 3, 1, 4), (1, 1, 5, 1)]
    )
    def test_tap_ranges_read_only_real_input(self, h_out, w_out, k, stride):
        # every (tap, output) pair whose padded pixel lands inside the input
        # is paired once, with the phase-plane position it reads: the flat
        # shifts over two samples, minus the entries zeroed at the edges
        n, pad = 2, k // 2
        size = n * h_out * w_out
        h, w = stride * h_out, stride * w_out

        def flat(s, a, b):  # position (a, b) of sample s in a flat run of H' x W' maps
            return (s * h_out + a) * w_out + b

        want = {
            (i, j, flat(s, oy, ox), (y % stride, x % stride), flat(s, y // stride, x // stride))
            for i in range(k)
            for j in range(k)
            for s in range(n)
            for oy in range(h_out)
            for ox in range(w_out)
            if 0 <= (y := stride * oy + i - pad) < h and 0 <= (x := stride * ox + j - pad) < w
        }
        live = np.ones((1, k, k, n, h_out, w_out))
        T._zero_edges(live, stride)
        live = live.reshape(k, k, size)
        got = set()
        for i, j, ry, rx, out, src in T._shifts(k, stride, w_out, size):
            unpaired = np.ones(size, dtype=bool)
            unpaired[out] = False
            assert not live[i, j, unpaired].any()  # an output the shift does not fill is zeroed
            pairs = zip(range(size)[out], range(size)[src], strict=True)
            got |= {(i, j, q, (ry, rx), p) for q, p in pairs if live[i, j, q]}
        assert got == want


class TestUpsampleAndPool:
    def test_upsample_index_formula(self, rng):
        x = rng.normal(size=(2, 2, 3, 4))
        up = T.upsample_nearest(T.tensor(x), 3).data
        for y in range(9):
            for xx in range(12):
                assert up[..., y, xx] == pytest.approx(x[..., y // 3, xx // 3])

    def test_upsample_gradient(self, rng):
        x = T.tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)

        def loss():
            return T.tsum(T.mul(u := T.upsample_nearest(x, 2), u))

        (gx,) = analytic_grad(loss, [x])
        assert np.allclose(gx, finite_diff(loss, x), atol=1e-7)

    @settings(max_examples=200)
    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 3),
        h=st.integers(1, 4),
        w=st.integers(1, 4),
        factor=st.integers(1, 4),
        channel_major=st.booleans(),
        f32=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    # deep maps 1 px wide, where numpy sums all f*f taps as one pairwise run
    # (8 and 15 terms past the first at f = 3 and 4), and 1 px high
    @example(n=2, c=2, h=2, w=1, factor=2, channel_major=True, f32=True, seed=0)
    @example(n=2, c=3, h=1, w=1, factor=3, channel_major=False, f32=True, seed=1)
    @example(n=3, c=2, h=3, w=1, factor=4, channel_major=True, f32=False, seed=2)
    @example(n=2, c=2, h=1, w=3, factor=4, channel_major=False, f32=True, seed=3)
    @example(n=2, c=2, h=1, w=2, factor=3, channel_major=True, f32=False, seed=4)
    # the desk attention's 2x upsampling of a channel-major gate
    @example(n=3, c=2, h=4, w=4, factor=2, channel_major=True, f32=True, seed=5)
    def test_backward_bytes_equal_reshape_sum(self, n, c, h, w, factor, channel_major, f32, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        dtype = np.float32 if f32 else np.float64
        shape = (n, c, h * factor, w * factor)
        # magnitudes over six decades, so the sums round, and signed zeros
        vals = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        draw = rng.random(shape)
        vals[draw < 0.15] = -0.0
        vals[(draw >= 0.15) & (draw < 0.25)] = 0.0
        grad = vals.astype(dtype)
        if channel_major:  # [C, N, H, W] in memory, as conv2d's outputs are
            grad = np.ascontiguousarray(grad.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
        want = upsample_backward_reshape_sum(grad, factor)
        got = T._tap_sum(grad, factor)
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
        # all taps -0.0: numpy's sum starts at +0.0, so it reads +0.0
        negative_zeros = np.full_like(grad, -0.0)
        assert T._tap_sum(negative_zeros, factor).tobytes() == want.dtype.type(0).tobytes() * want.size
        # through the op: the input's gradient holds those sums in its own layout
        x = np.empty_like(want)
        x[...] = rng.normal(size=x.shape)
        xt = T.tensor(x, requires_grad=True)
        up = T.upsample_nearest(xt, factor)
        up.grad = grad
        up._backward(up)
        assert xt.grad.strides == x.strides
        assert xt.grad.tobytes() == (want + 0.0).tobytes()

    def test_gap_values(self, rng):
        x = rng.normal(size=(2, 3, 4, 5))
        got = T.global_avg_pool(T.tensor(x)).data
        assert np.allclose(got, x.mean(axis=(2, 3)), atol=1e-12)

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

    def test_linear_batched(self, rng):
        w = rng.normal(size=(4, 6))
        b = rng.normal(size=(4,))
        xb = rng.normal(size=(3, 6))
        got = T.linear(T.tensor(xb), T.tensor(w), T.tensor(b)).data
        assert np.allclose(got, xb @ w.T + b, atol=1e-13)


class TestBatchesOnly:
    @pytest.mark.parametrize(
        "op",
        [
            lambda x: T.conv2d(x, T.tensor(np.zeros((2, 3, 3, 3)))),
            lambda x: T.bias_add(x, T.tensor(np.zeros(3))),
            lambda x: T.upsample_nearest(x, 2),
            T.global_avg_pool,
        ],
        ids=["conv2d", "bias_add", "upsample_nearest", "global_avg_pool"],
    )
    def test_image_ops_reject_a_single_image(self, op):
        assert op(T.tensor(np.zeros((1, 3, 4, 4)))).shape[0] == 1
        with pytest.raises(ShapeError, match=r"\[N,C,H,W\]"):
            op(T.tensor(np.zeros((3, 4, 4))))

    def test_linear_and_cross_entropy_reject_a_single_vector(self):
        w, b = T.tensor(np.zeros((2, 4))), T.tensor(np.zeros(2))
        with pytest.raises(ShapeError, match=r"\[B,4\]"):
            T.linear(T.tensor(np.zeros(4)), w, b)
        with pytest.raises(ShapeError, match=r"\[B,N\]"):
            T.cross_entropy(T.tensor(np.zeros(3)), 0)


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


class TestGraphRelease:
    """backward releases the graph it swept: interior nodes drop their
    backward, parents and gradient, and leaves keep their gradient."""

    @staticmethod
    def _graph(seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        x = T.tensor(rng.normal(size=(2, 1, 4, 4)), requires_grad=True)
        w = T.tensor(rng.normal(size=(3, 1, 3, 3)), requires_grad=True)
        b = T.tensor(rng.normal(size=(3,)), requires_grad=True)
        h = T.relu(T.bias_add(T.conv2d(x, w, 2), b))
        head = T.tensor(rng.normal(size=(4, 3)), requires_grad=True)
        loss = T.cross_entropy(T.linear(T.global_avg_pool(h), head, T.tensor(np.zeros(4))), np.array([0, 3]))
        return [x, w, b, head], h, loss

    def test_interior_nodes_freed_and_leaf_gradients_kept(self):
        leaves, h, loss = self._graph(0)
        conv = weakref.ref(h._parents[0]._parents[0])  # held only by the graph
        T.backward(loss, leaves[1:])
        assert conv() is None
        assert h.grad is None and h._parents == () and loss.grad is None
        want_leaves, _, want_loss = self._graph(0)
        backward_zero_prefill(want_loss, want_leaves[1:])
        for got, want in zip(leaves, want_leaves):  # the input x requires a gradient, so it is a leaf too
            assert got.grad.tobytes() == want.grad.tobytes()

    def test_second_sweep_from_released_root_raises(self):
        leaves, _, loss = self._graph(1)
        T.backward(loss, leaves)
        with pytest.raises(GraphError, match="released"):
            T.backward(loss, leaves)

    def test_sweep_through_released_node_raises_before_resetting(self):
        leaves, h, loss = self._graph(2)
        T.backward(loss, leaves)
        grads = [p.grad.copy() for p in leaves]
        # without the check this sweep would stop at h and leave w and b a zero gradient
        with pytest.raises(GraphError, match="released"):
            T.backward(T.tsum(T.mul(h, h)), leaves)
        assert all(np.array_equal(p.grad, g) for p, g in zip(leaves, grads))


class TestDtypeRule:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_float32_and_float64(self, rng, dtype):
        x = rng.normal(size=(2, 3)).astype(dtype)
        t = T.tensor(x)
        assert t.data is x

    @pytest.mark.parametrize(
        "value", [3, 2.5, [1, 2], [0.5, 1.5], True, np.arange(4, dtype=np.int32), np.ones(2, dtype=np.float16)]
    )
    def test_anything_else_becomes_float64(self, value):
        assert T.tensor(value).data.dtype == np.float64

    def test_float32_train_step_stays_float32(self, tmp_path, monkeypatch):
        from tests.test_model import SMALL, tile_dataset

        contributions, steps = [], []
        accum, sgd_step = T._accum, T.sgd_step

        def spy_accum(t, g):
            contributions.append((t.data.dtype, np.asarray(g).dtype))
            accum(t, g)

        def spy_step(params, grads, state):
            out = sgd_step(params, grads, state)
            steps.append([a.dtype for p, v in zip(params, state.velocities) for a in (p.data, p.grad, v)])
            return out

        monkeypatch.setattr(T, "_accum", spy_accum)
        monkeypatch.setattr(T, "sgd_step", spy_step)
        man = tile_dataset(tmp_path)  # 18 tiles, one batch
        ckpt, trace = model.train(SMALL, [man], model.TrainConfig(epochs=1, batch_size=18, schedule=(), seed=0))
        assert len(steps) == 1 and set(steps[0]) == {np.dtype(np.float32)}
        # each gradient an op hands back is in its tensor's dtype, so an upcast
        # that the += into a float32 .grad would hide still shows; only the
        # scalar loss terms are float64
        f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
        assert set(contributions) == {(f32, f32), (f64, f64)}
        assert {v.dtype for v in ckpt.params.values()} == {np.dtype(np.float32)}
        assert type(trace[0]) is float

    def test_check_gradients_float64(self, rng):
        x = T.tensor(rng.normal(size=(2, 2, 6, 6)))
        w = T.tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        head = T.tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = T.tensor(np.zeros(4), requires_grad=True)

        def loss():
            feats = T.global_avg_pool(T.relu(T.conv2d(x, w, 2)))
            return T.cross_entropy(T.linear(feats, head, b), np.array([0, 3]))

        # 4.8e-11 here; the same graph in float32 reads 1.5e-2
        assert T.check_gradients(loss, [w, head, b]) <= 1e-8
        assert all(p.data.dtype == p.grad.dtype == np.float64 for p in (w, head, b))


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
        hyper = model.TrainConfig(lr=0.01, schedule=((20, 10.0), (40, 10.0)))
        assert hyper.lr_at(0) == pytest.approx(0.01)
        assert hyper.lr_at(19) == pytest.approx(0.01)
        assert hyper.lr_at(20) == pytest.approx(0.001)
        assert hyper.lr_at(39) == pytest.approx(0.001)
        assert hyper.lr_at(40) == pytest.approx(0.0001)

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

        def square_half_gradient(a):
            # the backward hands back x, not d(x^2)/dx = 2x
            def bwd(out):
                T._accum(a, out.grad * a.data)

            return T._result(a.data * a.data, (a,), bwd)

        def loss():
            z = T.linear(x, square_half_gradient(w), T.tensor(np.zeros(3)))
            return T.cross_entropy(z, np.array([0, 2]))

        err = T.check_gradients(loss, [w])
        assert err > 1e-4

    def test_subsampling_deterministic(self, rng):
        w = T.tensor(rng.normal(size=(20, 20)), requires_grad=True)

        def loss():
            return T.tsum(T.mul(w, w))

        e1 = T.check_gradients(loss, [w], max_samples=50, seed=3)
        e2 = T.check_gradients(loss, [w], max_samples=50, seed=3)
        assert e1 == e2

    def test_perturbed_losses_record_no_graph(self, rng):
        w = T.tensor(rng.normal(size=(2, 3)), requires_grad=True)
        frozen = T.tensor(rng.normal(size=(2, 3)))
        recorded = []

        def loss():
            out = T.tsum(T.mul(w, frozen))
            recorded.append(out.requires_grad)
            return out

        assert T.check_gradients(loss, [w]) <= 1e-9
        # the first call builds the graph for the analytic side; none after it
        assert recorded == [True] + [False] * 12
        assert w.requires_grad

    def test_flags_restored_when_the_loss_raises(self, rng):
        w = T.tensor(rng.normal(size=(4,)), requires_grad=True)
        calls = []

        def loss():
            calls.append(None)
            if len(calls) == 3:
                raise NumericError("boom")
            return T.tsum(T.mul(w, w))

        with pytest.raises(NumericError):
            T.check_gradients(loss, [w])
        assert w.requires_grad

    def test_parameter_restored_when_the_loss_raises(self):
        # the third call is the first element's minus side: w[0] = 1 - eps
        w = T.tensor(np.array([1.0, 2.0]), requires_grad=True)
        calls = []

        def loss():
            calls.append(None)
            if len(calls) == 3:
                raise NumericError("boom")
            return T.tsum(T.mul(w, w))

        with pytest.raises(NumericError):
            T.check_gradients(loss, [w])
        assert w.data.tolist() == [1.0, 2.0]


# (input shape, kernel shape, stride): the desk classifier's convs (32-px
# tiles, channels 8/16/32, attention 1x1s) at a small and a training batch,
# single-sample batches, and the 1x1 output map of an 8-px one
ORACLE_CASES = [
    ((2, 3, 32, 32), (8, 3, 3, 3), 1),
    ((32, 3, 32, 32), (8, 3, 3, 3), 1),
    ((32, 8, 32, 32), (8, 8, 3, 3), 2),
    ((32, 8, 16, 16), (16, 8, 3, 3), 1),
    ((2, 16, 16, 16), (16, 16, 3, 3), 2),
    ((32, 16, 8, 8), (32, 16, 3, 3), 1),
    ((32, 32, 8, 8), (32, 32, 3, 3), 2),
    ((32, 32, 8, 8), (16, 32, 1, 1), 1),
    ((2, 16, 16, 16), (8, 16, 1, 1), 1),
    ((1, 8, 16, 16), (16, 8, 3, 3), 1),
    ((1, 8, 16, 16), (16, 8, 3, 3), 2),
    ((8, 4, 2, 2), (4, 4, 3, 3), 2),
    ((64, 4, 2, 2), (4, 4, 3, 3), 2),
]


KERNEL_GRAD_RTOL = 1e-12  # float64 kernel gradient against the einsum's


class TestEinsumOracles:
    @pytest.mark.parametrize("x_shape,w_shape,stride", ORACLE_CASES)
    def test_conv_bit_equal(self, rng, x_shape, w_shape, stride):
        x = rng.normal(size=x_shape)
        w = rng.normal(size=w_shape)
        upstream = rng.normal(size=same(conv2d_einsum)(T.tensor(x), T.tensor(w), stride).data.shape)
        want = conv_run(same(conv2d_einsum), backward_zero_prefill, x, w, stride, upstream)
        got = conv_run(T.conv2d, T.backward, x, w, stride, upstream)
        for g, e, what in zip(got, want, ("output", "input gradient", "kernel gradient")):
            # the memory order decides how later reductions sum; the stride
            # of a length-1 axis is never stepped
            assert [st for st, d in zip(g.strides, g.shape) if d > 1] == [
                st for st, d in zip(e.strides, e.shape) if d > 1
            ], what
            if what == "kernel gradient":
                # taken from the forward's im2col matrix, whose layout makes
                # BLAS sum in another order than einsum does
                np.testing.assert_allclose(g, e, rtol=KERNEL_GRAD_RTOL, atol=0, err_msg=what)
            else:
                assert g.tobytes() == e.tobytes(), what

    # float32 training: on the small model the kernel gradient from the im2col
    # matrix sums in another order than einsum's, which moved 20 weights by up
    # to 3e-8; the desk run stays bit-equal
    @pytest.mark.parametrize(
        "cfg,batch,atol",
        [
            (model.BackboneConfig(input_size=8, stage_channels=(2, 3, 4), num_classes_per_task=(3,)), 8, 1e-6),
            (model.BackboneConfig(input_size=32, stage_channels=(8, 16, 32), num_classes_per_task=(8,)), 32, 0.0),
        ],
        ids=["small", "desk"],
    )
    def test_training_epoch_bit_equal(self, tmp_path, monkeypatch, cfg, batch, atol):
        from tests.test_model import tile_dataset

        k = cfg.num_classes_per_task[0]
        man = tile_dataset(tmp_path, n_classes=k, per_class=64 // k, size=cfg.input_size)
        hyper = model.TrainConfig(epochs=1, batch_size=batch, lr=0.01, schedule=(), seed=2)
        got, got_trace = model.train(cfg, [man], hyper)
        monkeypatch.setattr(T, "conv2d", same(conv2d_einsum))
        monkeypatch.setattr(T, "backward", backward_zero_prefill)
        want, want_trace = model.train(cfg, [man], hyper)
        np.testing.assert_allclose(got_trace, want_trace, rtol=0, atol=atol)
        for name in want.params:
            assert got.params[name].dtype == want.params[name].dtype == np.float32, name
            np.testing.assert_allclose(got.params[name], want.params[name], rtol=0, atol=atol, err_msg=name)
