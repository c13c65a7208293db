"""Dense tensor engine with reverse-mode differentiation and SGD.

Values are float32 or float64 numpy arrays: a tensor keeps a float32 or
float64 input's dtype and stores anything else as float64, and every op
computes in its inputs' dtype.  Training runs in float32, the checkpoint's
precision; the gradient checks run in float64.  An operation builds the
backward graph eagerly when one of its inputs requires a gradient, and
otherwise records nothing and does no gradient-only work, as in the
classifier's forward; :func:`backward` runs the reverse sweep from a
scalar loss and then releases the graph, so a training step holds one
step's graph at a time.  Non-finite values (NaN/Inf) are an error state --
they are not checked op-by-op for speed, callers guard loss values.

The image ops (:func:`conv2d`, :func:`bias_add`, :func:`upsample_nearest`,
:func:`global_avg_pool`) take ``[N, C, H, W]`` batches only; :func:`linear`
and :func:`cross_entropy` take ``[B, ·]`` batches only, and the loss is the
batch mean.  Any other rank is a :class:`ShapeError`.  :func:`conv2d` runs
same convolutions only: an odd square kernel, zero padding of its
half-width, and a stride that divides H and W.  It moves its data in long
contiguous runs: the input is split once into stride x stride phase planes,
and each kernel tap is one flat shifted copy (im2col) or add (col2im) on a
plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GraphError, ShapeError

__all__ = [
    "Tensor",
    "tensor",
    "add",
    "mul",
    "scale",
    "relu",
    "sigmoid",
    "conv2d",
    "upsample_nearest",
    "global_avg_pool",
    "linear",
    "bias_add",
    "softmax",
    "tsum",
    "cross_entropy",
    "backward",
    "OptimizerState",
    "sgd_step",
    "check_gradients",
]


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype in (np.float32, np.float64) else data.astype(np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other) if isinstance(other, Tensor) else scale(self, other)

    __rmul__ = __mul__


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad)


def _result(data, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # empty_like keeps the data's memory layout, which the reductions of
        # later backward steps sum in; adding to 0.0 keeps zero signs as a
        # zero-filled buffer would
        t.grad = np.empty_like(t.data)
        np.add(g, 0.0, out=t.grad)
    else:
        t.grad += g


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add shapes differ: {a.data.shape} vs {b.data.shape}")

    def bwd(out):
        _accum(a, out.grad)
        _accum(b, out.grad)

    return _result(a.data + b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul shapes differ: {a.data.shape} vs {b.data.shape}")

    def bwd(out):
        _accum(a, out.grad * b.data)
        _accum(b, out.grad * a.data)

    return _result(a.data * b.data, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(out):
        _accum(a, out.grad * c)

    return _result(a.data * c, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    def bwd(out):
        _accum(a, out.grad * (a.data > 0))

    out = np.fmax(a.data, 0.0)
    out += 0.0  # -0.0 becomes +0.0, as a select on x > 0 gives
    return _result(out, (a,), bwd)


def sigmoid(a: Tensor) -> Tensor:
    # never exponentiates a positive argument; for x >= 0 the numerator is 1
    e = np.exp(-np.abs(a.data))
    s = np.maximum(e, a.data >= 0) / (1 + e)

    def bwd(out):
        _accum(a, out.grad * s * (1.0 - s))

    return _result(s, (a,), bwd)


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax of a plain array over its last axis, stabilized by max subtraction."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _check_nchw(x: np.ndarray, what: str) -> None:
    if x.ndim != 4:
        raise ShapeError(f"{what} expects [N,C,H,W], got {x.shape}")


def _shifts(k: int, stride: int, w_out: int, size: int):
    """For each tap (i, j) of a same conv's k x k kernel, in order: the phase
    plane (ry, rx) it reads and the slices ``out`` and ``src`` of a flat run
    of ``size`` outputs (N*H'*W') that pair output q with plane position
    q + dy*W' + dx, where divmod(t - k // 2, stride) is the tap's (shift,
    phase) along each axis.  Pairs whose shifted row or column leaves the
    map are :func:`_zero_edges`'s."""
    for i in range(k):
        dy, ry = divmod(i - k // 2, stride)
        for j in range(k):
            dx, rx = divmod(j - k // 2, stride)
            off = dy * w_out + dx
            m = min(abs(off), size)
            if off >= 0:
                yield i, j, ry, rx, slice(0, size - m), slice(m, size)
            else:
                yield i, j, ry, rx, slice(m, size), slice(0, size - m)


def _zero_edges(grid: np.ndarray, stride: int) -> None:
    """Zero the entries of a [C, k, k, N, H', W'] im2col grid whose tap reads
    the padding: the rows and columns that the tap's shift d moves outside
    the map.  Across a flat run those read the next or the previous row or
    sample instead."""
    _, k, _, _, h_out, w_out = grid.shape
    for t in range(k):
        d = (t - k // 2) // stride
        if d:
            rows = slice(max(h_out - d, 0), None) if d > 0 else slice(0, -d)
            cols = slice(max(w_out - d, 0), None) if d > 0 else slice(0, -d)
            grid[:, t, :, :, rows] = 0
            grid[:, :, t, :, :, cols] = 0


def _conv2d_cols(x: np.ndarray, kernel: np.ndarray, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """[N,C,H,W] input and [C_out,C,k,k] kernel -> the same conv's output and
    the [C*k*k, N*H'*W'] im2col matrix it was made of, whose entries for
    windows over the padding are zero."""
    if stride < 1:
        raise ShapeError(f"stride must be >= 1, got {stride}")
    if kernel.ndim != 4:
        raise ShapeError(f"kernel must be 4-D, got {kernel.shape}")
    _check_nchw(x, "conv2d")
    n, c, h, w = x.shape
    c_out, c_in, kh, kw = kernel.shape
    if c_in != c:
        raise ShapeError(f"kernel expects {c_in} input channels, input has {c}")
    if kh != kw or kh % 2 == 0:
        raise ShapeError(f"conv2d takes an odd square kernel, got {kh}x{kw}")
    if h < 1 or w < 1 or h % stride or w % stride:
        raise ShapeError(f"stride {stride} does not divide the {h}x{w} input")
    h_out, w_out = h // stride, w // stride
    size = n * h_out * w_out
    k = c * kh * kw
    # im2col + GEMM.  The output is laid out [C_out, N, H', W'] and returned
    # as an [N, C_out, H', W'] view
    if h_out == w_out == 1:
        # a 1x1 output is laid out sample-major, as einsum laid it out: for
        # small products BLAS sums in an order that depends on the operands'
        # layout
        buf = np.empty((n, c, kh, kw), dtype=x.dtype)
        cols = buf.reshape(n, k).T
        windows = buf.transpose(1, 2, 3, 0)
        grid = windows[..., None, None]
    else:
        cols = np.empty((k, size), dtype=x.dtype)
        windows = cols.reshape(c, kh, kw, size)
        grid = cols.reshape(c, kh, kw, n, h_out, w_out)
    # windows and grid are the [C, k, k, N*H'*W'] and [C, k, k, N, H', W']
    # views of cols.  Phase plane (ry, rx) is x[:, :, ry::s, rx::s] as
    # [C, N*H'*W'], a view of a channel-major x at stride 1, so a 1x1 kernel
    # there costs one copy
    planes = x.reshape(n, c, h_out, stride, w_out, stride).transpose(3, 5, 1, 0, 2, 4)
    planes = planes.reshape(stride, stride, c, size)
    for i, j, ry, rx, out, src in _shifts(kh, stride, w_out, size):
        windows[:, i, j, out] = planes[ry, rx, :, src]
    _zero_edges(grid, stride)
    out = (kernel.reshape(c_out, k) @ cols).reshape(c_out, n, h_out, w_out).transpose(1, 0, 2, 3)
    return out, cols


def _col2im(dcols: np.ndarray, stride: int) -> np.ndarray:
    """[C, k, k, N, H', W'] column gradients -> the [C, N, H, W] input
    gradient, summed over the taps in (i, j) order, each sum starting at
    +0.0.  Zeroes ``dcols``'s entries over the padding in place: adding +0.0
    never changes such a sum, so each tap then adds one flat shifted run."""
    c, kh, kw, n, h_out, w_out = dcols.shape
    size = n * h_out * w_out
    _zero_edges(dcols, stride)
    flat = dcols.reshape(c, kh, kw, size)
    planes = np.zeros((stride, stride, c, size), dtype=dcols.dtype)
    for i, j, ry, rx, out, src in _shifts(kh, stride, w_out, size):
        planes[ry, rx, :, src] += flat[:, i, j, out]
    if stride == 1:
        return planes.reshape(c, n, h_out, w_out)
    dx = np.empty((c, n, h_out * stride, w_out * stride), dtype=dcols.dtype)
    for ry in range(stride):
        for rx in range(stride):
            dx[:, :, ry::stride, rx::stride] = planes[ry, rx].reshape(c, n, h_out, w_out)
    return dx


def conv2d(inp: Tensor, kernel: Tensor, stride: int = 1) -> Tensor:
    """Same 2-D cross-correlation: an odd k x k kernel over the input
    zero-padded by (k - 1) / 2 on each side, at a stride that divides H and
    W, so the output is [N, C_out, H / stride, W / stride].

    ``inp`` is [N,C,H,W]; ``kernel`` is [C_out,C,k,k].  Any other kernel or
    stride is a :class:`ShapeError`.
    """
    out, cols = _conv2d_cols(inp.data, kernel.data, stride)

    def bwd(res):
        c_out, c, kh, kw = kernel.data.shape
        n, _, h_out, w_out = out.shape
        gm = res.grad.transpose(1, 0, 2, 3).reshape(c_out, n * h_out * w_out)
        if kernel.requires_grad:
            _accum(kernel, (gm @ cols.T).reshape(kernel.data.shape))  # the forward's im2col matrix
        if inp.requires_grad:
            dcols = (kernel.data.reshape(c_out, -1).T.copy() @ gm).reshape(c, kh, kw, n, h_out, w_out)
            g = _col2im(dcols, stride).transpose(1, 0, 2, 3)
            if inp.grad is None and g.dtype == inp.data.dtype and g.strides == inp.data.strides:
                # a fresh buffer of sums that start at +0.0 holds no -0.0, so
                # _accum's copy would give the same bytes in the same layout
                inp.grad = g
            else:
                _accum(inp, g)

    return _result(out, (inp, kernel), bwd)


def upsample_nearest(inp: Tensor, factor: int) -> Tensor:
    """Nearest-neighbor upsampling: out[.., y, x] = in[.., y // factor, x // factor]."""
    if factor < 1:
        raise ShapeError(f"factor must be >= 1, got {factor}")
    _check_nchw(inp.data, "upsample_nearest")

    def bwd(res):
        n, c, fh, fw = res.grad.shape
        _accum(inp, res.grad.reshape(n, c, fh // factor, factor, fw // factor, factor).sum(axis=(3, 5)))

    return _result(np.repeat(np.repeat(inp.data, factor, axis=2), factor, axis=3), (inp,), bwd)


def global_avg_pool(inp: Tensor) -> Tensor:
    """Per-channel spatial mean: [N,C,H,W] -> [N,C]."""
    x = inp.data
    _check_nchw(x, "global_avg_pool")
    if x.shape[2] < 1 or x.shape[3] < 1:
        raise ShapeError("empty spatial extent")

    def bwd(res):
        _accum(inp, np.broadcast_to(res.grad[:, :, None, None] / (x.shape[2] * x.shape[3]), x.shape).copy())

    return _result(x.mean(axis=(2, 3)), (inp,), bwd)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map ``x @ weight.T + bias`` for [B,C] inputs."""
    w, b = weight.data, bias.data
    if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
        raise ShapeError(f"bad head shapes {w.shape}, {b.shape}")
    if x.data.ndim != 2 or x.data.shape[1] != w.shape[1]:
        raise ShapeError(f"linear expects [B,{w.shape[1]}], got {x.data.shape}")

    def bwd(res):
        _accum(x, res.grad @ w)
        _accum(weight, res.grad.T @ x.data)
        _accum(bias, res.grad.sum(axis=0))

    return _result(x.data @ w.T + b, (x, weight, bias), bwd)


def bias_add(inp: Tensor, bias: Tensor) -> Tensor:
    """Add a per-channel bias vector to an [N,C,H,W] map."""
    _check_nchw(inp.data, "bias_add")
    b = bias.data
    if b.ndim != 1 or b.shape[0] != inp.data.shape[1]:
        raise ShapeError(f"bias {b.shape} does not match {inp.data.shape[1]} channels")

    def bwd(res):
        _accum(inp, res.grad)
        _accum(bias, res.grad.sum(axis=(0, 2, 3)))

    return _result(inp.data + b[:, None, None], (inp, bias), bwd)


def tsum(a: Tensor) -> Tensor:
    def bwd(out):
        _accum(a, np.full_like(a.data, float(out.grad)))

    return _result(a.data.sum(), (a,), bwd)


def cross_entropy(logits: Tensor, target) -> Tensor:
    """Batch mean of -log softmax(logits)[target] over [B,N] logits."""
    z = logits.data
    if z.ndim != 2:
        raise ShapeError(f"cross_entropy expects [B,N], got {z.shape}")
    b, n = z.shape
    t = np.asarray(target, dtype=np.int64)
    if t.shape != (b,):
        raise ShapeError(f"targets {t.shape} do not match batch {b}")
    if np.any(t < 0) or np.any(t >= n):
        raise IndexError(f"target outside [0, {n})")
    shifted = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(b), t]
    loss = float((lse - picked).mean())

    def bwd(out):
        p = softmax(z)
        p[np.arange(b), t] -= 1.0
        _accum(logits, float(out.grad) * p / b)

    return _result(loss, (logits,), bwd)


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def _released(node: Tensor) -> None:
    """The backward of a node whose graph an earlier sweep released."""
    raise GraphError("the graph was released by an earlier backward")


def backward(loss: Tensor, params: list[Tensor] | None = None) -> None:
    """Reverse sweep from a scalar loss, which then releases the graph.

    Gradients of every tensor reached in this sweep are reset and then
    populated, each allocated when its first contribution arrives;
    parameters in ``params`` that received none get a zero gradient.  Only
    leaves (parameters and inputs) keep their gradient: an interior node
    drops its gradient once its own backward has run, and its backward and
    parents when the sweep ends, which frees the activations and im2col
    matrices the graph held.  A later sweep from or through a released node
    is a :class:`GraphError`.
    """
    if loss.data.shape != ():
        raise GraphError(f"backward root must be scalar, got shape {loss.data.shape}")
    order = _topo_order(loss)
    if any(node._backward is _released for node in order):  # before any gradient is reset
        _released(loss)
    params = list(params or ())
    for node in order + params:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None:
            if node.grad is not None:
                node._backward(node)
            node.grad = None
    # let go once the sweep has ended, while order still holds every node,
    # rather than node by node during it, which made glibc give the heap
    # top back and fault it in again on every step
    for node in order:
        if node._backward is not None:
            node._backward, node._parents = _released, ()
    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)


@dataclass
class OptimizerState:
    """SGD hyperparameters and velocity buffers.  The caller sets ``lr``
    for each epoch."""

    lr: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    velocities: list[np.ndarray] = field(default_factory=list)

    def ensure_velocities(self, params: list[Tensor]) -> None:
        if not self.velocities:
            self.velocities = [np.zeros_like(p.data) for p in params]


def sgd_step(params: list[Tensor], grads: list[np.ndarray], state: OptimizerState) -> OptimizerState:
    """One SGD update: g' = g + wd*p;  v' = momentum*v + g';  p' = p - lr*v'."""
    state.ensure_velocities(params)
    if len(grads) != len(params) or len(state.velocities) != len(params):
        raise ShapeError("params/grads/velocities length mismatch")
    for p, g, v in zip(params, grads, state.velocities):
        if g.shape != p.data.shape or v.shape != p.data.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match parameter {p.data.shape}")
        gp = g + state.weight_decay * p.data
        v *= state.momentum
        v += gp
        p.data -= state.lr * v
    return state


def check_gradients(
    loss_fn,
    params: list[Tensor],
    eps: float = 1e-5,
    max_samples: int = 10_000,
    seed: int = 0,
) -> float:
    """Compare reverse-mode gradients against central differences.

    ``loss_fn`` rebuilds the scalar loss from the current parameter values.
    Every parameter element is checked, or a seeded random subsample of
    ``max_samples`` elements when there are more than that.  Returns the
    maximum error ``|a - n| / max(1, |a|, |n|)`` over checked elements.
    """
    if eps <= 0:
        raise ShapeError(f"eps must be positive, got {eps}")
    loss = loss_fn()
    backward(loss, params)
    analytic = [p.grad.copy() for p in params]

    sizes = [p.data.size for p in params]
    coords = [(i, j) for i, n in enumerate(sizes) for j in range(n)]
    if len(coords) > max_samples:
        rng = np.random.Generator(np.random.PCG64(seed))
        pick = rng.choice(len(coords), size=max_samples, replace=False)
        coords = [coords[k] for k in np.sort(pick)]

    max_err = 0.0
    # the perturbed losses need no graph; restore the flags and flat[j] however the loop ends
    flags = [p.requires_grad for p in params]
    for p in params:
        p.requires_grad = False
    flat = None
    try:
        for pi, j in coords:
            flat = params[pi].data.reshape(-1)
            orig = flat[j]
            flat[j] = orig + eps
            lp = float(loss_fn().data)
            flat[j] = orig - eps
            lm = float(loss_fn().data)
            flat[j] = orig
            numeric = (lp - lm) / (2.0 * eps)
            a = float(analytic[pi].reshape(-1)[j])
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            if err > max_err:
                max_err = err
    finally:
        if flat is not None:
            flat[j] = orig
        for p, flag in zip(params, flags):
            p.requires_grad = flag
    return max_err
