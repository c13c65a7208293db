"""Dense tensor engine with reverse-mode differentiation and SGD.

Values are float32 or float64 numpy arrays: a tensor keeps a float32 or
float64 input's dtype and stores anything else as float64, and every op
computes in its inputs' dtype.  Training runs in float32, the checkpoint's
precision; the gradient checks run in float64.  Every operation builds the
backward graph eagerly; :func:`backward` runs the reverse sweep from a
scalar loss.  Non-finite values (NaN/Inf) are an error state -- they are
not checked op-by-op for speed, callers guard loss values.  Each network
op's forward value comes from a plain array kernel that keeps its input's
dtype; :data:`arrays` holds those kernels under the ops' names, so layer
code can run on plain arrays too, and the softmax over the last axis.

Image-shaped operations (:func:`conv2d`, :func:`upsample_nearest`,
:func:`global_avg_pool`) take a single ``[C, H, W]`` tensor or a batched
``[N, C, H, W]`` tensor; the loss ops take a single logit vector or a
``[B, N]`` batch, reducing to the batch mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

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
    "arrays",
    "tsum",
    "cross_entropy",
    "backward",
    "OptimizerState",
    "sgd_step",
    "check_gradients",
]


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

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


def _relu(x: np.ndarray) -> np.ndarray:
    out = np.fmax(x, 0.0)
    out += 0.0  # -0.0 becomes +0.0, as a select on x > 0 gives
    return out


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def bwd(out):
        _accum(a, out.grad * mask)

    return _result(_relu(a.data), (a,), bwd)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # never exponentiates a positive argument; for x >= 0 the numerator is 1
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1 + e)


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid(a.data)

    def bwd(out):
        _accum(a, out.grad * s * (1.0 - s))

    return _result(s, (a,), bwd)


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, stabilized by max subtraction."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _as_batched(x: np.ndarray, what: str) -> tuple[np.ndarray, bool]:
    if x.ndim == 3:
        return x[None], True
    if x.ndim == 4:
        return x, False
    raise ShapeError(f"{what} expects [C,H,W] or [N,C,H,W], got {x.shape}")


def _taps(k: int, n_in: int, n_out: int, stride: int, pad: int):
    """For each offset t of a k-wide kernel along one axis whose window reads
    real input, not padding, at some output: (t, the slice of those outputs,
    the slice of the input rows they read at t)."""
    for t in range(k):
        lo = max(0, -((t - pad) // stride))  # first output whose row t - pad + stride * o is >= 0
        hi = min(n_out, (n_in - 1 + pad - t) // stride + 1)  # past the last one whose row is < n_in
        if hi > lo:
            start = t - pad + stride * lo
            yield t, slice(lo, hi), slice(start, start + stride * (hi - lo - 1) + 1, stride)


def _conv2d_cols(x: np.ndarray, kernel: np.ndarray, stride: int, pad: int) -> tuple[np.ndarray, np.ndarray]:
    """[C,H,W] or [N,C,H,W] input and [C_out,C,kH,kW] kernel -> the output
    and the [C*kH*kW, N*H'*W'] im2col matrix it was made of, whose entries
    for windows over the padding are zero."""
    if stride < 1:
        raise ShapeError(f"stride must be >= 1, got {stride}")
    if pad < 0:
        raise ShapeError(f"pad must be >= 0, got {pad}")
    if kernel.ndim != 4:
        raise ShapeError(f"kernel must be 4-D, got {kernel.shape}")
    x, squeeze = _as_batched(x, "conv2d")
    n, c, h, w = x.shape
    c_out, c_in, kh, kw = kernel.shape
    if c_in != c:
        raise ShapeError(f"kernel expects {c_in} input channels, input has {c}")
    if kh > h + 2 * pad or kw > w + 2 * pad:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {h + 2 * pad}x{w + 2 * pad}")
    h_out = (h + 2 * pad - kh) // stride + 1
    w_out = (w + 2 * pad - kw) // stride + 1
    # im2col + GEMM: one slice write per tap (i, j) from the unpadded input
    # into a zeroed buffer, whose zeros stand in for the padding.  The output
    # is laid out [C_out, N, H', W'] and returned as an [N, C_out, H', W'] view
    k = c * kh * kw
    if h_out == w_out == 1:
        # sample-major, as einsum laid out this case: for small products BLAS
        # sums in an order that depends on the operands' layout
        buf = np.zeros((n, c, kh, kw), dtype=x.dtype)
        cols = buf.reshape(n, k).T
        windows = buf.transpose(1, 2, 3, 0)[..., None, None]
    else:
        windows = np.zeros((c, kh, kw, n, h_out, w_out), dtype=x.dtype)
        cols = windows.reshape(k, n * h_out * w_out)
    # windows is the [C, kH, kW, N, H', W'] view of cols
    xc = x.transpose(1, 0, 2, 3)
    for i, oy, iy in _taps(kh, h, h_out, stride, pad):
        for j, ox, ix in _taps(kw, w, w_out, stride, pad):
            windows[:, i, j, :, oy, ox] = xc[:, :, iy, ix]
    out = (kernel.reshape(c_out, k) @ cols).reshape(c_out, n, h_out, w_out).transpose(1, 0, 2, 3)
    return out[0] if squeeze else out, cols


def conv2d(inp: Tensor, kernel: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D cross-correlation over an input zero-padded by ``pad`` on each side.

    ``inp`` is [C,H,W] or [N,C,H,W]; ``kernel`` is [C_out,C_in,kH,kW].
    Output spatial size is floor((H + 2*pad - kH)/stride) + 1.
    """
    out, cols = _conv2d_cols(inp.data, kernel.data, stride, pad)
    c_out, c, kh, kw = kernel.data.shape
    h, w = inp.data.shape[-2:]
    h_out, w_out = out.shape[-2:]
    squeeze = inp.data.ndim == 3
    n = 1 if squeeze else out.shape[0]
    kmat = kernel.data.reshape(c_out, -1)

    def bwd(res):
        g = res.grad if not squeeze else res.grad[None]
        gm = g.transpose(1, 0, 2, 3).reshape(c_out, n * h_out * w_out)
        if kernel.requires_grad:
            _accum(kernel, (gm @ cols.T).reshape(kernel.data.shape))  # the forward's im2col matrix
        if inp.requires_grad:
            dcols = (kmat.T.copy() @ gm).reshape(c, kh, kw, n, h_out, w_out)
            # col2im over the taps that read real input, in (i, j) order;
            # channel-major, so each tap adds in place, in the gradient's dtype
            dx = np.zeros((c, n, h, w), dtype=dcols.dtype)
            for i, oy, iy in _taps(kh, h, h_out, stride, pad):
                for j, ox, ix in _taps(kw, w, w_out, stride, pad):
                    dx[:, :, iy, ix] += dcols[:, i, j, :, oy, ox]
            dx = dx.transpose(1, 0, 2, 3)
            _accum(inp, dx[0] if squeeze else dx)

    return _result(out, (inp, kernel), bwd)


def _upsample_nearest(x: np.ndarray, factor: int) -> np.ndarray:
    if factor < 1:
        raise ShapeError(f"factor must be >= 1, got {factor}")
    _as_batched(x, "upsample_nearest")
    return np.repeat(np.repeat(x, factor, axis=-2), factor, axis=-1)


def upsample_nearest(inp: Tensor, factor: int) -> Tensor:
    """Nearest-neighbor upsampling: out[.., y, x] = in[.., y // factor, x // factor]."""
    squeeze = inp.data.ndim == 3

    def bwd(res):
        g = res.grad if not squeeze else res.grad[None]
        n, c, fh, fw = g.shape
        pooled = g.reshape(n, c, fh // factor, factor, fw // factor, factor).sum(axis=(3, 5))
        _accum(inp, pooled[0] if squeeze else pooled)

    return _result(_upsample_nearest(inp.data, factor), (inp,), bwd)


def _global_avg_pool(x: np.ndarray) -> np.ndarray:
    _as_batched(x, "global_avg_pool")
    if x.shape[-2] < 1 or x.shape[-1] < 1:
        raise ShapeError("empty spatial extent")
    return x.mean(axis=(-2, -1))


def global_avg_pool(inp: Tensor) -> Tensor:
    """Per-channel spatial mean: [C,H,W] -> [C] or [N,C,H,W] -> [N,C]."""
    x, squeeze = _as_batched(inp.data, "global_avg_pool")

    def bwd(res):
        g = res.grad if not squeeze else res.grad[None]
        dx = np.broadcast_to(g[:, :, None, None] / (x.shape[2] * x.shape[3]), x.shape)
        _accum(inp, dx[0] if squeeze else dx.copy())

    return _result(_global_avg_pool(inp.data), (inp,), bwd)


def _linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
        raise ShapeError(f"bad head shapes {w.shape}, {b.shape}")
    if x.shape[-1] != w.shape[1]:
        raise ShapeError(f"linear expects {w.shape[1]} features, got {x.shape}")
    return x @ w.T + b


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map ``x @ weight.T + bias`` for [C] or [B,C] inputs."""

    def bwd(res):
        g = res.grad
        _accum(x, g @ weight.data)
        if x.data.ndim == 2:
            _accum(weight, g.T @ x.data)
            _accum(bias, g.sum(axis=0))
        else:
            _accum(weight, np.outer(g, x.data))
            _accum(bias, g)

    return _result(_linear(x.data, weight.data, bias.data), (x, weight, bias), bwd)


def _bias_add(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    _as_batched(x, "bias_add")
    if b.ndim != 1 or b.shape[0] != x.shape[-3]:
        raise ShapeError(f"bias {b.shape} does not match {x.shape[-3]} channels")
    return x + b[:, None, None]


def bias_add(inp: Tensor, bias: Tensor) -> Tensor:
    """Add a per-channel bias vector to a [C,H,W] or [N,C,H,W] map."""
    squeeze = inp.data.ndim == 3

    def bwd(res):
        g = res.grad if not squeeze else res.grad[None]
        _accum(inp, res.grad)
        _accum(bias, g.sum(axis=(0, 2, 3)))

    return _result(_bias_add(inp.data, bias.data), (inp, bias), bwd)


arrays = SimpleNamespace(
    conv2d=lambda x, kernel, stride=1, pad=0: _conv2d_cols(x, kernel, stride, pad)[0],
    bias_add=_bias_add,
    relu=_relu,
    sigmoid=_sigmoid,
    upsample_nearest=_upsample_nearest,
    global_avg_pool=_global_avg_pool,
    linear=_linear,
    softmax=_softmax,
)


def tsum(a: Tensor) -> Tensor:
    def bwd(out):
        _accum(a, np.full_like(a.data, float(out.grad)))

    return _result(a.data.sum(), (a,), bwd)


def cross_entropy(logits: Tensor, target) -> Tensor:
    """-log softmax(logits)[target]; batched [B,N] inputs reduce to the mean."""
    z = logits.data
    if z.ndim == 1:
        t = np.asarray([target], dtype=np.int64)
        zz = z[None]
    elif z.ndim == 2:
        t = np.asarray(target, dtype=np.int64)
        if t.shape != (z.shape[0],):
            raise ShapeError(f"targets {t.shape} do not match batch {z.shape[0]}")
        zz = z
    else:
        raise ShapeError(f"cross_entropy expects [N] or [B,N], got {z.shape}")
    n = zz.shape[1]
    if np.any(t < 0) or np.any(t >= n):
        raise IndexError(f"target outside [0, {n})")
    b = zz.shape[0]
    shifted = zz - zz.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(b), t]
    loss = float((lse - picked).mean())

    def bwd(out):
        p = _softmax(zz)
        p[np.arange(b), t] -= 1.0
        g = float(out.grad) * p / b
        _accum(logits, g[0] if z.ndim == 1 else g)

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


def backward(loss: Tensor, params: list[Tensor] | None = None) -> None:
    """Reverse sweep from a scalar loss.

    Gradients of every tensor reached in this sweep are reset and then
    populated, each allocated when its first contribution arrives;
    parameters in ``params`` that received none get a zero gradient.
    """
    if loss.data.shape != ():
        raise GraphError(f"backward root must be scalar, got shape {loss.data.shape}")
    order = _topo_order(loss)
    params = list(params or ())
    for node in order + params:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node)
    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)


@dataclass
class OptimizerState:
    """SGD hyperparameters and velocity buffers.

    ``step_schedule`` divides the base learning rate: at epoch e the
    effective lr is ``base_lr`` divided by every divisor whose epoch <= e.
    """

    lr: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    step_schedule: list[tuple[int, float]] = field(default_factory=list)
    velocities: list[np.ndarray] = field(default_factory=list)
    base_lr: float = 0.0

    def __post_init__(self):
        if self.base_lr == 0.0:
            self.base_lr = self.lr

    def ensure_velocities(self, params: list[Tensor]) -> None:
        if not self.velocities:
            self.velocities = [np.zeros_like(p.data) for p in params]

    def lr_for_epoch(self, epoch: int) -> float:
        lr = self.base_lr
        for at_epoch, divisor in self.step_schedule:
            if epoch >= at_epoch:
                lr /= divisor
        return lr


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
    grad_perturbation: float = 0.0,
) -> float:
    """Compare reverse-mode gradients against central differences.

    ``loss_fn`` rebuilds the scalar loss from the current parameter values.
    Every parameter element is checked, or a seeded random subsample of
    ``max_samples`` elements when there are more than that.  Returns the
    maximum error ``|a - n| / max(1, |a|, |n|)`` over checked elements.
    ``grad_perturbation`` is a negative-control hook that offsets the
    analytic gradients before comparison.
    """
    if eps <= 0:
        raise ShapeError(f"eps must be positive, got {eps}")
    loss = loss_fn()
    backward(loss, params)
    analytic = [p.grad.copy() + grad_perturbation for p in params]

    sizes = [p.data.size for p in params]
    coords = [(i, j) for i, n in enumerate(sizes) for j in range(n)]
    if len(coords) > max_samples:
        rng = np.random.Generator(np.random.PCG64(seed))
        pick = rng.choice(len(coords), size=max_samples, replace=False)
        coords = [coords[k] for k in np.sort(pick)]

    max_err = 0.0
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
    return max_err
