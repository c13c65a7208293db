"""Tile classification model: a small three-stage conv backbone, deep-to-
shallow attention fusion, per-stream classification heads for one or two
tasks, SGD training with the flip/rotation augmentation scheme, and
checkpoint serialization.

The three streams are ordered shallow to deep; stream weights follow the
same order, so the deepest stream carries the largest default weight.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import zlib
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import tensor as T
from .errors import (
    ChecksumError,
    ConfigError,
    DataError,
    FormatVersionError,
    IncompatibleCheckpointError,
    IoError,
    NumericError,
    ParseError,
    ShapeError,
)
from .files import read_file, write_file
from .fusion import DEFAULT_SCALE_WEIGHTS, check_weights, fuse
from .netpbm import read_ppm
from .parser import window_chunks
from .taxonomy import DatasetManifest

__all__ = [
    "BackboneConfig",
    "MSCConfig",
    "TrainConfig",
    "default_task_weights",
    "Checkpoint",
    "param_shapes",
    "init_params",
    "backbone_forward",
    "attention_fuse",
    "han_forward",
    "msc_forward",
    "msc_loss",
    "load_tiles",
    "train",
    "fine_tune",
    "save_checkpoint",
    "load_checkpoint",
    "TileClassifier",
]

CHECKPOINT_MAGIC = "SCENEPARSE-CKPT"
FORMAT_VERSION = 1

KERNEL = 3  # backbone convs are 3x3, pad 1

# byte v -> float32(v / 255), the float64 quotient rounded once: tiles and
# windows stay bytes until a batch is formed and mapped through this table
BYTE_FLOATS = (np.arange(256) / 255.0).astype(np.float32)

# Each training step frees its whole graph when its backward ends.  glibc
# gives a free heap top back to the system once it exceeds twice the largest
# mapped block freed so far (the dynamic M_MMAP_THRESHOLD rule of mallopt(3)),
# so with only im2col matrices freed before, a desk step's memory went back
# and was faulted in again on a third of the steps.  Freeing one untouched
# block of this size, which maps address space only, raises that bound to
# 32 MiB for the process; other allocators are unaffected.
HEAP_KEEP_BYTES = 16 << 20


@dataclass(frozen=True)
class BackboneConfig:
    input_size: int
    stage_channels: tuple[int, int, int] = (8, 16, 32)
    stage_strides: tuple[int, int, int] = (2, 2, 2)
    num_classes_per_task: tuple[int, ...] = (8,)

    def __post_init__(self):
        object.__setattr__(self, "stage_channels", tuple(self.stage_channels))
        object.__setattr__(self, "stage_strides", tuple(self.stage_strides))
        object.__setattr__(self, "num_classes_per_task", tuple(self.num_classes_per_task))
        if len(self.stage_channels) != 3 or len(self.stage_strides) != 3:
            raise ConfigError(
                f"exactly 3 stages required, got stage_channels {self.stage_channels}"
                f" and stage_strides {self.stage_strides}"
            )
        if any(c < 1 for c in self.stage_channels):
            raise ConfigError(f"bad stage channels {self.stage_channels}")
        if any(s < 1 for s in self.stage_strides):
            raise ConfigError(f"bad stage strides {self.stage_strides}")
        total = math.prod(self.stage_strides)
        if self.input_size < 1 or self.input_size % total != 0:
            raise ConfigError(
                f"input_size {self.input_size} not divisible by cumulative stride {total}"
                f" of stage_strides {self.stage_strides}"
            )
        if not self.num_classes_per_task or any(k < 1 for k in self.num_classes_per_task):
            raise ConfigError(f"bad class counts num_classes_per_task {self.num_classes_per_task}")


@dataclass(frozen=True)
class MSCConfig:
    stream_weights: tuple[float, float, float] = DEFAULT_SCALE_WEIGHTS
    mu_g: float = 0.5
    mu_m: float = 0.5

    def __post_init__(self):
        weights = check_weights(self.stream_weights, 3, "stream weights")
        object.__setattr__(self, "stream_weights", tuple(weights.tolist()))
        if not (self.mu_g >= 0 and self.mu_m >= 0 and abs(self.mu_g + self.mu_m - 1.0) <= 1e-12):
            raise ConfigError(
                f"task weights mu_g, mu_m must be non-negative and sum to 1, got {self.mu_g}, {self.mu_m}"
            )


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.005
    schedule: tuple[tuple[int, float], ...] = ((20, 10.0), (40, 10.0))
    seed: int = 0
    augment: bool = True

    def __post_init__(self):
        object.__setattr__(self, "schedule", tuple((int(e), float(d)) for e, d in self.schedule))
        if self.epochs < 0 or self.batch_size < 1 or self.seed < 0:
            raise ConfigError(f"bad epochs/batch_size/seed {self.epochs}/{self.batch_size}/{self.seed}")
        if not all(0 <= v < math.inf for v in (self.lr, self.momentum, self.weight_decay)):
            raise ConfigError(
                "lr, momentum, weight_decay must be finite and >= 0,"
                f" got {self.lr}, {self.momentum}, {self.weight_decay}"
            )
        if not all(0 < d < math.inf for _, d in self.schedule):
            raise ConfigError(f"schedule divisors must be finite and > 0, got {self.schedule}")

    def lr_at(self, epoch: int) -> float:
        """lr divided by every schedule divisor whose epoch is <= ``epoch``."""
        lr = self.lr
        for at_epoch, divisor in self.schedule:
            if epoch >= at_epoch:
                lr /= divisor
        return lr


FINE_TUNE_LR = 0.001


def default_task_weights(n_tasks: int) -> dict[str, float]:
    """The MSCConfig task weights for ``n_tasks`` that differ from its
    defaults: one task trains the main task alone (mu_g 1, mu_m 0)."""
    return {} if n_tasks == 2 else {"mu_g": 1.0, "mu_m": 0.0}


def param_shapes(cfg: BackboneConfig) -> dict[str, tuple[int, ...]]:
    """Parameter name -> shape, in checkpoint payload order."""
    c1, c2, c3 = cfg.stage_channels
    shapes: dict[str, tuple[int, ...]] = {}
    c_in = 3
    for i, c_out in enumerate(cfg.stage_channels, start=1):
        shapes[f"stage{i}.conv1.w"] = (c_out, c_in, KERNEL, KERNEL)
        shapes[f"stage{i}.conv1.b"] = (c_out,)
        shapes[f"stage{i}.conv2.w"] = (c_out, c_out, KERNEL, KERNEL)
        shapes[f"stage{i}.conv2.b"] = (c_out,)
        c_in = c_out
    shapes["attn1.w"] = (c1, c2, 1, 1)
    shapes["attn1.b"] = (c1,)
    shapes["attn2.w"] = (c2, c3, 1, 1)
    shapes["attn2.b"] = (c2,)
    for t, k in enumerate(cfg.num_classes_per_task):
        for s, c in enumerate((c1, c2, c3), start=1):
            shapes[f"head.g{t}.s{s}.w"] = (k, c)
            shapes[f"head.g{t}.s{s}.b"] = (k,)
    return shapes


def init_params(cfg: BackboneConfig, seed: int) -> dict[str, T.Tensor]:
    """float64 Kaiming-uniform weights (bound sqrt(6/fan_in)), zero biases; seeded."""
    rng = np.random.Generator(np.random.PCG64(seed))
    params: dict[str, T.Tensor] = {}
    for name, shape in param_shapes(cfg).items():
        if name.endswith(".b"):
            data = np.zeros(shape)
        else:
            fan_in = int(np.prod(shape[1:]))
            bound = np.sqrt(6.0 / fan_in)
            data = rng.uniform(-bound, bound, size=shape)
        params[name] = T.tensor(data, requires_grad=True)
    return params


def _stage(x: T.Tensor, params: dict[str, T.Tensor], i: int, stride: int) -> T.Tensor:
    x = T.relu(T.bias_add(T.conv2d(x, params[f"stage{i}.conv1.w"]), params[f"stage{i}.conv1.b"]))
    return T.relu(T.bias_add(T.conv2d(x, params[f"stage{i}.conv2.w"], stride), params[f"stage{i}.conv2.b"]))


def backbone_forward(image: T.Tensor, cfg: BackboneConfig, params: dict[str, T.Tensor]) -> list[T.Tensor]:
    """The stage outputs [F1, F2, F3], shallow to deep."""
    shape = image.shape
    if shape[1:] != (3, cfg.input_size, cfg.input_size):
        raise ShapeError(f"expected [N,3,{cfg.input_size},{cfg.input_size}] images, got {shape}")
    feats = [image]
    for i, stride in enumerate(cfg.stage_strides, start=1):
        feats.append(_stage(feats[-1], params, i, stride))
    return feats[1:]


def attention_fuse(sf: T.Tensor, df: T.Tensor, w: T.Tensor, b: T.Tensor) -> T.Tensor:
    """AF = SF + SF * sigmoid(conv1x1(upsample(DF), w) + b).

    The 1x1 conv, its bias and the sigmoid act pixel by pixel, so they
    commute with nearest upsampling: they run at the deep map's resolution
    and their result is upsampled, a quarter of the pixels at stride 2."""
    sh, sw = sf.shape[-2:]
    dh, dw = df.shape[-2:]
    if dh < 1 or sh % dh != 0 or sw % dw != 0 or sh // dh != sw // dw:
        raise ShapeError(f"deep {dh}x{dw} does not divide shallow {sh}x{sw}")
    gate = T.sigmoid(T.bias_add(T.conv2d(df, w), b))
    sam = T.upsample_nearest(gate, sh // dh)
    if sam.shape != sf.shape:
        raise ShapeError(f"attention map {sam.shape} does not match shallow {sf.shape}")
    return sf + sf * sam


def han_forward(feats: list[T.Tensor], params: dict[str, T.Tensor]) -> list[T.Tensor]:
    """Chain attention deep to shallow: [AF1, AF2, AF3] with AF3 = F3."""
    f1, f2, f3 = feats
    af2 = attention_fuse(f2, f3, params["attn2.w"], params["attn2.b"])
    af1 = attention_fuse(f1, af2, params["attn1.w"], params["attn1.b"])
    return [af1, af2, f3]


def msc_forward(image: T.Tensor, cfg: BackboneConfig, params: dict[str, T.Tensor], task: int) -> list[T.Tensor]:
    """One task's logits per stream, out[s] from GAP(AF_{s+1}) -> its linear
    head.  Training and the classifier both run it; with parameters that
    require no gradient, as the classifier holds them, it records no graph."""
    pooled = [T.global_avg_pool(af) for af in han_forward(backbone_forward(image, cfg, params), params)]
    head = f"head.g{task}.s"
    return [T.linear(z, params[f"{head}{s}.w"], params[f"{head}{s}.b"]) for s, z in enumerate(pooled, start=1)]


def msc_loss(logits: list[list[T.Tensor]], targets: list, cfg: MSCConfig) -> T.Tensor:
    """sum_t mu_t sum_s w_s CE(logits[t][s], targets[t]) over the main task
    (t = 0, weight mu_g) and, when given, the auxiliary one (t = 1, mu_m)."""
    w = cfg.stream_weights
    if not 1 <= len(logits) <= 2 or len(logits) != len(targets):
        raise ShapeError(f"{len(logits)} tasks of logits and {len(targets)} of targets; 1 or 2 tasks supported")
    loss = None
    for t, (streams, y, mu) in enumerate(zip(logits, targets, (cfg.mu_g, cfg.mu_m))):
        if len(streams) != len(w):
            raise ShapeError(f"task {t} has {len(streams)} streams but {len(w)} weights")
        for ws, z in zip(w, streams):
            term = T.scale(T.cross_entropy(z, y), ws * mu)
            loss = term if loss is None else T.add(loss, term)
    return loss


def load_tiles(manifest: DatasetManifest, input_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Read every tile's bytes into [M,3,s,s] uint8, plus int64 labels.
    Training and the classifier map each batch through BYTE_FLOATS."""
    labels = np.empty(len(manifest.samples), dtype=np.int64)
    if not manifest.samples:
        return np.empty((0, 3, input_size, input_size), dtype=np.uint8), labels
    for i, s in enumerate(manifest.samples):
        try:
            rgb = read_ppm(s.raster_path)
        except (IoError, ParseError) as e:
            raise DataError(f"sample {s.sample_id}: {e}") from e
        if rgb.shape != (input_size, input_size, 3):
            raise DataError(f"sample {s.sample_id}: tile is {rgb.shape[:2]}, expected {input_size}x{input_size}")
        if i == 0:  # after the first shape check, so a wrong input_size is a DataError, not a huge allocation
            images = np.empty((len(manifest.samples), 3, input_size, input_size), dtype=np.uint8)
        images[i] = rgb.transpose(2, 0, 1)
        labels[i] = s.fine_label
    return images, labels


@functools.cache
def _orientations(side: int) -> np.ndarray:
    """Read-only [16, side*side] flat pixel indices of a square tile after a
    horizontal flip (code // 8), then a vertical flip (code // 4 % 2), then
    code % 4 quarter turns."""
    out = []
    for code in range(16):
        idx = np.arange(side * side).reshape(side, side)
        if code // 8:
            idx = idx[:, ::-1]
        if code // 4 % 2:
            idx = idx[::-1, :]
        out.append(np.rot90(idx, k=code % 4).ravel())
    table = np.stack(out)
    table.flags.writeable = False
    return table


def _augment_batch(batch: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random horizontal/vertical flips and quarter-turn rotations per tile,
    moved by one gather: each tile channel's pixels are taken through its
    orientation's flat indices."""
    n, c, h, w = batch.shape
    flips_h = rng.integers(0, 2, size=n)
    flips_v = rng.integers(0, 2, size=n)
    quarters = rng.integers(0, 4, size=n)
    pixels = _orientations(h)[flips_h * 8 + flips_v * 4 + quarters]
    starts = np.arange(n * c).reshape(n, c, 1) * (h * w)  # of each tile channel in the flat batch
    return np.take(batch, starts + pixels[:, None, :]).reshape(batch.shape)


@dataclass
class Checkpoint:
    config: BackboneConfig
    msc: MSCConfig
    labels: list[str]
    label_ids: list[int]
    params: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)


def _label_table(labels, label_ids, n_classes: int, error=ConfigError) -> tuple[list[str], list[int]]:
    """The label table as lists: one name per main-task class, one id per name,
    each an integer in [0, 2**31) (grid cells hold int32) as a Python int."""
    labels, label_ids = list(labels), list(label_ids)
    if len(labels) != n_classes or len(label_ids) != len(labels):
        raise error("label table does not cover the main task's classes")
    if any(isinstance(i, bool) or not isinstance(i, numbers.Integral) or not 0 <= i < 2**31 for i in label_ids):
        raise error(f"label ids must lie in [0, 2**31), got {label_ids}")
    return labels, [int(i) for i in label_ids]


def _trainable(values: np.ndarray) -> T.Tensor:
    """A float32 copy of ``values`` to train: SGD runs in the precision the
    checkpoint stores."""
    return T.tensor(np.array(values, dtype=np.float32), requires_grad=True)


def train(
    cfg: BackboneConfig,
    manifests: list[DatasetManifest],
    hyper: TrainConfig,
    msc: MSCConfig | None = None,
    labels: list[str] | None = None,
    label_ids: list[int] | None = None,
    init_overrides: dict[str, np.ndarray] | None = None,
    on_epoch: Callable[[int, float], None] | None = None,
) -> tuple[Checkpoint, list[float]]:
    """SGD training; one manifest trains the main task alone, two manifests
    train main + auxiliary jointly: each step takes the main task's next
    batch positions in every task's permutation, wrapping around a smaller set.

    ``init_overrides`` replaces matching freshly-initialized parameters
    before the first step (used to warm-start from a checkpoint).
    ``on_epoch(epoch, mean_loss)`` is called as each epoch ends.  Returns
    the checkpoint and the per-epoch mean loss trace.  The parameters train
    in float32, the precision the checkpoint stores; each loss is a float64
    scalar.  The tiles stay bytes: each batch is augmented as uint8 and then
    mapped through BYTE_FLOATS.  Fully deterministic for a fixed (seed,
    config, data).
    """
    if not manifests or any(not m.samples for m in manifests):
        raise ConfigError("training needs at least one non-empty manifest")
    if len(manifests) > 2:
        raise ConfigError(f"at most 2 tasks supported, got {len(manifests)}")
    if len(manifests) != len(cfg.num_classes_per_task):
        raise ConfigError(
            f"{len(manifests)} manifests but {len(cfg.num_classes_per_task)} head tasks configured"
        )
    if msc is None:
        msc = MSCConfig(**default_task_weights(len(manifests)))
    if len(manifests) == 1 and msc.mu_m != 0.0:
        raise ConfigError("auxiliary weight is non-zero but no auxiliary manifest given")
    labels = [f"class_{i + 1}" for i in range(cfg.num_classes_per_task[0])] if labels is None else labels
    label_ids = range(1, len(labels) + 1) if label_ids is None else label_ids
    labels, label_ids = _label_table(labels, label_ids, cfg.num_classes_per_task[0])

    data = []
    for t, m in enumerate(manifests):
        images, targets = load_tiles(m, cfg.input_size)
        k = cfg.num_classes_per_task[t]
        if targets.size and (targets.min() < 0 or targets.max() >= k):
            raise DataError(f"task {t}: label outside [0, {k})")
        data.append((images, targets))

    init = {name: p.data for name, p in init_params(cfg, hyper.seed).items()}
    for name, values in (init_overrides or {}).items():
        if name not in init or init[name].shape != values.shape:
            raise IncompatibleCheckpointError(f"override {name} does not fit this architecture")
        init[name] = values
    params = {name: _trainable(values) for name, values in init.items()}
    plist = list(params.values())
    state = T.OptimizerState(lr=hyper.lr, momentum=hyper.momentum, weight_decay=hyper.weight_decay)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((hyper.seed, 0x5CE))))

    np.empty(HEAP_KEEP_BYTES, dtype=np.uint8)  # freed at once: see HEAP_KEEP_BYTES
    trace: list[float] = []
    n = len(data[0][0])
    for epoch in range(hyper.epochs):
        state.lr = hyper.lr_at(epoch)
        perms = [rng.permutation(len(images)) for images, _ in data]
        losses = []
        for bi, start in enumerate(range(0, n, hyper.batch_size)):
            take = np.arange(start, min(start + hyper.batch_size, n))
            logits, targets = [], []
            for t, ((images, labels_t), perm) in enumerate(zip(data, perms)):
                idx = perm[take % len(perm)]
                x = _augment_batch(images[idx], rng) if hyper.augment else images[idx]
                logits.append(msc_forward(T.tensor(np.take(BYTE_FLOATS, x)), cfg, params, t))
                targets.append(labels_t[idx])
            loss = msc_loss(logits, targets, msc)
            if not np.isfinite(loss.data):
                raise NumericError(f"non-finite loss at epoch {epoch}, batch {bi}")
            T.backward(loss, plist)
            T.sgd_step(plist, [p.grad for p in plist], state)
            losses.append(float(loss.data))
        trace.append(float(np.mean(losses)))
        if on_epoch is not None:
            on_epoch(epoch, trace[-1])

    ckpt = Checkpoint(
        config=cfg,
        msc=msc,
        labels=labels,
        label_ids=label_ids,
        params={name: p.data.copy() for name, p in params.items()},
        meta={**asdict(hyper), "loss_trace": trace},
    )
    return ckpt, trace


def fine_tune(
    base: Checkpoint,
    new_classes_per_task: tuple[int, ...],
    manifests: list[DatasetManifest],
    hyper: TrainConfig | None = None,
    msc: MSCConfig | None = None,
    labels: list[str] | None = None,
    label_ids: list[int] | None = None,
    on_epoch: Callable[[int, float], None] | None = None,
) -> tuple[Checkpoint, list[float]]:
    """Re-initialize the heads for new tasks, keep the base backbone and
    attention parameters, and resume training (default lr 0.001).
    ``on_epoch`` is passed to :func:`train`."""
    new_classes_per_task = tuple(int(k) for k in new_classes_per_task)
    if len(new_classes_per_task) != len(manifests):
        raise IncompatibleCheckpointError(
            f"{len(new_classes_per_task)} head tasks for {len(manifests)} manifests"
        )
    if not new_classes_per_task or any(k < 1 for k in new_classes_per_task):
        raise IncompatibleCheckpointError(f"bad class counts {new_classes_per_task}")
    if hyper is None:
        hyper = TrainConfig(lr=FINE_TUNE_LR, schedule=())
    cfg = replace(base.config, num_classes_per_task=new_classes_per_task)

    overrides = {}
    for name, shape in param_shapes(cfg).items():
        if name.startswith("head."):
            continue
        if name not in base.params or base.params[name].shape != shape:
            raise IncompatibleCheckpointError(f"base checkpoint lacks {name} with shape {shape}")
        overrides[name] = base.params[name]
    ckpt, trace = train(
        cfg, manifests, hyper, msc=msc, labels=labels, label_ids=label_ids, init_overrides=overrides, on_epoch=on_epoch
    )
    ckpt.meta["fine_tuned"] = True
    return ckpt, trace


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    """Binary checkpoint: magic/version line, sized JSON header, then the
    parameters as little-endian float32 in header-manifest order."""
    expected = param_shapes(ckpt.config)
    if list(ckpt.params) != list(expected):
        raise ConfigError("parameter set does not match the configured architecture")
    for name, shape in expected.items():
        if tuple(ckpt.params[name].shape) != shape:
            raise ConfigError(f"parameter {name} has shape {ckpt.params[name].shape}, expected {shape}")
    labels, label_ids = _label_table(ckpt.labels, ckpt.label_ids, ckpt.config.num_classes_per_task[0])
    payload = b"".join(ckpt.params[name].astype("<f4").tobytes() for name in expected)
    n_floats = len(payload) // 4
    header = {
        "format_version": FORMAT_VERSION,
        "config": asdict(ckpt.config),
        "msc": asdict(ckpt.msc),
        "labels": labels,
        "label_ids": label_ids,
        "meta": ckpt.meta,
        "params": [[name, list(shape)] for name, shape in expected.items()],
        "payload_floats": n_floats,
        "payload_crc32": zlib.crc32(payload),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    head = f"{CHECKPOINT_MAGIC} {FORMAT_VERSION}\nheader {len(blob)}\n".encode("ascii")
    write_file(path, head, blob, f"\npayload {n_floats}\n".encode("ascii"), payload)


def _read_line(buf: bytes, pos: int) -> tuple[str, int]:
    end = buf.find(b"\n", pos)
    if end < 0:
        raise ChecksumError("file ends mid-record")
    return buf[pos:end].decode("ascii", errors="replace"), end + 1


def load_checkpoint(path: str) -> Checkpoint:
    buf = read_file(path)
    line, pos = _read_line(buf, 0)
    fields = line.split(" ")
    if len(fields) != 2 or fields[0] != CHECKPOINT_MAGIC:
        raise FormatVersionError(f"not a checkpoint file: {line!r}")
    if fields[1] != str(FORMAT_VERSION):
        raise FormatVersionError(f"unsupported format version {fields[1]}")
    line, pos = _read_line(buf, pos)
    if not line.startswith("header "):
        raise FormatVersionError(f"expected header record, got {line!r}")
    try:
        header_len = int(line.split(" ")[1])
    except (IndexError, ValueError) as e:
        raise FormatVersionError(f"bad header length in {line!r}") from e
    if pos + header_len + 1 > len(buf):
        raise ChecksumError("truncated header")
    try:
        header = json.loads(buf[pos : pos + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatVersionError(f"unreadable header: {e}") from e
    if not isinstance(header, dict):
        raise FormatVersionError("header is not a JSON object")
    pos += header_len + 1
    if header.get("format_version") != FORMAT_VERSION:
        raise FormatVersionError(f"header declares version {header.get('format_version')}")
    line, pos = _read_line(buf, pos)
    if not line.startswith("payload "):
        raise FormatVersionError(f"expected payload record, got {line!r}")
    try:
        n_floats = int(line.split(" ")[1])
    except (IndexError, ValueError) as e:
        raise FormatVersionError(f"bad payload count in {line!r}") from e
    payload = buf[pos:]
    if len(payload) != 4 * n_floats or n_floats != header.get("payload_floats"):
        raise ChecksumError(f"payload is {len(payload)} bytes, expected {4 * n_floats}")
    if zlib.crc32(payload) != header.get("payload_crc32"):
        raise ChecksumError("payload checksum mismatch")

    try:
        cfg = BackboneConfig(**header["config"])
        msc = MSCConfig(**header["msc"])
        manifest = [(name, tuple(shape)) for name, shape in header["params"]]
        labels = list(header["labels"])
        label_ids = [int(i) for i in header["label_ids"]]
    except (KeyError, TypeError, ValueError, OverflowError, ConfigError) as e:
        raise FormatVersionError(f"malformed header: {e}") from e
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise FormatVersionError(f"malformed header: meta is {type(meta).__name__}, not an object")

    if manifest != list(param_shapes(cfg).items()):
        raise FormatVersionError("parameter manifest does not match the declared config")
    labels, label_ids = _label_table(labels, label_ids, cfg.num_classes_per_task[0], FormatVersionError)

    flat = np.frombuffer(payload, dtype="<f4").astype(np.float32)  # native and writable
    params = {}
    offset = 0
    for name, shape in manifest:
        n = int(np.prod(shape))
        params[name] = flat[offset : offset + n].reshape(shape)
        offset += n
    if offset != n_floats:
        raise ChecksumError(f"manifest covers {offset} floats, payload has {n_floats}")
    return Checkpoint(cfg, msc, labels, label_ids, params, dict(meta))


class TileClassifier:
    """Inference wrapper: patch in, stream-fused class probabilities out.

    The training forward, :func:`msc_forward`, over float32 parameters (the
    checkpoint's precision) that require no gradient, so it records no
    graph; its logits are softmaxed per stream in float64 and combined with
    the checkpoint's stream weights (weighted mean), so deeper streams carry
    more of the mass.
    """

    def __init__(self, ckpt: Checkpoint):
        self.config = ckpt.config
        self.msc = ckpt.msc
        self.labels = list(ckpt.labels)
        self.label_ids = list(ckpt.label_ids)
        self._params = {name: T.tensor(np.asarray(data, dtype=np.float32)) for name, data in ckpt.params.items()}

    @property
    def input_size(self) -> int:
        return self.config.input_size

    @property
    def n_classes(self) -> int:
        return self.config.num_classes_per_task[0]

    def probs_batch(self, patches: np.ndarray, centers: np.ndarray | None = None) -> np.ndarray:
        """[B,3,s,s] uint8 tiles, or float tiles in [0,1], -> [B,N] fused
        probabilities, in the parser's chunks of windows, so a large batch
        holds one chunk's activations at a time.  Each chunk runs in float32:
        bytes map through BYTE_FLOATS, as a float64 v / 255 would round.
        The window centers are not used."""
        del centers
        if patches.ndim != 4 or patches.shape[1:] != (3, self.input_size, self.input_size):
            raise ShapeError(f"expected [B,3,{self.input_size},{self.input_size}], got {patches.shape}")
        parts = []
        for a, b in window_chunks(len(patches)):
            chunk = patches[a:b]
            x = np.take(BYTE_FLOATS, chunk) if chunk.dtype == np.uint8 else chunk.astype(np.float32, copy=False)
            logits = msc_forward(T.tensor(x), self.config, self._params, 0)
            probs = np.stack([T.softmax(z.data.astype(np.float64)) for z in logits], axis=-2)
            parts.append(fuse(probs, self.msc.stream_weights))
        return np.concatenate(parts)
