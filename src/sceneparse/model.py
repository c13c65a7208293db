"""Tile classification model: a small three-stage conv backbone, deep-to-
shallow attention fusion, per-stream classification heads for one or two
tasks, SGD training with the flip/rotation augmentation scheme, and
checkpoint serialization.

The three streams are ordered shallow to deep; stream weights follow the
same order, so the deepest stream carries the largest default weight.
"""

from __future__ import annotations

import json
import zlib
from collections.abc import Callable
from dataclasses import dataclass, field

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
from .fusion import check_weights, fuse
from .netpbm import read_ppm
from .taxonomy import DatasetManifest

__all__ = [
    "BackboneConfig",
    "MSCConfig",
    "TrainConfig",
    "FeaturePyramid",
    "AttentionWeights",
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
            raise ConfigError("exactly 3 stages required")
        if any(c < 1 for c in self.stage_channels):
            raise ConfigError(f"bad stage channels {self.stage_channels}")
        if any(s < 1 for s in self.stage_strides):
            raise ConfigError(f"bad stage strides {self.stage_strides}")
        total = 1
        for s in self.stage_strides:
            total *= s
        if self.input_size < 1 or self.input_size % total != 0:
            raise ConfigError(f"input_size {self.input_size} not divisible by cumulative stride {total}")
        if not self.num_classes_per_task or any(k < 1 for k in self.num_classes_per_task):
            raise ConfigError(f"bad class counts {self.num_classes_per_task}")


@dataclass(frozen=True)
class MSCConfig:
    stream_weights: tuple[float, float, float] = (0.25, 0.5, 1.0)
    mu_g: float = 0.5
    mu_m: float = 0.5

    def __post_init__(self):
        weights = check_weights(self.stream_weights, 3, "stream weights")
        object.__setattr__(self, "stream_weights", tuple(weights.tolist()))
        if not (self.mu_g >= 0 and self.mu_m >= 0 and abs(self.mu_g + self.mu_m - 1.0) <= 1e-12):
            raise ConfigError(f"task weights must be non-negative and sum to 1, got {self.mu_g}, {self.mu_m}")


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
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError(f"bad epochs/batch {self.epochs}/{self.batch_size}")
        if self.lr < 0 or self.momentum < 0 or self.weight_decay < 0:
            raise ConfigError("lr, momentum, weight_decay must be >= 0")


FINE_TUNE_LR = 0.001


@dataclass
class FeaturePyramid:
    f1: T.Tensor
    f2: T.Tensor
    f3: T.Tensor


@dataclass
class AttentionWeights:
    """1x1 conv mapping deep channels onto the shallow stream's channels."""

    reduce_conv: T.Tensor
    bias: T.Tensor


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
    """Kaiming-uniform weights (bound sqrt(6/fan_in)), zero biases; seeded."""
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


def _stage(x, params, i: int, stride: int, ops):
    x = ops.relu(ops.bias_add(ops.conv2d(x, params[f"stage{i}.conv1.w"], 1, 1), params[f"stage{i}.conv1.b"]))
    return ops.relu(ops.bias_add(ops.conv2d(x, params[f"stage{i}.conv2.w"], stride, 1), params[f"stage{i}.conv2.b"]))


def backbone_forward(image: T.Tensor, cfg: BackboneConfig, params: dict[str, T.Tensor], ops=T) -> FeaturePyramid:
    shape = image.shape
    if shape[-3:] != (3, cfg.input_size, cfg.input_size):
        raise ShapeError(f"expected [3,{cfg.input_size},{cfg.input_size}] image, got {shape}")
    f1 = _stage(image, params, 1, cfg.stage_strides[0], ops)
    f2 = _stage(f1, params, 2, cfg.stage_strides[1], ops)
    f3 = _stage(f2, params, 3, cfg.stage_strides[2], ops)
    return FeaturePyramid(f1, f2, f3)


def attention_fuse(sf: T.Tensor, df: T.Tensor, aw: AttentionWeights, ops=T) -> T.Tensor:
    """AF = SF + SF * sigmoid(reduce_conv(upsample(DF)))."""
    sh, sw = sf.shape[-2:]
    dh, dw = df.shape[-2:]
    if dh < 1 or sh % dh != 0 or sw % dw != 0 or sh // dh != sw // dw:
        raise ShapeError(f"deep {dh}x{dw} does not divide shallow {sh}x{sw}")
    up = ops.upsample_nearest(df, sh // dh)
    sam = ops.sigmoid(ops.bias_add(ops.conv2d(up, aw.reduce_conv, 1, 0), aw.bias))
    if sam.shape != sf.shape:
        raise ShapeError(f"attention map {sam.shape} does not match shallow {sf.shape}")
    return sf + sf * sam


def _attn(params, s: int) -> AttentionWeights:
    return AttentionWeights(params[f"attn{s}.w"], params[f"attn{s}.b"])


def han_forward(p: FeaturePyramid, params: dict[str, T.Tensor], ops=T) -> list[T.Tensor]:
    """Chain attention deep to shallow: [AF1, AF2, AF3] with AF3 = F3."""
    af3 = p.f3
    af2 = attention_fuse(p.f2, af3, _attn(params, 2), ops)
    af1 = attention_fuse(p.f1, af2, _attn(params, 1), ops)
    return [af1, af2, af3]


def _msc(image, cfg: BackboneConfig, params, ops) -> list[list]:
    streams = han_forward(backbone_forward(image, cfg, params, ops), params, ops)
    pooled = [ops.global_avg_pool(af) for af in streams]
    out = []
    for t in range(len(cfg.num_classes_per_task)):
        out.append(
            [ops.linear(pooled[s], params[f"head.g{t}.s{s + 1}.w"], params[f"head.g{t}.s{s + 1}.b"]) for s in range(3)]
        )
    return out


def msc_forward(image: T.Tensor, cfg: BackboneConfig, params: dict[str, T.Tensor]) -> list[list[T.Tensor]]:
    """Logits per task per stream: out[t][s] from GAP(AF_{s+1}) -> linear head.
    The layers take ``ops``: ``T`` here, ``T.arrays`` in the classifier's graph-free pass."""
    return _msc(image, cfg, params, T)


def msc_loss(
    logits_g: list[T.Tensor],
    target_g,
    logits_m: list[T.Tensor] | None,
    target_m,
    cfg: MSCConfig,
) -> T.Tensor:
    """mu_g * sum_s w_s CE(g) + mu_m * sum_s w_s CE(m)."""
    w = cfg.stream_weights
    if len(logits_g) != len(w):
        raise ShapeError(f"{len(logits_g)} main streams but {len(w)} weights")
    loss = None
    for ws, z in zip(w, logits_g):
        term = T.scale(T.cross_entropy(z, target_g), ws * cfg.mu_g)
        loss = term if loss is None else T.add(loss, term)
    if logits_m is not None:
        if len(logits_m) != len(w):
            raise ShapeError(f"{len(logits_m)} auxiliary streams but {len(w)} weights")
        for ws, z in zip(w, logits_m):
            loss = T.add(loss, T.scale(T.cross_entropy(z, target_m), ws * cfg.mu_m))
    return loss


def load_tiles(manifest: DatasetManifest, input_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Read every tile into [M,3,s,s] float64 in [0,1] plus int64 labels."""
    images = np.empty((len(manifest.samples), 3, input_size, input_size))
    labels = np.empty(len(manifest.samples), dtype=np.int64)
    for i, s in enumerate(manifest.samples):
        try:
            rgb = read_ppm(s.raster_path)
        except (IoError, ParseError) as e:
            raise DataError(f"sample {s.sample_id}: {e}") from e
        if rgb.shape != (input_size, input_size, 3):
            raise DataError(f"sample {s.sample_id}: tile is {rgb.shape[:2]}, expected {input_size}x{input_size}")
        images[i] = rgb.transpose(2, 0, 1) / 255.0
        labels[i] = s.fine_label
    return images, labels


def _augment_batch(batch: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random horizontal/vertical flips and quarter-turn rotations per tile."""
    out = batch.copy()
    flips_h = rng.integers(0, 2, size=len(batch))
    flips_v = rng.integers(0, 2, size=len(batch))
    quarters = rng.integers(0, 4, size=len(batch))
    for i in range(len(batch)):
        x = out[i]
        if flips_h[i]:
            x = x[:, :, ::-1]
        if flips_v[i]:
            x = x[:, ::-1, :]
        if quarters[i]:
            x = np.rot90(x, k=int(quarters[i]), axes=(1, 2))
        out[i] = x
    return out


@dataclass
class Checkpoint:
    config: BackboneConfig
    msc: MSCConfig
    labels: list[str]
    label_ids: list[int]
    params: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)


def _default_labels(cfg: BackboneConfig) -> tuple[list[str], list[int]]:
    k = cfg.num_classes_per_task[0]
    return [f"class_{i + 1}" for i in range(k)], [i + 1 for i in range(k)]


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
    train main + auxiliary jointly (one batch of each per step).

    ``init_overrides`` replaces matching freshly-initialized parameters
    before the first step (used to warm-start from a checkpoint).
    ``on_epoch(epoch, mean_loss)`` is called as each epoch ends.  Returns
    the checkpoint and the per-epoch mean loss trace.  Fully deterministic
    for a fixed (seed, config, data).
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
        msc = MSCConfig(mu_g=1.0, mu_m=0.0) if len(manifests) == 1 else MSCConfig()
    if len(manifests) == 1 and msc.mu_m != 0.0:
        raise ConfigError("auxiliary weight is non-zero but no auxiliary manifest given")

    data = []
    for t, m in enumerate(manifests):
        images, targets = load_tiles(m, cfg.input_size)
        k = cfg.num_classes_per_task[t]
        if targets.size and (targets.min() < 0 or targets.max() >= k):
            raise DataError(f"task {t}: label outside [0, {k})")
        data.append((images, targets))

    params = init_params(cfg, hyper.seed)
    if init_overrides:
        for name, values in init_overrides.items():
            if name not in params or params[name].data.shape != values.shape:
                raise IncompatibleCheckpointError(f"override {name} does not fit this architecture")
            params[name] = T.tensor(values.copy(), requires_grad=True)
    plist = list(params.values())
    state = T.OptimizerState(
        lr=hyper.lr,
        momentum=hyper.momentum,
        weight_decay=hyper.weight_decay,
        step_schedule=list(hyper.schedule),
    )
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((hyper.seed, 0x5CE))))

    trace: list[float] = []
    for epoch in range(hyper.epochs):
        state.lr = state.lr_for_epoch(epoch)
        perm_g = rng.permutation(len(data[0][0]))
        if len(data) == 2:
            perm_m = rng.permutation(len(data[1][0]))
        losses = []
        n_batches = (len(perm_g) + hyper.batch_size - 1) // hyper.batch_size
        for bi in range(n_batches):
            idx_g = perm_g[bi * hyper.batch_size : (bi + 1) * hyper.batch_size]
            xg = data[0][0][idx_g]
            if hyper.augment:
                xg = _augment_batch(xg, rng)
            logits = msc_forward(T.tensor(xg), cfg, params)
            if len(data) == 2:
                take = np.arange(bi * hyper.batch_size, bi * hyper.batch_size + len(idx_g)) % len(perm_m)
                idx_m = perm_m[take]
                xm = data[1][0][idx_m]
                if hyper.augment:
                    xm = _augment_batch(xm, rng)
                logits_m = msc_forward(T.tensor(xm), cfg, params)[1]
                loss = msc_loss(logits[0], data[0][1][idx_g], logits_m, data[1][1][idx_m], msc)
            else:
                loss = msc_loss(logits[0], data[0][1][idx_g], None, None, msc)
            if not np.isfinite(loss.data):
                raise NumericError(f"non-finite loss at epoch {epoch}, batch {bi}")
            T.backward(loss, plist)
            T.sgd_step(plist, [p.grad for p in plist], state)
            losses.append(float(loss.data))
        trace.append(float(np.mean(losses)))
        if on_epoch is not None:
            on_epoch(epoch, trace[-1])

    if labels is None:
        labels, default_ids = _default_labels(cfg)
        label_ids = label_ids if label_ids is not None else default_ids
    elif label_ids is None:
        label_ids = [i + 1 for i in range(len(labels))]
    if len(labels) != cfg.num_classes_per_task[0] or len(label_ids) != len(labels):
        raise ConfigError("label table must cover the main task's classes")
    ckpt = Checkpoint(
        config=cfg,
        msc=msc,
        labels=list(labels),
        label_ids=list(label_ids),
        params={name: p.data.copy() for name, p in params.items()},
        meta={
            "epochs": hyper.epochs,
            "batch_size": hyper.batch_size,
            "lr": hyper.lr,
            "momentum": hyper.momentum,
            "weight_decay": hyper.weight_decay,
            "schedule": [list(x) for x in hyper.schedule],
            "seed": hyper.seed,
            "augment": hyper.augment,
            "loss_trace": trace,
        },
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
    cfg = BackboneConfig(
        input_size=base.config.input_size,
        stage_channels=base.config.stage_channels,
        stage_strides=base.config.stage_strides,
        num_classes_per_task=new_classes_per_task,
    )

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
    payload = b"".join(ckpt.params[name].astype("<f4").tobytes() for name in expected)
    n_floats = len(payload) // 4
    header = {
        "format_version": FORMAT_VERSION,
        "config": {
            "input_size": ckpt.config.input_size,
            "stage_channels": list(ckpt.config.stage_channels),
            "stage_strides": list(ckpt.config.stage_strides),
            "num_classes_per_task": list(ckpt.config.num_classes_per_task),
        },
        "msc": {
            "stream_weights": list(ckpt.msc.stream_weights),
            "mu_g": ckpt.msc.mu_g,
            "mu_m": ckpt.msc.mu_m,
        },
        "labels": list(ckpt.labels),
        "label_ids": list(ckpt.label_ids),
        "meta": ckpt.meta,
        "params": [[name, list(shape)] for name, shape in expected.items()],
        "payload_floats": n_floats,
        "payload_crc32": zlib.crc32(payload),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    try:
        with open(path, "wb") as f:
            f.write(f"{CHECKPOINT_MAGIC} {FORMAT_VERSION}\n".encode("ascii"))
            f.write(f"header {len(blob)}\n".encode("ascii"))
            f.write(blob)
            f.write(b"\n")
            f.write(f"payload {n_floats}\n".encode("ascii"))
            f.write(payload)
    except OSError as e:
        raise IoError(f"cannot write {path}: {e}") from e


def _read_line(buf: bytes, pos: int) -> tuple[str, int]:
    end = buf.find(b"\n", pos)
    if end < 0:
        raise ChecksumError("file ends mid-record")
    return buf[pos:end].decode("ascii", errors="replace"), end + 1


def load_checkpoint(path: str) -> Checkpoint:
    try:
        with open(path, "rb") as f:
            buf = f.read()
    except OSError as e:
        raise IoError(f"cannot read {path}: {e}") from e
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
        cfg = BackboneConfig(
            input_size=header["config"]["input_size"],
            stage_channels=tuple(header["config"]["stage_channels"]),
            stage_strides=tuple(header["config"]["stage_strides"]),
            num_classes_per_task=tuple(header["config"]["num_classes_per_task"]),
        )
        msc = MSCConfig(
            stream_weights=tuple(header["msc"]["stream_weights"]),
            mu_g=header["msc"]["mu_g"],
            mu_m=header["msc"]["mu_m"],
        )
        manifest = [(name, tuple(shape)) for name, shape in header["params"]]
        labels = list(header["labels"])
        label_ids = [int(i) for i in header["label_ids"]]
    except (KeyError, TypeError, ValueError, ConfigError) as e:
        raise FormatVersionError(f"malformed header: {e}") from e

    if manifest != list(param_shapes(cfg).items()):
        raise FormatVersionError("parameter manifest does not match the declared config")
    if len(labels) != cfg.num_classes_per_task[0] or len(label_ids) != len(labels):
        raise FormatVersionError("label table does not cover the main task's classes")

    flat = np.frombuffer(payload, dtype="<f4")
    params = {}
    offset = 0
    for name, shape in manifest:
        n = int(np.prod(shape))
        params[name] = flat[offset : offset + n].astype(np.float64).reshape(shape)
        offset += n
    if offset != n_floats:
        raise ChecksumError(f"manifest covers {offset} floats, payload has {n_floats}")
    return Checkpoint(cfg, msc, labels, label_ids, params, dict(header.get("meta", {})))


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class TileClassifier:
    """Inference wrapper: patch in, stream-fused class probabilities out.

    A graph-free float32 forward pass (the checkpoint's precision); its logits
    are softmaxed per stream in float64 and combined with the checkpoint's
    stream weights (weighted mean), so deeper streams carry more of the mass.
    """

    def __init__(self, ckpt: Checkpoint):
        self.config = ckpt.config
        self.msc = ckpt.msc
        self.labels = list(ckpt.labels)
        self.label_ids = list(ckpt.label_ids)
        self._params = {name: np.asarray(data, dtype=np.float32) for name, data in ckpt.params.items()}

    @property
    def input_size(self) -> int:
        return self.config.input_size

    @property
    def n_classes(self) -> int:
        return self.config.num_classes_per_task[0]

    def probs_batch(self, patches: np.ndarray, centers: np.ndarray | None = None) -> np.ndarray:
        """[B,3,s,s] float tiles in [0,1] -> [B,N] fused probabilities.
        The window centers are not used."""
        del centers
        if patches.ndim != 4 or patches.shape[1:] != (3, self.input_size, self.input_size):
            raise ShapeError(f"expected [B,3,{self.input_size},{self.input_size}], got {patches.shape}")
        logits = _msc(patches.astype(np.float32), self.config, self._params, T.arrays)[0]
        return fuse(np.stack([_softmax_rows(z.astype(np.float64)) for z in logits], axis=-2), self.msc.stream_weights)
