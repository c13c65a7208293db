"""Procedural desk-scale imagery with pixel-perfect ground truth.

Scenes are built from parametric texture families (flat color, stripes,
checkerboard, each plus Gaussian noise) arranged by a voronoi or block
layout.  Ground-truth label rasters use 1-based class ids; 0 is reserved
for void/unlabeled pixels so evaluation can mask regions out.

Everything is deterministic per seed (PCG64); tile datasets derive one
child seed per tile from (master seed, tile index).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, IoError, check_memory
from .netpbm import write_ppm
from .taxonomy import DatasetManifest, SceneSample

__all__ = [
    "TextureSpec",
    "VoronoiLayout",
    "GridLayout",
    "SceneSpec",
    "default_texture_classes",
    "generate_scene_raster",
    "generate_tile_dataset",
    "long_tail_counts",
]

PATTERNS = ("flat", "stripes", "checker")

# peak bytes per pixel of generate_scene_raster: its float64 colour, noise
# and sigma fields; a 2048^2 scene peaked at 518 MB ru_maxrss
SCENE_BYTES_PER_PX = 120


@dataclass(frozen=True)
class TextureSpec:
    """One class's appearance: base color plus an optional periodic pattern."""

    base_rgb: tuple[int, int, int]
    noise_sigma: float = 0.0
    pattern: str = "flat"
    period: int = 0
    alt_rgb: tuple[int, int, int] | None = None
    orientation: str = "h"

    def __post_init__(self):
        if self.pattern not in PATTERNS:
            raise ConfigError(f"unknown pattern {self.pattern!r}")
        for c in self.base_rgb + (self.alt_rgb or ()):
            if not 0 <= c <= 255:
                raise ConfigError(f"color component {c} outside 8-bit range")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")
        if self.pattern != "flat" and self.period < 1:
            raise ConfigError(f"{self.pattern} needs period >= 1")
        if self.orientation not in ("h", "v"):
            raise ConfigError(f"orientation must be 'h' or 'v', got {self.orientation!r}")


@dataclass(frozen=True)
class VoronoiLayout:
    """Nearest-seed-point partition; ties go to the lowest point index."""

    n_points: int = 0
    points: tuple[tuple[int, int, int], ...] | None = None  # (y, x, class_idx)


@dataclass(frozen=True)
class GridLayout:
    """rows x cols blocks; assignment cycles through the classes by default."""

    rows: int
    cols: int
    assignment: tuple[int, ...] | None = None


@dataclass(frozen=True)
class SceneSpec:
    classes: tuple[TextureSpec, ...]
    layout: VoronoiLayout | GridLayout
    height: int
    width: int

    def __post_init__(self):
        if len(self.classes) < 1:
            raise ConfigError("at least one class required")
        if self.height < 1 or self.width < 1:
            raise ConfigError(f"bad scene size {self.height}x{self.width}")


# well-separated base colors; patterns vary but color alone identifies the
# class, so flip/rotation augmentation never aliases two classes
_PALETTE = [
    (200, 45, 45),
    (45, 190, 60),
    (50, 70, 210),
    (210, 200, 50),
    (190, 55, 200),
    (55, 200, 200),
    (230, 140, 50),
    (128, 128, 128),
    (90, 50, 20),
    (240, 240, 240),
]


def default_texture_classes(n: int, noise_sigma: float = 12.0) -> tuple[TextureSpec, ...]:
    if not 1 <= n <= len(_PALETTE):
        raise ConfigError(f"supports 1..{len(_PALETTE)} default classes, got {n}")
    out = []
    for i in range(n):
        pattern = PATTERNS[i % 3]
        base = _PALETTE[i]
        alt = tuple(max(0, c - 60) for c in base) if pattern != "flat" else None
        out.append(
            TextureSpec(
                base_rgb=base,
                noise_sigma=noise_sigma,
                pattern=pattern,
                period=4 + 2 * (i % 3),
                alt_rgb=alt,
                orientation="h" if i % 2 == 0 else "v",
            )
        )
    return tuple(out)


def _pattern_field(tex: TextureSpec, h: int, w: int, phase: tuple[int, int] = (0, 0)) -> np.ndarray:
    """Noise-free color field for one texture, float64 [h, w, 3]."""
    base = np.asarray(tex.base_rgb, dtype=np.float64)
    if tex.pattern == "flat":
        return np.broadcast_to(base, (h, w, 3)).copy()
    alt = np.asarray(tex.alt_rgb if tex.alt_rgb is not None else (0, 0, 0), dtype=np.float64)
    ys = (np.arange(h) + phase[0]) // tex.period
    xs = (np.arange(w) + phase[1]) // tex.period
    if tex.pattern == "stripes":
        stripe = ys if tex.orientation == "h" else xs
        mask = (stripe % 2).astype(bool)
        mask = np.broadcast_to(mask[:, None] if tex.orientation == "h" else mask[None, :], (h, w))
    else:
        mask = ((ys[:, None] + xs[None, :]) % 2).astype(bool)
    out = np.where(mask[..., None], alt, base)
    return out


def _layout_classes(spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    """Class index per pixel, int32 [H, W]."""
    h, w, n = spec.height, spec.width, len(spec.classes)
    lay = spec.layout
    if isinstance(lay, GridLayout):
        if lay.rows < 1 or lay.cols < 1:
            raise ConfigError("grid layout needs rows, cols >= 1")
        assign = lay.assignment
        if assign is None:
            assign = tuple(i % n for i in range(lay.rows * lay.cols))
        if len(assign) != lay.rows * lay.cols:
            raise ConfigError(f"assignment length {len(assign)} != {lay.rows * lay.cols}")
        if not set(assign) <= set(range(n)):
            raise ConfigError("assignment references unknown class")
        if not set(range(n)) <= set(assign):
            raise ConfigError("every class must appear in the layout")
        block = np.asarray(assign, dtype=np.int32).reshape(lay.rows, lay.cols)
        by = np.minimum(np.arange(h) * lay.rows // h, lay.rows - 1)
        bx = np.minimum(np.arange(w) * lay.cols // w, lay.cols - 1)
        return block[np.ix_(by, bx)]
    if isinstance(lay, VoronoiLayout):
        pts = lay.points
        if pts is None:
            if lay.n_points < n:
                raise ConfigError(f"voronoi needs >= {n} points for {n} classes")
            ys = rng.integers(0, h, size=lay.n_points)
            xs = rng.integers(0, w, size=lay.n_points)
            pts = tuple((int(y), int(x), i % n) for i, (y, x) in enumerate(zip(ys, xs)))
        classes_used = {c for _, _, c in pts}
        if not set(range(n)) <= classes_used:
            raise ConfigError("every class needs at least one voronoi point")
        for y, x, c in pts:
            if not (0 <= y < h and 0 <= x < w):
                raise ConfigError(f"voronoi point ({y},{x}) outside raster")
            if not 0 <= c < n:
                raise ConfigError(f"voronoi point class {c} unknown")
        yy = np.arange(h, dtype=np.float64)[:, None]
        xx = np.arange(w, dtype=np.float64)[None, :]
        # running argmin over the points, one [H, W] distance map at a time;
        # only a strictly nearer point takes a pixel, so ties keep the first
        best = np.full((h, w), np.inf)
        out = np.empty((h, w), dtype=np.int32)
        for y, x, c in pts:
            d2 = (yy - float(y)) ** 2 + (xx - float(x)) ** 2
            np.copyto(out, c, where=d2 < best)
            np.minimum(best, d2, out=best)
        return out
    raise ConfigError(f"unknown layout type {type(lay).__name__}")


def generate_scene_raster(spec: SceneSpec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Render a scene.  Returns (rgb uint8 [H,W,3], labels int32 [H,W]).

    Label values are 1-based class ids (layout class index + 1).
    """
    h, w = spec.height, spec.width
    check_memory(SCENE_BYTES_PER_PX * h * w, f"a {h}x{w} scene")
    rng = np.random.Generator(np.random.PCG64(seed))
    cls = _layout_classes(spec, rng)
    clean = np.zeros((h, w, 3), dtype=np.float64)
    sigma = np.zeros((h, w), dtype=np.float64)
    for i, tex in enumerate(spec.classes):
        mask = cls == i
        if not mask.any():
            continue
        clean[mask] = _pattern_field(tex, h, w)[mask]
        sigma[mask] = tex.noise_sigma
    noisy = clean + rng.standard_normal((h, w, 3)) * sigma[..., None]
    rgb = np.clip(np.rint(noisy), 0, 255).astype(np.uint8)
    return rgb, (cls + 1).astype(np.int32)


def render_tile(tex: TextureSpec, tile_size: int, rng: np.random.Generator) -> np.ndarray:
    """One tile of a texture with a random pattern phase, uint8 [s, s, 3]."""
    phase = (int(rng.integers(0, 4 * max(1, tex.period))), int(rng.integers(0, 4 * max(1, tex.period))))
    clean = _pattern_field(tex, tile_size, tile_size, phase)
    noisy = clean + rng.standard_normal((tile_size, tile_size, 3)) * tex.noise_sigma
    return np.clip(np.rint(noisy), 0, 255).astype(np.uint8)


def generate_tile_dataset(
    spec: SceneSpec,
    tiles_per_class,
    tile_size: int,
    seed: int,
    out_dir: str,
) -> DatasetManifest:
    """Write one P6 file per tile and return the labeled manifest.

    Tile labels are 0-based class indices into ``spec.classes``.  Tile i
    is rendered from PCG64(SeedSequence((seed, i))) regardless of how many
    classes precede it, so per-class counts can change without reshuffling
    other tiles.
    """
    n = len(spec.classes)
    if isinstance(tiles_per_class, int):
        counts = [tiles_per_class] * n
    else:
        counts = list(tiles_per_class)
    if len(counts) != n or any(c < 0 for c in counts):
        raise ConfigError(f"need {n} non-negative counts, got {counts}")
    if tile_size < 1:
        raise ConfigError(f"tile_size must be >= 1, got {tile_size}")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        raise IoError(f"cannot create {out_dir}: {e}") from e
    samples = []
    index = 0
    for ci, (tex, count) in enumerate(zip(spec.classes, counts)):
        for _ in range(count):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))
            tile = render_tile(tex, tile_size, rng)
            path = os.path.join(out_dir, f"tile_{index:05d}.ppm")
            write_ppm(path, tile)
            samples.append(SceneSample(sample_id=f"t{index:05d}", raster_path=path, fine_label=ci))
            index += 1
    return DatasetManifest(samples=samples)


def long_tail_counts(n_classes: int, total: int, exponent: float) -> list[int]:
    """Zipf-style per-rank counts: proportional to rank^(-exponent),
    rounded deterministically so they sum to total with every count >= 1."""
    if n_classes < 1:
        raise ConfigError("n_classes must be >= 1")
    if exponent < 0:
        raise ConfigError("exponent must be >= 0")
    if total < n_classes:
        raise ConfigError(f"total {total} cannot give {n_classes} classes >= 1 each")
    w = (np.arange(1, n_classes + 1, dtype=np.float64)) ** (-float(exponent))
    raw = total * w / w.sum()
    counts = np.maximum(np.floor(raw).astype(np.int64), 1)
    rem = raw - np.floor(raw)
    diff = total - int(counts.sum())
    while diff > 0:
        # award leftovers by largest fractional remainder, lowest rank first
        order = np.lexsort((np.arange(n_classes), -rem))
        for i in order:
            if diff == 0:
                break
            counts[i] += 1
            diff -= 1
    while diff < 0:
        i = int(np.argmax(counts))
        if counts[i] <= 1:
            raise ConfigError("cannot satisfy minimum of 1 per class")
        counts[i] -= 1
        diff += 1
    return [int(c) for c in counts]
