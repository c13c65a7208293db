"""Procedural desk-scale imagery with pixel-perfect ground truth.

Scenes are built from parametric texture families (flat color, stripes,
checkerboard, each plus Gaussian noise) arranged by a voronoi or block
layout.  Ground-truth label rasters use 1-based class ids; 0 is reserved
for void/unlabeled pixels so evaluation can mask regions out.

A scene is rendered in two passes, and holds no full-size float array:

* Layout.  A voronoi layout is computed tile by tile: each TILE x TILE
  tile compares only the points that can be nearest to one of its pixels,
  chosen with exact integer distance bounds, so the labels and the
  lowest-index tie rule are those of comparing every point everywhere.
* Colour and noise, in row bands of about BAND_PX pixels: each band's
  base or alt colours, plus its Gaussian noise, rounded and clipped into
  the uint8 raster.

A scene's PCG64 stream draws its random voronoi points first, then one
standard normal per channel in row-major pixel order.  The bands draw that
sequence in consecutive pieces, so the raster does not depend on BAND_PX
or TILE.

Everything is deterministic per seed (PCG64); tile datasets derive one
child seed per tile from (master seed, tile index).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, IoError, check_memory
from .files import check_space
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

# peak bytes per pixel of generate_scene_raster, rounded up: the 7 of the
# returned rasters plus the band buffers, about 3 MB whatever the size.
# tracemalloc's peak read 13.1 at 1024^2; ru_maxrss grew 8.7 at 2048^2 and
# 7.4 at 4096^2
SCENE_BYTES_PER_PX = 16
# pixels per band of the colour and noise pass (at least one row each)
BAND_PX = 1 << 16
# side of the square tiles over which the Voronoi layout prunes its points
TILE = 64
# peak bytes of a voronoi layout per point and TILE-wide column, rounded up,
# with 24 columns more for the point tuples and row distances; tracemalloc
# read 41 and 36 with 20,000 points on rasters 4096 and 8192 px wide
POINT_BYTES_PER_COLUMN = 64
# peak bytes per pixel of render_tile: four float64 [s, s, 3] arrays
TILE_BYTES_PER_PX = 96


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
        if not 0 <= self.noise_sigma < math.inf:
            raise ConfigError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
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
    """rows x cols blocks; row-major block i takes class i % n."""

    rows: int
    cols: int


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


def _voronoi(pts, h: int, w: int) -> np.ndarray:
    """Class index of each pixel's nearest point, int32 [H, W]; ties go to
    the lowest point index.

    The raster is cut into TILE x TILE tiles.  A point whose nearest squared
    distance to a tile exceeds some point's farthest one is farther from
    every pixel of it than that point, so the tile compares only the others.
    Every point that ties for a pixel's minimum is among them, and a running
    minimum over them in index order, where only a strictly nearer point
    takes a pixel, keeps the lowest index.  Squared distances are exact
    int64 integers."""
    py, px, pc = (np.array(v, dtype=np.int64) for v in zip(*pts))
    out = np.empty((h, w), dtype=np.int32)
    x0 = np.arange(0, w, TILE)
    x1 = np.minimum(x0 + TILE, w) - 1
    # per tile column and point: the nearest and farthest squared x distance
    near_x = np.maximum(np.maximum(x0[:, None] - px, px - x1[:, None]), 0) ** 2
    far_x = np.maximum(np.abs(px - x0[:, None]), np.abs(px - x1[:, None])) ** 2
    for y0 in range(0, h, TILE):
        y1 = min(y0 + TILE, h) - 1
        near = near_x + np.maximum(np.maximum(y0 - py, py - y1), 0) ** 2
        far = far_x + np.maximum(np.abs(py - y0), np.abs(py - y1)) ** 2
        keep = near <= far.min(axis=1, keepdims=True)
        dy = (np.arange(y0, y1 + 1) - py[:, None]) ** 2
        for t, (a, b) in enumerate(zip(x0.tolist(), x1.tolist())):
            k = np.flatnonzero(keep[t])
            tile = out[y0 : y1 + 1, a : b + 1]
            tile[...] = pc[k[0]]
            if (pc[k] == pc[k[0]]).all():
                continue
            dx = (np.arange(a, b + 1) - px[k, None]) ** 2
            best = dy[k[0], :, None] + dx[0]
            for i, dxi in zip(k[1:].tolist(), dx[1:]):
                d = dy[i, :, None] + dxi
                np.copyto(tile, pc[i], where=d < best)
                np.minimum(best, d, out=best)
    return out


def _layout_classes(spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    """Class index per pixel, int32 [H, W]."""
    h, w, n = spec.height, spec.width, len(spec.classes)
    lay = spec.layout
    if isinstance(lay, GridLayout):
        if lay.rows < 1 or lay.cols < 1:
            raise ConfigError("grid layout needs rows, cols >= 1")
        if lay.rows * lay.cols < n:
            raise ConfigError("every class must appear in the layout")
        # block (r, c) takes (r * cols + c) % n, summed from its two parts in
        # Python ints, which no rows or cols can overflow
        by = [min(y * lay.rows // h, lay.rows - 1) * lay.cols % n for y in range(h)]
        bx = [min(x * lay.cols // w, lay.cols - 1) % n for x in range(w)]
        cls = np.array(by, dtype=np.int32)[:, None] + np.array(bx, dtype=np.int32)
        cls %= n
        return cls
    if isinstance(lay, VoronoiLayout):
        pts = lay.points
        count = lay.n_points if pts is None else len(pts)
        check_memory(POINT_BYTES_PER_COLUMN * count * (-(-w // TILE) + 24), f"{count} voronoi points")
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
        return _voronoi(pts, h, w)
    raise ConfigError(f"unknown layout type {type(lay).__name__}")


def generate_scene_raster(spec: SceneSpec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Render a scene.  Returns (rgb uint8 [H,W,3], labels int32 [H,W]).

    Label values are 1-based class ids (layout class index + 1).
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    h, w, n = spec.height, spec.width, len(spec.classes)
    check_memory(SCENE_BYTES_PER_PX * h * w, f"a {h}x{w} scene")
    rng = np.random.Generator(np.random.PCG64(seed))
    cls = _layout_classes(spec, rng)
    # class i's base colour is colors[2i] and its alt colors[2i + 1]; a pixel
    # takes the alt where y_odd[i, y] ^ x_odd[i, x], the parity of its stripe
    # or checker square, phase 0
    colors = np.zeros((2 * n, 3))
    y_odd = np.zeros((n, h), dtype=bool)
    x_odd = np.zeros((n, w), dtype=bool)
    for i, tex in enumerate(spec.classes):
        colors[2 * i : 2 * i + 2] = tex.base_rgb, tex.alt_rgb or (0, 0, 0)
        if tex.pattern == "checker" or (tex.pattern == "stripes" and tex.orientation == "h"):
            y_odd[i] = np.arange(h) // tex.period % 2
        if tex.pattern == "checker" or (tex.pattern == "stripes" and tex.orientation == "v"):
            x_odd[i] = np.arange(w) // tex.period % 2
    sigma = np.array([tex.noise_sigma for tex in spec.classes], dtype=np.float64)
    rgb = np.empty((h, w, 3), dtype=np.uint8)
    rows = max(1, BAND_PX // w)
    noisy, clean = np.empty((2, min(rows, h), w, 3))
    xs = np.arange(w)
    for y0 in range(0, h, rows):
        c = cls[y0 : y0 + rows]
        z, cz = noisy[: len(c)], clean[: len(c)]
        # the normals continue one (H, W, 3) draw: band by band, row-major
        rng.standard_normal(out=z)
        z *= sigma[c][..., None]
        alt = y_odd[c, np.arange(y0, y0 + len(c))[:, None]]
        alt ^= x_odd[c, xs]
        np.take(colors, 2 * c + alt, axis=0, out=cz)
        z += cz
        np.rint(z, out=z)
        np.clip(z, 0, 255, out=z)
        rgb[y0 : y0 + len(c)] = z
    cls += 1
    return rgb, cls


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
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    check_memory(TILE_BYTES_PER_PX * tile_size**2, f"a {tile_size}x{tile_size} tile")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        raise IoError(f"cannot create {out_dir}: {e}") from e
    total = sum(counts)
    p6_bytes = len(f"P6\n{tile_size} {tile_size}\n255\n") + 3 * tile_size**2  # as write_ppm writes it
    check_space(out_dir, total * p6_bytes, f"{total} {tile_size}x{tile_size} tiles")
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
    if not 0 <= exponent < math.inf:
        raise ConfigError(f"exponent must be finite and >= 0, got {exponent}")
    if total < n_classes:
        raise ConfigError(f"total {total} cannot give {n_classes} classes >= 1 each")
    if total >= 2**53:  # float64 shares of it are not exact, and from 2**63 they overflow int64
        raise ConfigError(f"total {total} must be below 2**53")
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
