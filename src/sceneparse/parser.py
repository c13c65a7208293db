"""Scene parsing pipeline: multi-scale context windows around grid-cell
centers, tile classification fused across scales into a semantic grid map,
class-agnostic segmentation, and per-region majority voting down to pixels.

Windows near the border are completed by edge reflection; all windows are
nearest-neighbor resized to the classifier's input size.  Grid cells store
output label ids (the classifier's label table), not raw head indices.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (
    ClassifierError,
    ConfigError,
    ExtentMismatchError,
    IncompatibleCheckpointError,
    SceneParseError,
    ShapeError,
    check_memory,
)
from .fusion import DEFAULT_SCALE_WEIGHTS, check_weights, fuse
from .segmentation import DEFAULT_K, DEFAULT_MIN_SIZE, RegionMap, check_settings, graph_segment, merge_regions

__all__ = [
    "ContextWindowSpec",
    "SemanticGridMap",
    "ParseConfig",
    "OracleClassifier",
    "build_grid_map",
    "default_scale_weights",
    "resolve_windows",
    "integrate_semantics",
    "parse_image",
]

PAPER_WINDOW_SIZES = (56, 112, 224)

# windows per classifier call: at 64 the first conv's im2col matrix for a
# 32-px classifier is 27 x 65536 float32 (7 MB) rather than 28 MB at 256,
# and the forward passes of a 1024^2 parse ran a third faster (measured in
# float64)
WINDOW_BATCH = 64


def window_chunks(n: int) -> list[tuple[int, int]]:
    """[start, stop) ranges that split n windows into classifier calls of
    WINDOW_BATCH.  A lone last window joins the chunk before it: BLAS runs a
    one-window batch on other kernels, whose sums can differ in the last bit
    from those of the windows batched with it."""
    cuts = list(range(WINDOW_BATCH, n, WINDOW_BATCH))
    if cuts and n - cuts[-1] == 1:
        cuts.pop()
    bounds = [0, *cuts, n]
    return list(zip(bounds, bounds[1:]))


@dataclass(frozen=True)
class ContextWindowSpec:
    """Square context windows, smallest to largest, resized to one input size."""

    sizes: tuple[int, ...] = PAPER_WINDOW_SIZES
    canonical_input: int = PAPER_WINDOW_SIZES[0]

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if not self.sizes or any(not 1 <= s <= np.iinfo(np.int64).max for s in self.sizes):
            raise ConfigError(f"window sizes must be >= 1 and fit int64, got {self.sizes}")
        if any(a >= b for a, b in zip(self.sizes, self.sizes[1:])):
            raise ConfigError(f"window sizes must be strictly increasing, got {self.sizes}")
        if self.canonical_input < 1:
            raise ConfigError(f"canonical_input must be >= 1, got {self.canonical_input}")


def _reflect(idx: np.ndarray, n: int) -> np.ndarray:
    """Any int64 indices folded into [0, n) by edge reflection (period
    2n-2, edge samples not repeated)."""
    if n == 1:
        return np.zeros_like(idx)
    period = 2 * n - 2
    idx = np.abs(idx) % period
    return np.where(idx >= n, period - idx, idx)


@dataclass
class SemanticGridMap:
    """Per-cell fused labels on a regular lattice covering the raster.

    Cell (gy, gx) covers pixel rows [gy*stride, (gy+1)*stride) and is
    classified from windows centered on the cell center (clamped to the
    raster edge for the trailing partial cells).
    """

    stride: int
    origin: int
    height: int
    width: int
    cell_labels: np.ndarray
    class_ids: list[int]
    cell_probs: np.ndarray

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.cell_labels.shape


def default_scale_weights(n_windows: int) -> tuple[float, ...]:
    """Fusion weights when none are given: the paper's (0.25, 0.5, 1.0) for
    three windows, uniform for any other count."""
    return DEFAULT_SCALE_WEIGHTS if n_windows == 3 else (1.0,) * n_windows


def _cell_centers(extent: int, stride: int, origin: int) -> np.ndarray:
    count = (extent + stride - 1) // stride
    return np.minimum(origin + stride * np.arange(count), extent - 1)


def _window_index_table(centers: np.ndarray, size, extent: int, out_size: int) -> np.ndarray:
    """[len(centers), out_size] raster indices along one axis: the window of
    ``size`` around each center, nearest-resized to ``out_size`` samples and
    folded into the raster by edge reflection.  ``size`` is one int or one
    per center.  Only the kept samples are reflected, and sample i's offset
    floor(i * size / out_size) is computed without forming i * size, which
    overflows int64 for huge windows."""
    i = np.arange(out_size)
    size = np.asarray(size, dtype=np.int64)[..., None]
    offs = i * (size // out_size) + (i * (size % out_size)) // out_size
    return _reflect(centers[:, None] - size // 2 + offs, extent)


def build_grid_map(
    raster: np.ndarray,
    classifier,
    spec: ContextWindowSpec,
    stride: int,
    scale_weights: tuple[float, ...],
) -> SemanticGridMap:
    """Classify every grid cell's context windows and fuse across scales.

    The classifier answers probs_batch(windows, centers) -> [B,N]
    probabilities, where windows is a [B,3,s,s] float64 batch in [0,1] and
    centers the [B,2] int64 (row, col) of each window's cell center.
    Cells are independent; evaluation order never changes the result.
    """
    if raster.ndim != 3 or raster.shape[2] != 3:
        raise ShapeError(f"expected [H,W,3] raster, got {raster.shape}")
    if not 1 <= stride <= np.iinfo(np.int64).max:
        raise ConfigError(f"stride must be >= 1 and fit int64, got {stride}")
    w = check_weights(scale_weights, len(spec.sizes), "scale weights")

    h, width = raster.shape[:2]
    origin = stride // 2
    cys = _cell_centers(h, stride, origin)
    cxs = _cell_centers(width, stride, origin)
    gh, gw = len(cys), len(cxs)
    class_ids = list(getattr(classifier, "label_ids", []))

    n_scales, side = len(spec.sizes), spec.canonical_input
    n_windows = gh * gw * n_scales
    chunk = min(n_windows, WINDOW_BATCH + 1)
    # one chunk's windows, their float64 copy and its two int64 index tables
    check_memory(
        chunk * side * (3 * side * (raster.itemsize + 8) + 16),
        f"{side}x{side}-px windows, {chunk} to a classifier call",
    )
    sizes = np.asarray(spec.sizes, dtype=np.int64)

    parts = []
    try:
        for a, b in window_chunks(n_windows):
            # window i is scale i % n_scales of cell i // n_scales, cells in
            # row-major order; only this chunk's windows are gathered
            cell, scale = np.divmod(np.arange(a, b), n_scales)
            gy, gx = np.divmod(cell, gw)
            rows = _window_index_table(cys[gy], sizes[scale], h, side)
            cols = _window_index_table(cxs[gx], sizes[scale], width, side)
            windows = raster[rows[:, :, None], cols[:, None, :]].transpose(0, 3, 1, 2).astype(np.float64) / 255.0
            parts.append(classifier.probs_batch(windows, np.stack([cys[gy], cxs[gx]], 1)))
    except SceneParseError as e:
        raise ClassifierError(str(e)) from e
    probs = np.concatenate(parts, axis=0).reshape(gh * gw, n_scales, -1)
    fused = fuse(probs, w).reshape(gh, gw, -1)
    labels = np.argmax(fused, axis=2).astype(np.int32)

    if not class_ids:
        class_ids = list(range(1, fused.shape[2] + 1))
    if len(class_ids) != fused.shape[2]:
        raise ClassifierError(f"classifier returned {fused.shape[2]} probabilities for {len(class_ids)} labels")
    id_table = np.asarray(class_ids, dtype=np.int32)
    return SemanticGridMap(
        stride=stride,
        origin=origin,
        height=h,
        width=width,
        cell_labels=id_table[labels],
        class_ids=class_ids,
        cell_probs=fused,
    )


def integrate_semantics(grid: SemanticGridMap, regions: RegionMap) -> np.ndarray:
    """Majority vote of grid-cell labels inside each region; ties go to the
    lowest label id.  Returns the per-pixel label raster."""
    if regions.shape != (grid.height, grid.width):
        raise ExtentMismatchError(f"regions {regions.shape} vs grid raster {grid.height}x{grid.width}")
    gh, gw = grid.grid_shape
    cy = np.minimum(np.arange(grid.height) // grid.stride, gh - 1)
    cx = np.minimum(np.arange(grid.width) // grid.stride, gw - 1)
    pixel_labels = grid.cell_labels[np.ix_(cy, cx)]
    n_ids = int(grid.cell_labels.max()) + 1
    votes = np.zeros((regions.region_count, n_ids), dtype=np.int64)
    np.add.at(votes, (regions.labels.ravel(), pixel_labels.ravel()), 1)
    winner = np.argmax(votes, axis=1).astype(np.int32)
    return winner[regions.labels]


@dataclass(frozen=True)
class ParseConfig:
    """Everything parse_image needs beyond the checkpoint itself."""

    window_sizes: tuple[int, ...] | None = None
    stride: int | None = None
    scale_weights: tuple[float, ...] | None = None
    k: float = DEFAULT_K
    min_size: int = DEFAULT_MIN_SIZE
    target_count: int | None = None
    expected_labels: tuple[str, ...] | None = None


class OracleClassifier:
    """Ground-truth lookup classifier: one-hot of the truth raster at the
    queried center pixel.  Truth values are 1-based label ids; 0 (void)
    yields a one-hot for the lowest class."""

    def __init__(self, truth: np.ndarray, n_classes: int | None = None):
        t = np.asarray(truth)
        if t.ndim != 2:
            raise ShapeError(f"truth raster must be 2-D, got {t.shape}")
        self.truth = t.astype(np.int32)
        self.n_classes = int(n_classes if n_classes is not None else self.truth.max())
        if self.n_classes < 1:
            raise ConfigError("oracle needs at least one class")
        self.label_ids = list(range(1, self.n_classes + 1))

    def probs_batch(self, windows: np.ndarray, centers: np.ndarray) -> np.ndarray:
        """[B,N] one-hot rows of the truth at each window's center; the
        windows themselves are not read."""
        del windows
        label = self.truth[centers[:, 0], centers[:, 1]]
        return np.eye(self.n_classes)[np.clip(label - 1, 0, self.n_classes - 1)]


def resolve_windows(classifier, config: ParseConfig) -> tuple[ContextWindowSpec, int, tuple[float, ...]]:
    """The window spec, stride and scale weights a parse runs with.

    Unset values default to windows of 1, 2 and 4 times the classifier's
    input size (the paper's 56/112/224 for a classifier without one), a
    stride of half the smallest window, and default_scale_weights."""
    input_size = getattr(classifier, "input_size", None)
    sizes = config.window_sizes
    if input_size is None:
        sizes = sizes or PAPER_WINDOW_SIZES
        input_size = min(sizes)
    elif sizes is None:
        sizes = (input_size, 2 * input_size, 4 * input_size)
    spec = ContextWindowSpec(sizes=tuple(sizes), canonical_input=input_size)
    stride = config.stride if config.stride is not None else max(1, spec.sizes[0] // 2)
    weights = config.scale_weights if config.scale_weights is not None else default_scale_weights(len(spec.sizes))
    return spec, stride, tuple(weights)


@contextmanager
def _stage(name: str):
    try:
        yield
    except SceneParseError as e:
        raise type(e)(f"{name}: {e}") from e


def parse_image(
    raster: np.ndarray,
    classifier,
    config: ParseConfig = ParseConfig(),
) -> tuple[np.ndarray, SemanticGridMap, RegionMap]:
    """Full pipeline: grid map -> segmentation -> majority vote.

    Returns (label raster, grid map, region map).  Deterministic for a
    fixed classifier and config.
    """
    if config.expected_labels is not None:
        have = tuple(getattr(classifier, "labels", ()))
        if have != tuple(config.expected_labels):
            raise IncompatibleCheckpointError(
                f"checkpoint labels {have} do not match expected {tuple(config.expected_labels)}"
            )
    spec, stride, weights = resolve_windows(classifier, config)
    with _stage("segment"):  # before the classifier pass, which takes seconds
        check_settings(config.k, config.min_size, config.target_count)

    with _stage("grid"):
        grid = build_grid_map(raster, classifier, spec, stride, weights)
    with _stage("segment"):
        regions = graph_segment(raster, config.k, config.min_size)
        if config.target_count is not None:
            regions = merge_regions(raster, regions, config.target_count)
    with _stage("integrate"):
        labels = integrate_semantics(grid, regions)
    return labels, grid, regions
