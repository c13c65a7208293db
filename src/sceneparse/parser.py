"""Scene parsing pipeline: multi-scale context windows around grid-cell
centers, tile classification fused across scales into a semantic grid map,
class-agnostic segmentation, and per-region majority voting down to pixels.

Windows near the border are completed by edge reflection; all windows are
nearest-neighbor resized to the classifier's input size.  Grid cells store
output label ids (the classifier's label table), not raw head indices.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

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
from .segmentation import check_segment_memory

__all__ = [
    "SemanticGridMap",
    "ParseConfig",
    "OracleClassifier",
    "build_grid_map",
    "resolve",
    "integrate_semantics",
    "parse_image",
]

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


@dataclass(frozen=True)
class ParseConfig:
    """Everything parse_image needs beyond the checkpoint itself, checked when
    built.  Window, stride and scale-weight fields left unset are filled by resolve."""

    window_sizes: tuple[int, ...] | None = None
    stride: int | None = None
    scale_weights: tuple[float, ...] | None = None
    k: float = DEFAULT_K
    min_size: int = DEFAULT_MIN_SIZE
    target_count: int | None = None
    expected_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        sizes = self.window_sizes
        if sizes is not None:
            sizes = tuple(int(s) for s in sizes)
            object.__setattr__(self, "window_sizes", sizes)
            if not sizes or any(not 1 <= s < 2**63 for s in sizes):
                raise ConfigError(f"window sizes must be >= 1 and fit int64, got {sizes}")
            if any(a >= b for a, b in zip(sizes, sizes[1:])):
                raise ConfigError(f"window sizes must be strictly increasing, got {sizes}")
        if self.stride is not None and not 1 <= self.stride < 2**63:
            raise ConfigError(f"stride must be >= 1 and fit int64, got {self.stride}")
        if self.scale_weights is not None:
            object.__setattr__(self, "scale_weights", tuple(self.scale_weights))
            check_weights(self.scale_weights, len(sizes or self.scale_weights), "scale weights")
        check_settings(self.k, self.min_size, self.target_count)


def resolve(classifier, config: ParseConfig) -> ParseConfig:
    """config, checked again, with windows of 1, 2 and 4 times the classifier's
    input size (56 without one), a stride of half the smallest window, and
    DEFAULT_SCALE_WEIGHTS for three windows or uniform weights for any other
    count, wherever it leaves them unset.  Resolving twice changes nothing."""
    s = getattr(classifier, "input_size", None) or 56  # the paper's 56/112/224-px windows
    sizes = (s, 2 * s, 4 * s) if config.window_sizes is None else config.window_sizes
    stride = max(1, sizes[0] // 2) if config.stride is None else config.stride
    weights = config.scale_weights
    if weights is None:
        weights = DEFAULT_SCALE_WEIGHTS if len(sizes) == 3 else (1.0,) * len(sizes)
    return replace(config, window_sizes=sizes, stride=stride, scale_weights=weights)


def build_grid_map(raster: np.ndarray, classifier, config: ParseConfig = ParseConfig()) -> SemanticGridMap:
    """Classify every grid cell's context windows, as config resolves for the
    classifier, and fuse across scales.

    The classifier answers probs_batch(windows, centers) -> [B,N]
    probabilities, where windows is a [B,3,s,s] batch, s the classifier's
    input_size or else the smallest window, and centers the [B,2] int64
    (row, col) of each window's cell center.  A uint8 raster's windows are
    its bytes, as gathered; any other raster's are float64 in [0,1].
    Cells are independent; evaluation order never changes the result.
    """
    if raster.ndim != 3 or raster.shape[2] != 3:
        raise ShapeError(f"expected [H,W,3] raster, got {raster.shape}")
    config = resolve(classifier, config)
    stride, sizes = config.stride, config.window_sizes

    h, width = raster.shape[:2]
    origin = stride // 2
    cys = _cell_centers(h, stride, origin)
    cxs = _cell_centers(width, stride, origin)
    gh, gw = len(cys), len(cxs)
    class_ids = list(getattr(classifier, "label_ids", []))

    n_scales, side = len(sizes), getattr(classifier, "input_size", None) or sizes[0]
    n_windows = gh * gw * n_scales
    chunk = min(n_windows, WINDOW_BATCH + 1)
    # one chunk's windows as gathered, a float64 copy of them unless they are
    # bytes, the classifier's float32 batch and the chunk's two int64 index
    # tables, then every window's float64 probabilities, once per chunk and
    # once concatenated, and the fused map of every cell
    n_classes = len(class_ids)
    window_bytes = raster.itemsize + (0 if raster.dtype == np.uint8 else 8) + 4
    check_memory(
        chunk * side * (3 * side * window_bytes + 16) + 8 * n_classes * (2 * n_windows + gh * gw),
        f"{side}x{side}-px windows, {chunk} to a classifier call, and {n_classes}-class probabilities of {n_windows} windows",
    )
    sizes = np.asarray(sizes, dtype=np.int64)

    parts = []
    try:
        for a, b in window_chunks(n_windows):
            # window i is scale i % n_scales of cell i // n_scales, cells in
            # row-major order; only this chunk's windows are gathered
            cell, scale = np.divmod(np.arange(a, b), n_scales)
            gy, gx = np.divmod(cell, gw)
            rows = _window_index_table(cys[gy], sizes[scale], h, side)
            cols = _window_index_table(cxs[gx], sizes[scale], width, side)
            windows = raster[rows[:, :, None], cols[:, None, :]].transpose(0, 3, 1, 2)
            if windows.dtype != np.uint8:
                windows = windows.astype(np.float64) / 255.0
            parts.append(classifier.probs_batch(windows, np.stack([cys[gy], cxs[gx]], 1)))
    except SceneParseError as e:
        raise ClassifierError(str(e)) from e
    probs = np.concatenate(parts, axis=0).reshape(gh * gw, n_scales, -1)
    fused = fuse(probs, config.scale_weights).reshape(gh, gw, -1)
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
    # votes over the ids present, ascending, so ties still go to the lowest
    ids, index = np.unique(grid.cell_labels, return_inverse=True)
    pixel_index = index.reshape(grid.cell_labels.shape)[np.ix_(cy, cx)]
    votes = np.zeros((regions.region_count, len(ids)), dtype=np.int64)
    np.add.at(votes, (regions.labels.ravel(), pixel_index.ravel()), 1)
    winner = ids[np.argmax(votes, axis=1)].astype(np.int32)
    return winner[regions.labels]


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
        label = np.clip(self.truth[centers[:, 0], centers[:, 1]] - 1, 0, self.n_classes - 1)
        return (label[:, None] == np.arange(self.n_classes)).astype(np.float64)


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
    check_segment_memory(raster.shape)  # before the classifier pass, which takes seconds
    with _stage("grid"):
        grid = build_grid_map(raster, classifier, config)
    with _stage("segment"):
        regions = graph_segment(raster, config.k, config.min_size)
        if config.target_count is not None:
            regions = merge_regions(raster, regions, config.target_count)
    with _stage("integrate"):
        labels = integrate_semantics(grid, regions)
    return labels, grid, regions
