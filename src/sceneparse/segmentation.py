"""Class-agnostic over-segmentation of RGB rasters.

graph_segment follows the graph-based scheme: pixels are nodes of an
8-neighbor graph weighted by Euclidean RGB distance, edges are processed
in ascending weight order, and two components merge when the edge weight
is within both adaptive thresholds tau(C) = k / |C|.  A component takes an
edge of weight w iff its threshold (k for one pixel, else the weight of its
last merge plus k/|C|) is at least w, and a merge at w leaves the merged
component's threshold above w, so the merges of one weight level are
exactly the connected components of its edges between components that
admit w, in any order; the edges come from one unstable sort by weight.
Every level up to the last one holding at least LEVEL_MIN edges is joined
in numpy, one hook-and-pointer-jump pass per level; the sparse tail runs
the sequential rule in Python, in chunks whose start drops the edges
already inside one component.  The result is split into 4-connected
components and anything smaller than min_size is folded into its most
color-similar 4-neighbor: every output region is 4-connected, with ids
dense in row-major first-appearance order.

merge_regions greedily joins the most similar adjacent pair (color
histogram intersection + size complement + bounding-box fill), from a
lazily invalidated heap, until the region count reaches the target.  One
numpy call scores every pair, and one per merge scores the merged region
against its neighbors, each pair with the IEEE operations of a one-pair
call.  The cleanup and the merging find each adjacent pair once, by one
np.unique over pair keys.
"""

from __future__ import annotations

import heapq
import math
import os

import numpy as np

from .errors import ConfigError, DataError, EmptyImageError, IoError, ParseError
from .netpbm import read_pgm, write_pgm

__all__ = [
    "RegionMap",
    "graph_segment",
    "merge_regions",
    "check_settings",
    "region_stats",
    "write_region_map",
    "read_region_map",
    "DEFAULT_K",
    "DEFAULT_MIN_SIZE",
    "DEFAULT_SIM_WEIGHTS",
]

DEFAULT_K = 300.0
DEFAULT_MIN_SIZE = 64
DEFAULT_SIM_WEIGHTS = {"color": 0.6, "size": 0.2, "fill": 0.2}

HIST_BINS = 25
# edges per chunk of the sweep.  Each chunk start drops the edges whose ends
# already share a root, so smaller chunks drop more; at 2^14 the numpy work
# per chunk and the Python loop cost least in sum at 512^2 and 1024^2, and
# the chunk's Python lists stay a few MB
SWEEP_CHUNK = 1 << 14
# weight levels with at least this many edges run as one numpy union pass
# each, up to the last such level; the sparser levels after it go through
# the sequential sweep
LEVEL_MIN = 256


class RegionMap:
    """Dense per-pixel region ids; every region is 4-connected."""

    __slots__ = ("labels", "region_count")

    def __init__(self, labels: np.ndarray, region_count: int):
        self.labels = np.asarray(labels, dtype=np.int32)
        self.region_count = int(region_count)

    @property
    def shape(self) -> tuple[int, int]:
        return self.labels.shape

    def areas(self) -> np.ndarray:
        return np.bincount(self.labels.ravel(), minlength=self.region_count)


def _edges_8(h: int, w: int, color: np.ndarray):
    """The (2, m) array of 8-neighbor edge ends (row 0 lo, row 1 hi, lo < hi)
    and their weights, sorted by weight.

    Slot s of pixel lo holds its edge to lo + 1, lo + w - 1, lo + w or
    lo + w + 1; a slot without that neighbor weighs +inf and sorts past the
    m real edges.  The order among equal weights is whatever the sort
    leaves, which graph_segment's partition does not depend on."""
    img = color.reshape(h, w, 3)
    wgt = np.full((h, w, 4), np.inf)
    for s, (dy, dx) in enumerate(((0, 1), (1, -1), (1, 0), (1, 1))):
        x0, x1 = max(0, -dx), w - max(0, dx)
        d = img[: h - dy, x0:x1] - img[dy:, x0 + dx : x1 + dx]
        d *= d
        wgt[: h - dy, x0:x1, s] = np.sqrt(d.sum(axis=2))
    m = 4 * h * w - 3 * h - 3 * w + 2
    # each edge-sized array is dropped as soon as it is used, and the ends
    # are written in place: at 1024^2 a float64 or int64 one is 34 MB
    slot = np.argsort(wgt.reshape(-1), kind="quicksort")[:m]
    wgt = wgt.reshape(-1)[slot]
    ends = np.empty((2, m), dtype=np.int32 if h * w < 2**31 else np.intp)
    np.right_shift(slot, 2, out=ends[0])
    np.bitwise_and(slot, 3, out=slot)
    # mode='clip' (the offsets are 0..3 anyway) writes to out unbuffered
    np.take(np.array([1, w - 1, w, w + 1], dtype=ends.dtype), slot, out=ends[1], mode="clip")
    ends[1] += ends[0]
    return ends, wgt


def _pointer_jump(parent: np.ndarray) -> np.ndarray:
    """Point every node straight at the root of its tree."""
    while True:
        nxt = parent[parent]
        if np.array_equal(nxt, parent):
            return parent
        parent = nxt


def _roots(parent: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The root of every node in x."""
    r = parent[x]
    while True:
        up = parent[r]
        if (up == r).all():
            return r
        r = up


def _four_cc(labels_flat: list | np.ndarray, h: int, w: int) -> tuple[np.ndarray, int]:
    """Split same-valued pixels into 4-connected components, ids dense in
    row-major first-appearance order.

    Each round hooks every root onto the smallest root across its
    same-valued 4-neighbor pairs, then pointer-jumps to flat trees, so the
    final root of a component is its smallest row-major pixel index."""
    lab = np.asarray(labels_flat).reshape(h, w)
    idx = np.arange(h * w).reshape(h, w)
    a, b = [], []
    for dy, dx in ((0, 1), (1, 0)):
        same = lab[: h - dy, : w - dx] == lab[dy:, dx:]
        a.append(idx[: h - dy, : w - dx][same])
        b.append(idx[dy:, dx:][same])
    a, b = np.concatenate(a), np.concatenate(b)
    parent = np.arange(h * w)
    while True:
        ra, rb = parent[a], parent[b]
        split = ra != rb
        if not split.any():
            break
        lo = np.minimum(ra[split], rb[split])
        hi = np.maximum(ra[split], rb[split])
        np.minimum.at(parent, hi, lo)
        parent = _pointer_jump(parent)
    roots, inv = np.unique(parent, return_inverse=True)
    return inv.reshape(h, w).astype(np.int32), roots.size


def _region_pairs(labels: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Each 4-adjacent pair once, as int64 arrays lo < hi sorted by (lo, hi)."""
    keys = []
    for a, b in ((labels[:, :-1], labels[:, 1:]), (labels[:-1], labels[1:])):
        diff = a != b
        a, b = a[diff].astype(np.int64), b[diff].astype(np.int64)
        keys.append(np.minimum(a, b) * count + np.maximum(a, b))
    return np.divmod(np.unique(np.concatenate(keys)), count)


def _neighbor_sets(lo: np.ndarray, hi: np.ndarray, count: int) -> list[set]:
    """Each region's set of 4-neighbors, from the pairs of _region_pairs."""
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])[np.argsort(src, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(src, minlength=count)).tolist()
    return [set(dst[s:e]) for s, e in zip([0] + ends[:-1], ends)]


def _join_neighbors(neighbors: list[set], keep: int, gone: int) -> None:
    """Hand the 4-neighbors of region gone to keep, which absorbs it."""
    for nb in neighbors[gone]:
        neighbors[nb].discard(gone)
        neighbors[nb].add(keep)
    # in place: keep's set can be far larger than gone's
    neighbors[keep] |= neighbors[gone]
    neighbors[keep] -= {keep, gone}
    neighbors[gone] = set()


def _merge_small(labels: np.ndarray, count: int, color: np.ndarray, min_size: int) -> tuple[np.ndarray, int]:
    """Fold regions below min_size into their most color-similar 4-neighbor,
    smallest region first (ties by lowest id)."""
    areas = np.bincount(labels.ravel(), minlength=count).tolist()
    csum = np.zeros((count, 3))
    np.add.at(csum, labels.ravel(), color)
    csum = csum.tolist()
    # per-region mean colors as Python floats, held until the region grows
    mean = [(s0 / a, s1 / a, s2 / a) for (s0, s1, s2), a in zip(csum, areas)]
    neighbors = _neighbor_sets(*_region_pairs(labels, count), count)

    parent = list(range(count))
    heap = [(areas[r], r) for r in range(count) if areas[r] < min_size]
    heapq.heapify(heap)
    while heap:
        a, r = heapq.heappop(heap)
        if parent[r] != r or areas[r] != a or a >= min_size:
            continue
        if not neighbors[r]:
            break  # the whole raster is one region
        m0, m1, m2 = mean[r]
        best, best_d = -1, math.inf
        for nb in sorted(neighbors[r]):
            n0, n1, n2 = mean[nb]
            d0, d1, d2 = m0 - n0, m1 - n1, m2 - n2
            d = d0 * d0 + d1 * d1 + d2 * d2
            if d < best_d:
                best, best_d = nb, d
        keep, gone = (r, best) if r < best else (best, r)
        parent[gone] = keep
        areas[keep] += areas[gone]
        csum[keep] = [x + y for x, y in zip(csum[keep], csum[gone])]
        s0, s1, s2 = csum[keep]
        area = areas[keep]
        mean[keep] = (s0 / area, s1 / area, s2 / area)
        _join_neighbors(neighbors, keep, gone)
        if area < min_size:
            heapq.heappush(heap, (area, keep))
    return _relabel_dense(_pointer_jump(np.asarray(parent))[labels])


def _relabel_dense(labels: np.ndarray) -> tuple[np.ndarray, int]:
    flat = labels.ravel()
    uniq, inv = np.unique(flat, return_inverse=True)
    # np.unique sorts by old id; remap to row-major first appearance
    first = np.full(uniq.size, flat.size, dtype=np.int64)
    np.minimum.at(first, inv, np.arange(flat.size))
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(uniq.size)
    return rank[inv].reshape(labels.shape).astype(np.int32), uniq.size


def _check_image(image: np.ndarray) -> np.ndarray:
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[2] != 3 or img.shape[0] < 1 or img.shape[1] < 1:
        raise EmptyImageError(f"expected non-empty [H,W,3] RGB raster, got {img.shape}")
    return img.astype(np.float64).reshape(-1, 3)


def _level_unions(tree, size, thr, ends, ew, bounds, k: float) -> None:
    """Apply every merge of the weight levels bounds[i]:bounds[i + 1] to the
    union-find arrays in place, one numpy pass per level.

    At weight w a component admits an edge iff thr >= w, and a merge there
    sets thr = w + k/|C| > w, so no merge of the level changes which
    components admit it: the level's merges are the connected components of
    its edges between distinct admitting roots, in whatever order they are
    taken.  Those are joined by hooking every root onto the smallest root
    across its edges and pointer jumping, as in _four_cc."""
    seen = np.empty(tree.size, dtype=np.intp)
    for s, e in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        w = ew[s]
        x = ends[:, s:e]
        r = _roots(tree, x)
        # point the endpoints straight at their roots, so later levels'
        # root searches stay short
        tree[x] = r
        admit = thr[r] >= w
        ok = (r[0] != r[1]) & admit[0] & admit[1]
        if not ok.any():
            continue
        ra, rb = r[0][ok], r[1][ok]
        olds = r[:, ok].ravel()
        while True:
            np.minimum.at(tree, np.maximum(ra, rb), np.minimum(ra, rb))
            tree[olds] = _roots(tree, olds)
            ra, rb = tree[ra], tree[rb]
            split = ra != rb
            if not split.any():
                break
            ra, rb = ra[split], rb[split]
        # keep one copy of each old root: the one whose position won the
        # scattered write
        pos = np.arange(olds.size)
        seen[olds] = pos
        olds = olds[seen[olds] == pos]
        top = tree[olds]
        moved = top != olds
        np.add.at(size, top[moved], size[olds[moved]])
        # one value per new root, equal to the sequential rule's last one
        thr[top] = w + k / size[top]


def _sweep(ea: np.ndarray, eb: np.ndarray, ew: np.ndarray, size: list, thr: list, k: float) -> np.ndarray:
    """The sequential merge rule over sorted edges between nodes 0..len(size)-1
    that start as roots of the given sizes and thresholds; returns the
    union-find parents."""
    parent = list(range(len(size)))
    tree = np.arange(len(size))  # parent in numpy, brought up to date after each chunk
    for i in range(0, ea.size, SWEEP_CHUNK):
        # An edge whose ends share a root at the chunk start would be skipped
        # by the sweep, since components only grow: drop it.  The rest start
        # their finds from the chunk-start roots; the tree's shape never
        # reaches the output, only its partition does.
        part = slice(i, i + SWEEP_CHUNK)
        ra, rb = _roots(tree, ea[part]), _roots(tree, eb[part])
        keep = ra != rb
        gone, into = [], []
        for a, b, wt in zip(ra[keep].tolist(), rb[keep].tolist(), ew[part][keep].tolist()):
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a == b:
                continue
            if wt <= thr[a] and wt <= thr[b]:
                if size[a] < size[b]:
                    a, b = b, a
                parent[b] = a
                size[a] += size[b]
                thr[a] = wt + k / size[a]
                gone.append(b)
                into.append(a)
        tree[gone] = into
    return tree


def _components(color: np.ndarray, h: int, w: int, k: float) -> np.ndarray:
    """Per-pixel component ids after the merge rule has seen every edge."""
    n = h * w
    ends, ew = _edges_8(h, w, color)
    bounds = np.concatenate([[0], np.flatnonzero(np.diff(ew)) + 1, [ew.size]])
    dense = np.flatnonzero(np.diff(bounds) >= LEVEL_MIN)
    levels = dense[-1] + 1 if dense.size else 0
    switch = bounds[levels]

    tree = np.arange(n)
    size = np.ones(n, dtype=np.int64)
    thr = np.full(n, k)
    _level_unions(tree, size, thr, ends, ew, bounds[: levels + 1], k)

    # the sparse tail runs the sequential sweep on the components left by
    # the dense levels, renumbered 0..R-1, so only R values become lists
    tree = _pointer_jump(tree)
    roots = np.flatnonzero(tree == np.arange(n))
    local = np.empty(n, dtype=np.intp)
    local[roots] = np.arange(roots.size)
    ta, tb = local[tree[ends[:, switch:]]]
    sub = _sweep(ta, tb, ew[switch:], size[roots].tolist(), thr[roots].tolist(), k)
    return roots[_pointer_jump(sub)][local[tree]]


def check_settings(k: float = DEFAULT_K, min_size: int = DEFAULT_MIN_SIZE, target_count: int | None = None) -> None:
    """Raise ConfigError unless graph_segment and merge_regions accept these."""
    if not (math.isfinite(k) and k > 0):
        raise ConfigError(f"k must be positive and finite, got {k}")
    if min_size < 1:
        raise ConfigError(f"min_size must be >= 1, got {min_size}")
    if target_count is not None and target_count < 1:
        raise ConfigError(f"target_count must be >= 1, got {target_count}")


def graph_segment(image: np.ndarray, k: float = DEFAULT_K, min_size: int = DEFAULT_MIN_SIZE) -> RegionMap:
    """Graph-based segmentation with adaptive threshold tau(C) = k / |C|."""
    check_settings(k, min_size)
    color = _check_image(image)
    h, w = image.shape[0], image.shape[1]
    # the edge arrays die with _components, before the cleanup's own arrays
    labels, count = _four_cc(_components(color, h, w, float(k)), h, w)
    labels, count = _merge_small(labels, count, color, min_size)
    return RegionMap(labels, count)


def _histograms(labels: np.ndarray, count: int, color: np.ndarray) -> np.ndarray:
    """Raw per-region color histograms, HIST_BINS bins per channel."""
    bins = (color.astype(np.int64) * HIST_BINS) // 256 + np.arange(0, 3 * HIST_BINS, HIST_BINS)
    bins += labels.reshape(-1, 1).astype(np.int64) * (3 * HIST_BINS)
    hist = np.bincount(bins.ravel(), minlength=count * 3 * HIST_BINS)
    return hist.reshape(count, 3 * HIST_BINS).astype(np.float64)


def _similarities(a, b, hist, areas, lo, hi, total: int, wts) -> np.ndarray:
    """Similarity of regions a[i] and b[i], or of one region a and each b[i];
    lo and hi hold the (y, x) corners of each region's bounding box."""
    na, nb = hist[a] / (3.0 * areas[a])[..., None], hist[b] / (3.0 * areas[b])[..., None]
    color_sim = np.minimum(na, nb).sum(axis=-1)
    size_sim = 1.0 - (areas[a] + areas[b]) / total
    span = np.maximum(hi[a], hi[b]) - np.minimum(lo[a], lo[b]) + 1
    fill_sim = 1.0 - (span[..., 0] * span[..., 1] - areas[a] - areas[b]) / total
    return wts["color"] * color_sim + wts["size"] * size_sim + wts["fill"] * fill_sim


def merge_regions(
    image: np.ndarray,
    rm: RegionMap,
    target_count: int,
    sim_weights: dict | None = None,
) -> RegionMap:
    """Greedy highest-similarity merging of adjacent regions down to target_count."""
    check_settings(target_count=target_count)
    wts = dict(DEFAULT_SIM_WEIGHTS if sim_weights is None else sim_weights)
    if set(wts) != {"color", "size", "fill"} or any(not 0 <= v < math.inf for v in wts.values()):
        raise ConfigError(f"sim_weights needs finite non-negative color/size/fill, got {wts}")
    color = _check_image(image)
    if not ((color >= 0) & (color <= 255)).all():
        raise DataError("pixel values must lie in [0, 255] for the color histograms")
    labels = rm.labels
    if labels.shape != image.shape[:2]:
        raise ConfigError(f"region map {labels.shape} does not match image {image.shape[:2]}")
    count = rm.region_count
    if count <= target_count:
        return RegionMap(labels.copy(), count)

    total = labels.size
    flat = labels.ravel()
    areas = np.bincount(flat, minlength=count).astype(np.int64)
    hist = _histograms(labels, count, color)
    yx = np.stack(np.divmod(np.arange(total), labels.shape[1]), axis=1)
    lo = np.full((count, 2), total, dtype=np.int64)
    hi = np.full((count, 2), -1, dtype=np.int64)
    np.minimum.at(lo, flat, yx)
    np.maximum.at(hi, flat, yx)
    pa, pb = _region_pairs(labels, count)
    neighbors = _neighbor_sets(pa, pb, count)

    # Lazy-invalidated max-heap over adjacent pairs (a < b).  A pair's
    # similarity depends only on its two regions, so after b merges into a
    # only the pairs touching a change: bump a's version and push those.
    # Pops take the highest similarity, exact ties the lowest (a, b); the
    # keys are distinct, so the pops do not depend on the push order.
    parent = list(range(count))
    version = [0] * count
    sims = _similarities(pa, pb, hist, areas, lo, hi, total, wts).tolist()
    heap = [(-sim, a, b, 0, 0) for sim, a, b in zip(sims, pa.tolist(), pb.tolist())]
    heapq.heapify(heap)
    live = count
    while live > target_count and heap:
        _, a, b, va, vb = heapq.heappop(heap)
        if parent[a] != a or parent[b] != b or version[a] != va or version[b] != vb:
            continue
        parent[b] = a
        areas[a] += areas[b]
        hist[a] += hist[b]
        np.minimum(lo[a], lo[b], out=lo[a])
        np.maximum(hi[a], hi[b], out=hi[a])
        _join_neighbors(neighbors, a, b)
        version[a] += 1
        nbs = list(neighbors[a])
        for nb, sim in zip(nbs, _similarities(a, nbs, hist, areas, lo, hi, total, wts).tolist()):
            x, y = (a, nb) if a < nb else (nb, a)
            heapq.heappush(heap, (-sim, x, y, version[x], version[y]))
        live -= 1

    merged, final = _relabel_dense(_pointer_jump(np.asarray(parent))[labels])
    return RegionMap(merged, final)


def region_stats(rm: RegionMap) -> dict:
    """Recount areas and verify the partition/connectivity invariants."""
    labels = rm.labels
    flat = labels.ravel()
    ids_ok = flat.min() >= 0 and flat.max() < rm.region_count if flat.size else False
    dense_ok = ids_ok and np.unique(flat).size == rm.region_count
    areas = np.bincount(flat, minlength=rm.region_count) if ids_ok else np.zeros(rm.region_count, dtype=np.int64)
    if dense_ok:
        _, cc = _four_cc(flat, labels.shape[0], labels.shape[1])
        connectivity_ok = cc == rm.region_count
    else:
        connectivity_ok = False
    return {
        "region_count": rm.region_count,
        "areas": areas,
        "connectivity_ok": bool(connectivity_ok and dense_ok),
    }


def write_region_map(path, rm: RegionMap) -> None:
    """16-bit P5 raster of ids plus a sidecar text record of the count."""
    if rm.region_count > 65536:
        raise IoError(f"{rm.region_count} regions exceed 16-bit id range")
    write_pgm(path, rm.labels.astype(np.uint16), maxval=65535)
    meta = os.fspath(path) + ".meta"
    try:
        with open(meta, "w", encoding="utf-8") as f:
            f.write(f"region_count\t{rm.region_count}\n")
    except OSError as e:
        raise IoError(f"cannot write {meta}: {e}") from e


def read_region_map(path) -> RegionMap:
    labels = read_pgm(path).astype(np.int32)
    meta = os.fspath(path) + ".meta"
    try:
        with open(meta, encoding="utf-8") as f:
            line = f.readline().strip()
    except OSError as e:
        raise IoError(f"cannot read {meta}: {e}") from e
    fields = line.split("\t")
    if len(fields) != 2 or fields[0] != "region_count":
        raise ParseError(f"bad sidecar record: {line!r}")
    try:
        count = int(fields[1])
    except ValueError:
        raise ParseError(f"bad sidecar region count: {fields[1]!r}") from None
    if labels.size and (labels.min() < 0 or labels.max() != count - 1):
        raise ParseError(
            f"declared count {count} does not match id range [0, {labels.max()}]"
        )
    return RegionMap(labels, count)
