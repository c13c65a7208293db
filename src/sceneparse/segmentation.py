"""Class-agnostic over-segmentation of RGB rasters.

Rasters hold integers in [0, 255]; any other value is a DataError.

graph_segment follows the graph-based scheme: pixels are nodes of an
8-neighbor graph weighted by Euclidean RGB distance, edges are processed
in ascending weight order, and two components merge when the edge weight
is within both adaptive thresholds tau(C) = k / |C|.  An edge's key, its
squared distance, is an exact int32 below NO_EDGE, and its weight is the
key's square root, the same double as the root of the float sum.  The
edges are ordered by one stable 16-bit radix argsort of the keys' low
halves, split stably by their high bits.  A component takes an edge of
weight w iff its threshold (k for one pixel, else the weight of its last
merge plus k/|C|) is at least w, and a merge at w leaves the merged
component's threshold above w, so the merges of one weight level are
exactly the connected components of its edges between components that
admit w, in any order: the order among equal keys does not matter.  Every
level up to the last one holding at least LEVEL_MIN edges is joined in
numpy, one hook-and-pointer-jump pass per level; the sparse tail runs the
sequential rule in Python, in chunks whose start drops the edges that can
no longer merge: those inside one component, and those touching a
component whose threshold is below the chunk's first weight.  The result
is split into 4-connected components by
joining the horizontal runs of equal ids that overlap in adjacent rows,
and anything smaller than min_size is folded into its most color-similar
4-neighbor, smallest first, from per-region sums and an adjacency array:
every output region is 4-connected, with ids dense in row-major
first-appearance order.

merge_regions greedily joins the most similar adjacent pair (color
histogram intersection + size complement + bounding-box fill), from a
lazily invalidated heap, until the region count reaches the target.  One
numpy call scores every pair, and one per merge scores the merged region
against its neighbors, each pair with the IEEE operations of a one-pair
call.  The cleanup and the merging find each adjacent pair once, by one
sort of pair keys.
"""

from __future__ import annotations

import heapq
import math
import os

import numpy as np

from .errors import ConfigError, DataError, EmptyImageError, IoError, ParseError, check_memory
from .files import read_records, write_file
from .netpbm import read_pgm, write_pgm

__all__ = [
    "RegionMap",
    "graph_segment",
    "merge_regions",
    "check_settings",
    "check_segment_memory",
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
# edges per chunk of the sweep.  Each chunk start drops the edges that can no
# longer merge, so smaller chunks drop more; at 2^14 the numpy work
# per chunk and the Python loop cost least in sum at 512^2 and 1024^2, and
# the chunk's Python lists stay a few MB
SWEEP_CHUNK = 1 << 14
# weight levels with at least this many edges run as one numpy union pass
# each, up to the last such level; the sparser levels after it go through
# the sequential sweep
LEVEL_MIN = 256
# merge_regions rebuilds its heap once it holds more than this many entries
# per live adjacent pair: each rebuild is linear in the heap, and at 3 the
# pushes between rebuilds pay for it
HEAP_SLACK = 3
# graph_segment's peak bytes per pixel, rounded up from its ru_maxrss growth on
# 8-class scenes loaded from .npy (numpy 2.4): 108 at 1024^2, 85 at 2048^2
SEGMENT_BYTES_PER_PX = 108
# one above the largest squared RGB distance of two 8-bit pixels: the key of
# an _edges_8 slot without an edge
NO_EDGE = 3 * 255**2 + 1


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

    The sort runs on int32 keys, the squared RGB distances.  Slot s of pixel
    lo holds its edge to lo + 1, lo + w - 1, lo + w or lo + w + 1; a slot
    without that neighbor holds NO_EDGE and sorts past the m real edges.  The
    order among equal weights is whatever the radix sort leaves, which
    graph_segment's partition does not depend on."""
    planes = np.ascontiguousarray(color.reshape(h, w, 3).transpose(2, 0, 1), dtype=np.int32)
    key = np.full((h, w, 4), NO_EDGE, dtype=np.int32)
    for s, (dy, dx) in enumerate(((0, 1), (1, -1), (1, 0), (1, 1))):
        x0, x1 = max(0, -dx), w - max(0, dx)
        d = planes[:, : h - dy, x0:x1] - planes[:, dy:, x0 + dx : x1 + dx]
        d *= d
        d[0] += d[1]
        d[0] += d[2]
        key[: h - dy, x0:x1, s] = d[0]
    del planes, d
    m = 4 * h * w - 3 * h - 3 * w + 2
    # slots and ends in int32 where they fit: at 1024^2 an int64 slot array
    # is 34 MB, and the sort's own buffers take two more
    idx = np.int32 if 4 * h * w <= 2**31 else np.intp
    # numpy's stable sort of 16-bit integers is a radix sort: order the slots
    # by the low 16 bits of their keys, then split that order stably by the
    # high bits
    key = key.reshape(-1)
    per_key = np.bincount(key, minlength=NO_EDGE + 1)[:NO_EDGE]
    low, high = key.astype(np.uint16), (key >> 16).astype(np.uint8)
    del key
    slot = np.argsort(low, kind="stable").astype(idx)
    del low
    high = high[slot]
    slot = np.concatenate([slot[high == v] for v in range((NO_EDGE >> 16) + 1)])[:m]
    del high
    ends = np.empty((2, m), dtype=idx)
    np.right_shift(slot, 2, out=ends[0])
    np.bitwise_and(slot, 3, out=slot)
    # mode='clip' (the offsets are 0..3 anyway) writes to out unbuffered
    np.take(np.array([1, w - 1, w, w + 1], dtype=idx), slot, out=ends[1], mode="clip")
    ends[1] += ends[0]
    del slot
    # the sorted weights are each key's root repeated as often as the key
    # occurs; sqrt of an exact integer is the root of the float sum of squares
    return ends, np.repeat(np.sqrt(np.arange(NO_EDGE)), per_key)


def _pointer_jump(parent: np.ndarray) -> np.ndarray:
    """Point every node straight at the root of its tree."""
    while True:
        nxt = parent[parent]
        if np.array_equal(nxt, parent):
            return parent
        parent = nxt


def _roots(parent: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The root of every node in x.  Each step up follows only the nodes not
    yet at a root: most start one step below theirs."""
    flat = parent[x].reshape(-1)
    up = parent[flat]
    i = np.flatnonzero(up != flat)
    up = up[i]
    while i.size:
        flat[i] = up
        nxt = parent[up]
        more = nxt != up
        i, up = i[more], nxt[more]
    return flat.reshape(np.shape(x))


def _four_cc(labels_flat: list | np.ndarray, h: int, w: int) -> tuple[np.ndarray, int]:
    """Split same-valued pixels into 4-connected components, ids dense in
    row-major first-appearance order.

    The nodes are the horizontal runs of equal values, numbered in row-major
    order.  Two runs of adjacent rows join where they overlap with equal
    values, and every such overlap starts at a column where a run starts in
    one of the two rows, so only the vertical pairs there are joined.  Each
    round hooks every root onto the smallest root across its pairs, then
    pointer-jumps to flat trees, so the final root of a component is its
    smallest run, the one holding its first pixel."""
    lab = np.asarray(labels_flat).reshape(h, w)
    start = np.ones((h, w), dtype=bool)
    np.not_equal(lab[:, 1:], lab[:, :-1], out=start[:, 1:])
    run = np.cumsum(start, dtype=np.intp).reshape(h, w)
    run -= 1
    pair = lab[:-1] == lab[1:]
    pair &= start[:-1] | start[1:]
    a, b = run[:-1][pair], run[1:][pair]
    parent = np.arange(int(run[-1, -1]) + 1)
    while True:
        ra, rb = parent[a], parent[b]
        split = ra != rb
        if not split.any():
            break
        lo = np.minimum(ra[split], rb[split])
        hi = np.maximum(ra[split], rb[split])
        np.minimum.at(parent, hi, lo)
        parent = _pointer_jump(parent)
    rank, count = _rank_roots(parent)
    return rank[run], count


def _rank_roots(parent: np.ndarray) -> tuple[np.ndarray, int]:
    """For flat trees: each node's int32 rank of its root among the roots,
    and the number of roots."""
    root = parent == np.arange(parent.size)
    return (np.cumsum(root, dtype=np.int32) - 1)[parent], int(np.count_nonzero(root))


def _region_pairs(labels: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Each 4-adjacent pair once, as int64 arrays lo < hi sorted by (lo, hi)."""
    keys = []
    for a, b in ((labels[:, :-1], labels[:, 1:]), (labels[:-1], labels[1:])):
        diff = a != b
        a, b = a[diff].astype(np.int64), b[diff].astype(np.int64)
        keys.append(np.minimum(a, b) * count + np.maximum(a, b))
    keys = np.sort(np.concatenate(keys))
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return np.divmod(keys[first], count)


def _adjacency(lo: np.ndarray, hi: np.ndarray, count: int) -> tuple[list, list]:
    """The pairs of _region_pairs as lists in CSR form: region r's
    4-neighbors are adj[at[r]:at[r + 1]]."""
    src = np.concatenate([lo, hi])
    adj = np.concatenate([hi, lo])[np.argsort(src, kind="stable")].tolist()
    return adj, [0] + np.cumsum(np.bincount(src, minlength=count)).tolist()


def _neighbor_sets(lo: np.ndarray, hi: np.ndarray, count: int) -> list[set]:
    """Each region's set of 4-neighbors, from the pairs of _region_pairs."""
    adj, at = _adjacency(lo, hi, count)
    return [set(adj[s:e]) for s, e in zip(at[:-1], at[1:])]


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
    smallest region first (ties by lowest id); among neighbors at the same
    distance the lowest id wins.  labels must be dense in row-major
    first-appearance order, as _four_cc leaves them.

    A merged region keeps the lower id of the two, so every region is named
    by its smallest member and the surviving ids keep first-appearance
    order.  The neighbors of a region are the roots of its members' initial
    neighbors: only regions below min_size are ever asked for them, and
    those have fewer than min_size members."""
    flat = labels.ravel()
    areas = np.bincount(flat, minlength=count)
    small = np.flatnonzero(areas < min_size)
    # per-channel sums, exact since the colors are integers, and means, as
    # Python floats
    csum = np.stack([np.bincount(flat, color[:, c], minlength=count) for c in range(3)])
    (m0, m1, m2), (c0, c1, c2) = (csum / areas).tolist(), csum.tolist()
    adj, adj_at = _adjacency(*_region_pairs(labels, count), count)
    # heap entries are area * count + id, so ints order by (area, id)
    heap = (areas[small] * count + small).tolist()
    heapq.heapify(heap)
    areas = areas.tolist()

    parent = list(range(count))
    ring = list(range(count))  # each region's members as a circular list
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        e = pop(heap)
        r = e % count
        if parent[r] != r or areas[r] * count + r != e:
            continue
        # the roots of the members' neighbors, r's own members left out; a
        # root met twice scores the same and cannot win twice
        nbs = []
        m = r
        while True:
            for x in adj[adj_at[m] : adj_at[m + 1]]:
                while parent[x] != x:
                    parent[x] = x = parent[parent[x]]
                if x != r:
                    nbs.append(x)
            m = ring[m]
            if m == r:
                break
        if not nbs:
            break  # the whole raster is one region
        r0, r1, r2 = m0[r], m1[r], m2[r]
        best, best_d = -1, math.inf
        for nb in sorted(nbs):
            d0, d1, d2 = r0 - m0[nb], r1 - m1[nb], r2 - m2[nb]
            d = d0 * d0 + d1 * d1 + d2 * d2
            if d < best_d:
                best, best_d = nb, d
        keep, gone = (r, best) if r < best else (best, r)
        parent[gone] = keep
        ring[keep], ring[gone] = ring[gone], ring[keep]
        area = areas[keep] = areas[keep] + areas[gone]
        s0 = c0[keep] = c0[keep] + c0[gone]
        s1 = c1[keep] = c1[keep] + c1[gone]
        s2 = c2[keep] = c2[keep] + c2[gone]
        m0[keep], m1[keep], m2[keep] = s0 / area, s1 / area, s2 / area
        if area < min_size:
            push(heap, area * count + keep)
    rank, count = _rank_roots(_pointer_jump(np.asarray(parent)))
    return rank[labels], count


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
    """The raster as [H*W, 3] uint8 colors, a view of a uint8 raster;
    DataError unless every value is an integer in [0, 255].  Callers widen
    them before they subtract."""
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[2] != 3 or img.shape[0] < 1 or img.shape[1] < 1:
        raise EmptyImageError(f"expected non-empty [H,W,3] RGB raster, got {img.shape}")
    if img.dtype != np.uint8:
        if img.dtype.kind not in "biuf" or not ((img >= 0) & (img <= 255) & (img == np.floor(img))).all():
            raise DataError("pixel values must be integers in [0, 255]")
    return img.astype(np.uint8, copy=False).reshape(-1, 3)


def _level_unions(tree, size, thr, ends, level_w, bounds, k: float) -> None:
    """Apply every merge of the weight levels, edges bounds[i]:bounds[i + 1]
    of weight level_w[i], to the union-find arrays in place, one numpy pass
    per level.

    At weight w a component admits an edge iff thr >= w, and a merge there
    sets thr = w + k/|C| > w, so no merge of the level changes which
    components admit it: the level's merges are the connected components of
    its edges between distinct admitting roots, in whatever order they are
    taken.  Those are joined by hooking every root onto the smallest root
    across its edges and pointer jumping, as in _four_cc."""
    seen = np.empty(tree.size, dtype=np.intp)
    for w, s, e in zip(level_w.tolist(), bounds[:-1].tolist(), bounds[1:].tolist()):
        x = ends[:, s:e]
        r = _roots(tree, x)
        # point the endpoints straight at their roots, so later levels'
        # root searches stay short
        tree[x] = r
        ra, rb = r
        split = ra != rb
        ra, rb = ra[split], rb[split]
        ok = thr[ra] >= w
        ok &= thr[rb] >= w
        if not ok.any():
            continue
        ra, rb = ra[ok], rb[ok]
        olds = np.concatenate([ra, rb])
        while True:
            np.minimum.at(tree, np.maximum(ra, rb), np.minimum(ra, rb))
            tree[olds] = _roots(tree, olds)
            ra, rb = tree[ra], tree[rb]
            split = ra != rb
            if not split.any():
                break
            ra, rb = ra[split], rb[split]
        # each old root that was hooked hands its size to its new root once:
        # the copy whose position won the scattered write
        top = tree[olds]
        moved = top != olds
        olds, top = olds[moved], top[moved]
        pos = np.arange(olds.size)
        seen[olds] = pos
        once = seen[olds] == pos
        np.add.at(size, top[once], size[olds[once]])
        # one value per new root, equal to the sequential rule's last one
        thr[top] = w + k / size[top]


def _sweep(ea: np.ndarray, eb: np.ndarray, ew: np.ndarray, size: list, thr: list, k: float) -> np.ndarray:
    """The sequential merge rule over sorted edges between nodes 0..len(size)-1
    that start as roots of the given sizes and thresholds; returns the
    union-find parents."""
    parent = list(range(len(size)))
    # parent and thr in numpy, brought up to date after each chunk
    tree, limit = np.arange(len(size)), np.array(thr)
    for i in range(0, ea.size, SWEEP_CHUNK):
        # An edge whose ends share a root at the chunk start would be skipped
        # by the sweep, since components only grow: drop it.  So is an edge
        # with an end whose root's threshold is below the chunk's first
        # weight: that root admits no later edge, so it never merges again.
        # The rest start their finds from the chunk-start roots; the tree's
        # shape never reaches the output, only its partition does.
        part = slice(i, i + SWEEP_CHUNK)
        ra, rb = _roots(tree, ea[part]), _roots(tree, eb[part])
        keep = (ra != rb) & (limit[ra] >= ew[i]) & (limit[rb] >= ew[i])
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
        limit[into] = [thr[a] for a in into]
    return tree


def _components(color: np.ndarray, h: int, w: int, k: float) -> np.ndarray:
    """Per-pixel component ids after the merge rule has seen every edge."""
    n = h * w
    ends, ew = _edges_8(h, w, color)
    bounds = np.concatenate([[0], np.flatnonzero(ew[1:] != ew[:-1]) + 1, [ew.size]])
    dense = np.flatnonzero(np.diff(bounds) >= LEVEL_MIN)
    levels = dense[-1] + 1 if dense.size else 0
    switch = bounds[levels]
    # the dense levels need one weight each: only the tail's are kept
    level_w, tail_w = ew[bounds[:levels]], ew[switch:].copy()
    del ew

    tree = np.arange(n)
    size = np.ones(n, dtype=np.int64)
    thr = np.full(n, k)
    _level_unions(tree, size, thr, ends, level_w, bounds[: levels + 1], k)

    # the sparse tail runs the sequential sweep on the components left by
    # the dense levels, renumbered 0..R-1, so only R values become lists
    tree = _pointer_jump(tree)
    roots = np.flatnonzero(tree == np.arange(n))
    size, thr = size[roots].tolist(), thr[roots].tolist()
    local = np.empty(n, dtype=np.intp)
    local[roots] = np.arange(roots.size)
    ta, tb = local[tree[ends[:, switch:]]]
    del ends
    sub = _sweep(ta, tb, tail_w, size, thr, k)
    return roots[_pointer_jump(sub)][local[tree]]


def check_settings(k: float = DEFAULT_K, min_size: int = DEFAULT_MIN_SIZE, target_count: int | None = None) -> None:
    """Raise ConfigError unless graph_segment and merge_regions accept these."""
    if not (math.isfinite(k) and k > 0):
        raise ConfigError(f"k must be positive and finite, got {k}")
    if min_size < 1:
        raise ConfigError(f"min_size must be >= 1, got {min_size}")
    if target_count is not None and target_count < 1:
        raise ConfigError(f"target_count must be >= 1, got {target_count}")


def check_segment_memory(shape) -> None:
    """ConfigError if graph_segment needs more than this machine's memory for this raster shape."""
    pixels = math.prod(shape[:2])
    check_memory(SEGMENT_BYTES_PER_PX * pixels, f"segmenting {pixels} pixels at {SEGMENT_BYTES_PER_PX} bytes each")


def graph_segment(image: np.ndarray, k: float = DEFAULT_K, min_size: int = DEFAULT_MIN_SIZE) -> RegionMap:
    """Graph-based segmentation with adaptive threshold tau(C) = k / |C|."""
    check_settings(k, min_size)
    check_segment_memory(np.shape(image))
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


def merge_regions(image: np.ndarray, rm: RegionMap, target_count: int) -> RegionMap:
    """Greedy highest-similarity merging of adjacent regions down to target_count."""
    check_settings(target_count=target_count)
    color = _check_image(image)
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
    # keys are distinct, so the pops do not depend on the push order.  An
    # entry is live while both its versions are current; a merged-away
    # region's version becomes -1, which no entry carries.  So the heap
    # holds exactly one live entry per adjacent pair, and when it grows past
    # HEAP_SLACK entries per pair it is rebuilt from the live ones, which
    # bounds its memory where one hub region wins most merges.
    parent = list(range(count))
    version = [0] * count
    sims = _similarities(pa, pb, hist, areas, lo, hi, total, DEFAULT_SIM_WEIGHTS).tolist()
    heap = [(-sim, a, b, 0, 0) for sim, a, b in zip(sims, pa.tolist(), pb.tolist())]
    heapq.heapify(heap)
    pairs = len(heap)
    live = count
    while live > target_count and heap:
        _, a, b, va, vb = heapq.heappop(heap)
        if version[a] != va or version[b] != vb:
            continue
        pairs -= len(neighbors[a]) + len(neighbors[b]) - 1
        parent[b] = a
        version[b] = -1
        areas[a] += areas[b]
        hist[a] += hist[b]
        np.minimum(lo[a], lo[b], out=lo[a])
        np.maximum(hi[a], hi[b], out=hi[a])
        _join_neighbors(neighbors, a, b)
        version[a] += 1
        nbs = list(neighbors[a])
        for nb, sim in zip(nbs, _similarities(a, nbs, hist, areas, lo, hi, total, DEFAULT_SIM_WEIGHTS).tolist()):
            x, y = (a, nb) if a < nb else (nb, a)
            heapq.heappush(heap, (-sim, x, y, version[x], version[y]))
        pairs += len(nbs)
        live -= 1
        if len(heap) > HEAP_SLACK * pairs:
            heap = [e for e in heap if version[e[1]] == e[3] and version[e[2]] == e[4]]
            heapq.heapify(heap)

    merged, final = _relabel_dense(_pointer_jump(np.asarray(parent))[labels])
    return RegionMap(merged, final)


def write_region_map(path, rm: RegionMap) -> None:
    """16-bit P5 raster of ids plus a sidecar text record of the count."""
    if rm.region_count > 65536:
        raise IoError(f"{rm.region_count} regions exceed 16-bit id range")
    write_pgm(path, rm.labels.astype(np.uint16), maxval=65535)
    write_file(os.fspath(path) + ".meta", f"region_count\t{rm.region_count}\n".encode("utf-8"))


def _region_count(fields) -> int:
    key, count = fields
    if key != "region_count":
        raise ValueError(f"unknown key {key!r}")
    return int(count)


def read_region_map(path) -> RegionMap:
    labels = read_pgm(path).astype(np.int32)
    meta = os.fspath(path) + ".meta"
    counts = read_records(meta, "region_count<TAB>count", _region_count)
    if len(counts) != 1:
        raise ParseError(f"{meta}: {len(counts)} region_count records, expected 1")
    count = counts[0]
    if labels.size and (labels.min() < 0 or labels.max() != count - 1):
        raise ParseError(
            f"declared count {count} does not match id range [0, {labels.max()}]"
        )
    return RegionMap(labels, count)
