import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sceneparse import errors, segmentation
from sceneparse.errors import ConfigError, DataError, EmptyImageError, IoError, ParseError
from sceneparse.segmentation import _relabel_dense
from tests.conftest import make_scene


# ------------------------------------------------------- naive oracle


def _find(parent: list, x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _felz_loops(img, k):
    """Direct transcription of the graph-merge rule with dict/list
    structures: 8-neighbor euclidean edges sorted by (weight, lo, hi),
    merge when the weight is under both adaptive thresholds."""
    h, w = img.shape[:2]
    f = img.astype(np.float64)
    edges = []
    for y in range(h):
        for x in range(w):
            a = y * w + x
            for dy, dx in ((0, 1), (1, 0), (1, 1), (1, -1)):
                ny, nx = y + dy, x + dx
                if 0 <= ny < h and 0 <= nx < w:
                    b = ny * w + nx
                    wgt = math.sqrt(float(((f[y, x] - f[ny, nx]) ** 2).sum()))
                    edges.append((wgt, min(a, b), max(a, b)))
    edges.sort()

    parent = list(range(h * w))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    size = [1] * (h * w)
    thr = [k] * (h * w)
    for wgt, a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        if wgt <= thr[ra] and wgt <= thr[rb]:
            parent[rb] = ra
            size[ra] += size[rb]
            thr[ra] = wgt + k / size[ra]
    return np.array([find(i) for i in range(h * w)]).reshape(h, w)


def _four_cc_loops(labels):
    """Flood-fill 4-connected components, ids by first appearance."""
    h, w = labels.shape
    out = -np.ones((h, w), dtype=int)
    nxt = 0
    for sy in range(h):
        for sx in range(w):
            if out[sy, sx] >= 0:
                continue
            stack = [(sy, sx)]
            out[sy, sx] = nxt
            while stack:
                y, x = stack.pop()
                for dy, dx in ((0, 1), (0, -1), (1, 0), (-1, 0)):
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < h and 0 <= nx < w and out[ny, nx] < 0 and labels[ny, nx] == labels[y, x]:
                        out[ny, nx] = nxt
                        stack.append((ny, nx))
            nxt += 1
    return out


def _canon(labels):
    """Relabel to dense first-appearance order for partition comparison."""
    out = -np.ones_like(labels)
    nxt = 0
    mapping = {}
    for v in labels.ravel():
        if v not in mapping:
            mapping[v] = nxt
            nxt += 1
    for old, new in mapping.items():
        out[labels == old] = new
    return out


def _similarity_loops(img, mask_a, mask_b, total):
    f = img.reshape(-1, 3)
    bins_a = np.zeros(75)
    bins_b = np.zeros(75)
    for c in range(3):
        for v in f[mask_a.ravel(), c]:
            bins_a[c * 25 + v * 25 // 256] += 1
        for v in f[mask_b.ravel(), c]:
            bins_b[c * 25 + v * 25 // 256] += 1
    sa, sb = int(mask_a.sum()), int(mask_b.sum())
    hist = np.minimum(bins_a / (3 * sa), bins_b / (3 * sb)).sum()
    size = 1.0 - (sa + sb) / total
    ys, xs = np.nonzero(mask_a | mask_b)
    bbox = (ys.max() - ys.min() + 1) * (xs.max() - xs.min() + 1)
    fill = 1.0 - (bbox - sa - sb) / total
    return 0.6 * hist + 0.2 * size + 0.2 * fill


def _greedy_merge_loops(img, labels, target):
    """From-scratch greedy merge: recompute all pair similarities each
    round, fold the higher id into the lower."""
    labels = labels.copy()
    total = labels.size
    while len(np.unique(labels)) > target:
        ids = sorted(np.unique(labels))
        best = None
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                ma, mb = labels == a, labels == b
                adjacent = (
                    (ma[:, :-1] & mb[:, 1:]).any()
                    or (mb[:, :-1] & ma[:, 1:]).any()
                    or (ma[:-1, :] & mb[1:, :]).any()
                    or (mb[:-1, :] & ma[1:, :]).any()
                )
                if not adjacent:
                    continue
                s = _similarity_loops(img, ma, mb, total)
                if best is None or s > best[0]:
                    best = (s, a, b)
        if best is None:
            break
        labels[labels == best[2]] = best[1]
    return labels


# _region_adjacency and _similarity are the set-based adjacency and the
# one-pair scoring that segmentation._region_pairs and _similarities replaced


def _region_adjacency(labels: np.ndarray) -> set[tuple[int, int]]:
    h, w = labels.shape
    pairs = set()
    for dy, dx in ((0, 1), (1, 0)):
        a = labels[: h - dy, : w - dx].ravel()
        b = labels[dy:, dx:].ravel()
        diff = a != b
        lo = np.minimum(a[diff], b[diff])
        hi = np.maximum(a[diff], b[diff])
        pairs.update(zip(lo.tolist(), hi.tolist()))
    return pairs


def _histograms_add_at(labels: np.ndarray, count: int, color: np.ndarray) -> np.ndarray:
    """The np.add.at histograms that segmentation._histograms replaced."""
    bins = (color.astype(np.int64) * segmentation.HIST_BINS) // 256
    hist = np.zeros((count, 3 * segmentation.HIST_BINS))
    flat = labels.ravel()
    for ch in range(3):
        np.add.at(hist, (flat, ch * segmentation.HIST_BINS + bins[:, ch]), 1.0)
    return hist


def _similarity(a: int, b: int, hist, areas, boxes, total: int, wts) -> float:
    ha = hist[a] / (3.0 * areas[a])
    hb = hist[b] / (3.0 * areas[b])
    color_sim = float(np.minimum(ha, hb).sum())
    size_sim = 1.0 - (areas[a] + areas[b]) / total
    y0 = min(boxes[a][0], boxes[b][0])
    x0 = min(boxes[a][1], boxes[b][1])
    y1 = max(boxes[a][2], boxes[b][2])
    x1 = max(boxes[a][3], boxes[b][3])
    bb = (y1 - y0 + 1) * (x1 - x0 + 1)
    fill_sim = 1.0 - (bb - areas[a] - areas[b]) / total
    return wts["color"] * color_sim + wts["size"] * size_sim + wts["fill"] * fill_sim


def _merge_rescan(image, rm, target_count, wts=segmentation.DEFAULT_SIM_WEIGHTS):
    """The full-rescan greedy merge that merge_regions replaced: every round
    rescores every adjacent live pair and merges the best one, exact ties
    going to the lowest (a, b)."""
    color = segmentation._check_image(image)
    labels = rm.labels
    count = rm.region_count
    if count <= target_count:
        return segmentation.RegionMap(labels.copy(), count)

    total = labels.size
    areas = np.bincount(labels.ravel(), minlength=count).astype(np.int64)
    hist = _histograms_add_at(labels, count, color)
    ys, xs = np.indices(labels.shape)
    boxes = []
    for r in range(count):
        m = labels == r
        boxes.append((int(ys[m].min()), int(xs[m].min()), int(ys[m].max()), int(xs[m].max())))
    neighbors = [set() for _ in range(count)]
    for a, b in _region_adjacency(labels):
        neighbors[a].add(b)
        neighbors[b].add(a)

    parent = list(range(count))
    live = count
    while live > target_count:
        best_pair, best_sim = None, -np.inf
        for a in range(count):
            if _find(parent, a) != a:
                continue
            for b in sorted(neighbors[a]):
                if b <= a:
                    continue
                s = _similarity(a, b, hist, areas, boxes, total, wts)
                if s > best_sim:
                    best_sim, best_pair = s, (a, b)
        if best_pair is None:
            break
        a, b = best_pair
        parent[b] = a
        areas[a] += areas[b]
        hist[a] += hist[b]
        boxes[a] = (
            min(boxes[a][0], boxes[b][0]),
            min(boxes[a][1], boxes[b][1]),
            max(boxes[a][2], boxes[b][2]),
            max(boxes[a][3], boxes[b][3]),
        )
        neighbors[a] |= neighbors[b]
        neighbors[a].discard(a)
        neighbors[a].discard(b)
        for nb in neighbors[b]:
            if nb != a:
                neighbors[nb].discard(b)
                neighbors[nb].add(a)
        neighbors[b] = set()
        live -= 1

    root = np.fromiter((_find(parent, r) for r in range(count)), dtype=np.int64, count=count)
    merged, final = _relabel_dense(root[labels])
    return segmentation.RegionMap(merged, final)


def _merge_small_heap(labels, count, color, min_size):
    """The small-region cleanup with numpy per-region sums that
    segmentation._merge_small replaced: fold regions below min_size into
    their most color-similar 4-neighbor, smallest region first (ties by
    lowest id)."""
    areas = np.bincount(labels.ravel(), minlength=count).astype(np.int64)
    csum = np.zeros((count, 3))
    np.add.at(csum, labels.ravel(), color)
    neighbors = [set() for _ in range(count)]
    for a, b in _region_adjacency(labels):
        neighbors[a].add(b)
        neighbors[b].add(a)

    parent = list(range(count))
    heap = [(int(areas[r]), r) for r in range(count) if areas[r] < min_size]
    heapq.heapify(heap)
    while heap:
        a, r = heapq.heappop(heap)
        if _find(parent, r) != r or areas[r] != a or areas[r] >= min_size:
            continue
        if not neighbors[r]:
            break  # the whole raster is one region
        mean_r = csum[r] / areas[r]
        best, best_d = -1, np.inf
        for nb in sorted(neighbors[r]):
            mean_n = csum[nb] / areas[nb]
            d = float(((mean_r - mean_n) ** 2).sum())
            if d < best_d:
                best, best_d = nb, d
        keep, gone = (r, best) if r < best else (best, r)
        parent[gone] = keep
        areas[keep] += areas[gone]
        csum[keep] += csum[gone]
        neighbors[keep] |= neighbors[gone]
        neighbors[keep].discard(keep)
        neighbors[keep].discard(gone)
        for nb in neighbors[gone]:
            if nb != keep:
                neighbors[nb].discard(gone)
                neighbors[nb].add(keep)
        neighbors[gone] = set()
        if areas[keep] < min_size:
            heapq.heappush(heap, (int(areas[keep]), keep))
    return _relabel_dense(segmentation._pointer_jump(np.asarray(parent))[labels])


def _segment_oracle(img, k, min_size):
    """graph_segment assembled from the loop oracles."""
    labels = _canon(_four_cc_loops(_felz_loops(img, k))).astype(np.int32)
    color = img.reshape(-1, 3).astype(np.float64)
    return segmentation.RegionMap(*_merge_small_heap(labels, int(labels.max()) + 1, color, min_size))


def _four_cc_pairs(labels_flat, h: int, w: int) -> tuple[np.ndarray, int]:
    """The pixel-pair 4-connected components that segmentation._four_cc's
    run-length ones replaced, verbatim: each round hooks every root onto the
    smallest root across its same-valued 4-neighbor pixel pairs, then
    pointer-jumps to flat trees."""
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
        parent = segmentation._pointer_jump(parent)
    roots, inv = np.unique(parent, return_inverse=True)
    return inv.reshape(h, w).astype(np.int32), roots.size


def _merge_small_sets(labels, count, color, min_size):
    """The small-region cleanup with Python neighbor sets that
    segmentation._merge_small's array one replaced, verbatim."""
    areas = np.bincount(labels.ravel(), minlength=count).tolist()
    csum = np.zeros((count, 3))
    np.add.at(csum, labels.ravel(), color)
    csum = csum.tolist()
    # per-region mean colors as Python floats, held until the region grows
    mean = [(s0 / a, s1 / a, s2 / a) for (s0, s1, s2), a in zip(csum, areas)]
    neighbors = segmentation._neighbor_sets(*segmentation._region_pairs(labels, count), count)

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
        segmentation._join_neighbors(neighbors, keep, gone)
        if area < min_size:
            heapq.heappush(heap, (area, keep))
    return _relabel_dense(segmentation._pointer_jump(np.asarray(parent))[labels])


def _edges_8_stable(h, w, color):
    """The edge build that segmentation._edges_8 replaced: (lo, hi, weight)
    arrays sorted by (weight, lo, hi) with one stable sort of the
    row-major slots."""
    img = color.reshape(h, w, 3).astype(np.int32)
    wgt = np.zeros((h, w, 4))
    valid = np.zeros((h, w, 4), dtype=bool)
    for s, (dy, dx) in enumerate(((0, 1), (1, -1), (1, 0), (1, 1))):
        x0, x1 = max(0, -dx), w - max(0, dx)
        d = img[: h - dy, x0:x1] - img[dy:, x0 + dx : x1 + dx]
        wgt[: h - dy, x0:x1, s] = np.sqrt((d * d).sum(axis=2))
        valid[: h - dy, x0:x1, s] = True
    slot = np.flatnonzero(valid)
    wgt = wgt.reshape(-1)[slot]
    order = np.argsort(wgt, kind="stable")
    slot = slot[order]
    lo = slot >> 2
    hi = lo + np.array([1, w - 1, w, w + 1])[slot & 3]
    return lo, hi, wgt[order]


def _edges_8_masked(h: int, w: int, color: np.ndarray):
    """The edge build that the +inf-filled one replaced, verbatim but for
    widening the colours to int32: the valid slots kept by a boolean mask
    and compacted before the sort."""
    img = color.reshape(h, w, 3).astype(np.int32)
    wgt = np.zeros((h, w, 4))
    valid = np.zeros((h, w, 4), dtype=bool)
    for s, (dy, dx) in enumerate(((0, 1), (1, -1), (1, 0), (1, 1))):
        x0, x1 = max(0, -dx), w - max(0, dx)
        d = img[: h - dy, x0:x1] - img[dy:, x0 + dx : x1 + dx]
        wgt[: h - dy, x0:x1, s] = np.sqrt((d * d).sum(axis=2))
        valid[: h - dy, x0:x1, s] = True
    slot = np.flatnonzero(valid)
    wgt = wgt.reshape(-1)[slot]
    order = np.argsort(wgt, kind="quicksort")
    # each edge-sized array is dropped as soon as it is used, and the ends
    # are written in place: at 1024^2 every such array is 34 MB
    wgt = wgt[order]
    slot = slot[order]
    del order
    ends = np.empty((2, slot.size), dtype=np.intp)
    np.right_shift(slot, 2, out=ends[0])
    np.bitwise_and(slot, 3, out=slot)
    # mode='clip' (the offsets are 0..3 anyway) writes to out unbuffered
    np.take(np.array([1, w - 1, w, w + 1]), slot, out=ends[1], mode="clip")
    ends[1] += ends[0]
    return ends, wgt


def _graph_segment_chunked(image, k=segmentation.DEFAULT_K, min_size=segmentation.DEFAULT_MIN_SIZE):
    """The graph_segment that the level-synchronous one replaced: every edge
    in (weight, lo, hi) order through the chunk-prefiltered sequential
    sweep."""
    color = segmentation._check_image(image)
    h, w = image.shape[0], image.shape[1]
    labels, count = segmentation._four_cc(_components_chunked(color, h, w, k), h, w)
    labels, count = segmentation._merge_small(labels, count, color, min_size)
    return segmentation.RegionMap(labels, count)


def _components_chunked(color, h, w, k):
    """Per-pixel component ids from the chunk-prefiltered sequential sweep."""
    n = h * w

    parent = list(range(n))
    size = [1] * n
    thr = [float(k)] * n
    tree = np.arange(n)  # parent in numpy, brought up to date after each chunk
    ea, eb, ew = _edges_8_stable(h, w, color)
    for i in range(0, ea.size, segmentation.SWEEP_CHUNK):
        part = slice(i, i + segmentation.SWEEP_CHUNK)
        ra, rb = segmentation._roots(tree, ea[part]), segmentation._roots(tree, eb[part])
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
    return segmentation._pointer_jump(tree)


def region_stats(rm: segmentation.RegionMap) -> dict:
    """Recount areas and verify the partition/connectivity invariants."""
    labels = rm.labels
    flat = labels.ravel()
    ids_ok = flat.min() >= 0 and flat.max() < rm.region_count if flat.size else False
    dense_ok = ids_ok and np.unique(flat).size == rm.region_count
    areas = np.bincount(flat, minlength=rm.region_count) if ids_ok else np.zeros(rm.region_count, dtype=np.int64)
    if dense_ok:
        _, cc = segmentation._four_cc(flat, labels.shape[0], labels.shape[1])
        connectivity_ok = cc == rm.region_count
    else:
        connectivity_ok = False
    return {
        "region_count": rm.region_count,
        "areas": areas,
        "connectivity_ok": bool(connectivity_ok and dense_ok),
    }


def _same_map(got, want):
    return (
        got.region_count == want.region_count
        and got.labels.dtype == want.labels.dtype
        and got.labels.tobytes() == want.labels.tobytes()
    )


def _serpentine(h, w):
    """One snake-shaped region of 1s winding down the raster, 0 pockets
    between its rows: the deepest tree for label propagation."""
    lab = np.zeros((h, w), dtype=np.int64)
    lab[::2] = 1
    lab[1::4, -1] = 1
    lab[3::4, 0] = 1
    return lab


def _random_image(rng, h=24, w=24):
    """Noise plus a few flat rectangles so both smooth and busy areas occur."""
    img = rng.integers(0, 256, size=(h, w, 3)).astype(np.uint8)
    for _ in range(int(rng.integers(1, 4))):
        y0, x0 = int(rng.integers(0, h - 4)), int(rng.integers(0, w - 4))
        hh, ww = int(rng.integers(3, h - y0)), int(rng.integers(3, w - x0))
        img[y0 : y0 + hh, x0 : x0 + ww] = rng.integers(0, 256, size=3)
    return img


def _palette_image(rng, h, w, colors=3):
    """A few distinct colors at random: most edge weights tie exactly."""
    palette = rng.integers(0, 256, size=(colors, 3))
    return palette[rng.integers(0, colors, size=(h, w))].astype(np.uint8)


# ------------------------------------------------------- tests


class TestGraphSegment:
    def test_constant_image_single_region(self):
        img = np.full((10, 10, 3), 77, dtype=np.uint8)
        rm = segmentation.graph_segment(img, k=100.0, min_size=1)
        assert rm.region_count == 1
        assert (rm.labels == 0).all()

    def test_two_flat_halves(self):
        img = np.zeros((10, 10, 3), dtype=np.uint8)
        img[:, 5:] = 250
        rm = segmentation.graph_segment(img, k=50.0, min_size=1)
        assert rm.region_count == 2
        assert (rm.labels[:, :5] == 0).all() and (rm.labels[:, 5:] == 1).all()

    def test_matches_naive_oracle(self, rng):
        for _ in range(20):
            img = _random_image(rng, 12, 14)
            k = float(rng.choice([50.0, 150.0, 400.0]))
            rm = segmentation.graph_segment(img, k=k, min_size=1)
            want = _canon(_four_cc_loops(_felz_loops(img, k)))
            assert np.array_equal(rm.labels, want), k

    def test_tie_heavy_palettes_match_naive_oracle(self, rng):
        for _ in range(20):
            img = _palette_image(rng, 12, 14, int(rng.integers(2, 5)))
            k = float(rng.choice([1.0, 50.0, 400.0]))
            rm = segmentation.graph_segment(img, k=k, min_size=1)
            assert np.array_equal(rm.labels, _canon(_four_cc_loops(_felz_loops(img, k))))

    @pytest.mark.parametrize("h,w", [(1, 1), (1, 17), (17, 1), (13, 2), (2, 13), (2, 2)])
    def test_thin_shapes_match_naive_oracle(self, rng, h, w):
        # at w == 2 the down-left offset w - 1 equals the right offset 1
        for _ in range(5):
            img = _palette_image(rng, h, w) if rng.random() < 0.5 else rng.integers(0, 256, size=(h, w, 3)).astype(np.uint8)
            k = float(rng.choice([20.0, 150.0, 400.0]))
            rm = segmentation.graph_segment(img, k=k, min_size=1)
            assert np.array_equal(rm.labels, _canon(_four_cc_loops(_felz_loops(img, k))))

    @pytest.mark.parametrize("chunk", [1, 2, 7, 64])
    def test_chunk_boundaries_match_naive_oracle(self, rng, monkeypatch, chunk):
        # the sweep recomputes the roots and drops edges inside one
        # component at every chunk start; tiny chunks put many boundaries
        # into 12 x 14 rasters
        monkeypatch.setattr(segmentation, "SWEEP_CHUNK", chunk)
        for _ in range(6):
            img = _random_image(rng, 12, 14) if rng.random() < 0.5 else _palette_image(rng, 12, 14)
            k = float(rng.choice([50.0, 150.0, 400.0]))
            for min_size in (1, 4, 20):
                got = segmentation.graph_segment(img, k=k, min_size=min_size)
                assert _same_map(got, _segment_oracle(img, k, min_size)), (k, min_size)

    def test_matches_the_replaced_pipeline_on_a_512_scene(self):
        # graph_segment against the pipeline it replaced, assembled from the
        # oracles: the sequential sweep over (weight, lo, hi)-sorted float
        # edges, pixel-pair components and the neighbor-set cleanup
        img = make_scene(n_classes=8, size=512, n_points=16, seed=3, noise=20.0)[0]
        color = img.reshape(-1, 3).astype(np.float64)
        labels, count = _four_cc_pairs(_components_chunked(color, 512, 512, segmentation.DEFAULT_K), 512, 512)
        assert count > 10_000
        want = segmentation.RegionMap(*_merge_small_sets(labels, count, color, segmentation.DEFAULT_MIN_SIZE))
        assert _same_map(segmentation.graph_segment(img), want)

    def test_partition_and_dense_ids(self, rng):
        img = _random_image(rng)
        rm = segmentation.graph_segment(img, k=200.0, min_size=8)
        ids = np.unique(rm.labels)
        assert ids[0] == 0 and ids[-1] == rm.region_count - 1
        assert len(ids) == rm.region_count

    def test_min_size_enforced(self, rng):
        for _ in range(10):
            img = _random_image(rng)
            rm = segmentation.graph_segment(img, k=100.0, min_size=30)
            assert min(rm.areas()) >= 30

    def test_connectivity(self, rng):
        for _ in range(10):
            img = _random_image(rng)
            rm = segmentation.graph_segment(img, k=150.0, min_size=10)
            stats = region_stats(rm)
            assert stats["connectivity_ok"]

    def test_deterministic(self, rng):
        img = _random_image(rng)
        a = segmentation.graph_segment(img, k=300.0, min_size=16)
        b = segmentation.graph_segment(img, k=300.0, min_size=16)
        assert np.array_equal(a.labels, b.labels)

    def test_validation(self):
        img = np.zeros((4, 4, 3), dtype=np.uint8)
        with pytest.raises(ConfigError):
            segmentation.graph_segment(img, k=-1.0)
        with pytest.raises(ConfigError):
            segmentation.graph_segment(img, k=1.0, min_size=0)
        with pytest.raises(EmptyImageError):
            segmentation.graph_segment(np.zeros((0, 4, 3), dtype=np.uint8))

    @pytest.mark.parametrize("dtype,value", [
        (np.float64, 255.5), (np.float64, 256.0), (np.float64, -1.0), (np.float64, math.nan),
        (np.float64, math.inf), (np.int64, 256), (np.int16, -1), (np.complex128, 1.0),
    ])
    def test_pixel_values_outside_8_bit_rejected(self, dtype, value):
        # the edge keys are exact integer squared distances of 8-bit colors
        img = np.zeros((6, 7, 3), dtype=dtype)
        img[2, 3, 1] = value
        with pytest.raises(DataError, match=r"integers in \[0, 255\]"):
            segmentation.graph_segment(img)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.uint16, np.bool_])
    def test_integral_8_bit_values_of_any_dtype_accepted(self, rng, dtype):
        img = _random_image(rng, 12, 14)
        if dtype is np.bool_:
            img = img > 127
        want = segmentation.graph_segment(img.astype(np.uint8), 100.0, 4)
        assert _same_map(segmentation.graph_segment(img.astype(dtype), 100.0, 4), want)

    def test_memory_checked_before_the_edges(self, monkeypatch):
        img = np.zeros((4, 5, 3), dtype=np.uint8)
        need = segmentation.SEGMENT_BYTES_PER_PX * 20

        def no_edges(*args):
            raise AssertionError("_edges_8 ran")

        with monkeypatch.context() as mp:
            mp.setattr(errors, "_physical_memory", lambda: need - 1)
            mp.setattr(segmentation, "_edges_8", no_edges)
            with pytest.raises(ConfigError, match="segmenting 20 pixels at .* GiB needed"):
                segmentation.graph_segment(img)
        monkeypatch.setattr(errors, "_physical_memory", lambda: need)
        assert segmentation.graph_segment(img).region_count == 1

    def test_k_monotone_nonincreasing(self, rng):
        for _ in range(10):
            img = _random_image(rng, 20, 20)
            counts = [
                segmentation.graph_segment(img, k=k, min_size=4).region_count
                for k in (30.0, 100.0, 300.0, 900.0)
            ]
            assert all(a >= b for a, b in zip(counts, counts[1:])), counts


class TestEdges8:
    """_edges_8 against the masked build it replaced: the same edges, and
    graph_segment's same maps whatever order the sort leaves ties in."""

    def _rasters(self, rng):
        for h, w in ((1, 1), (1, 9), (9, 1), (2, 7), (17, 23), (40, 31)):
            yield h, w, rng.integers(0, 256, size=(h, w, 3)).astype(np.uint8)
            yield h, w, _palette_image(rng, h, w, int(rng.integers(2, 5)))

    def test_same_edges(self, rng):
        for h, w, img in self._rasters(rng):
            color = img.reshape(-1, 3).astype(np.float64)
            ends, ew = segmentation._edges_8(h, w, color)
            old_ends, old_ew = _edges_8_masked(h, w, color)
            assert ends.dtype == np.int32 and ew.dtype == np.float64
            assert ends.shape == (2, 4 * h * w - 3 * h - 3 * w + 2)
            assert (np.diff(ew) >= 0).all()
            key = np.lexsort((ends[1], ends[0], ew))
            old_key = np.lexsort((old_ends[1], old_ends[0], old_ew))
            assert ew[key].tobytes() == old_ew[old_key].tobytes()
            assert np.array_equal(ends[:, key], old_ends[:, old_key])

    def test_same_maps(self, monkeypatch, rng):
        cases = [(img, k, min_size) for _, _, img in self._rasters(rng) for k, min_size in ((1.0, 1), (300.0, 8))]
        cases.append((make_scene(n_classes=4, size=96, n_points=8, seed=1, noise=20.0)[0], 300.0, 64))
        with monkeypatch.context() as m:
            m.setattr(segmentation, "_edges_8", _edges_8_masked)
            want = [segmentation.graph_segment(img, k, min_size) for img, k, min_size in cases]
        for (img, k, min_size), old in zip(cases, want):
            assert _same_map(segmentation.graph_segment(img, k, min_size), old), (img.shape, k, min_size)


class TestLevelSynchronous:
    """graph_segment against the all-sequential chunked sweep it replaced,
    with the numpy phase covering every level, none, or a prefix."""

    ALL_NUMPY, ALL_SCALAR = 1, 1 << 40

    @pytest.fixture
    def phases(self, monkeypatch):
        """Edges handed to each phase by the calls since the last reset."""
        seen = {"numpy": 0, "scalar": 0}
        level_unions, sweep = segmentation._level_unions, segmentation._sweep

        def spy_levels(tree, size, thr, ends, ew, bounds, k):
            seen["numpy"] += int(bounds[-1] - bounds[0])
            return level_unions(tree, size, thr, ends, ew, bounds, k)

        def spy_sweep(ea, eb, ew, size, thr, k):
            seen["scalar"] += ea.size
            return sweep(ea, eb, ew, size, thr, k)

        monkeypatch.setattr(segmentation, "_level_unions", spy_levels)
        monkeypatch.setattr(segmentation, "_sweep", spy_sweep)
        return seen

    def _check(self, monkeypatch, phases, img, k, min_size, level_mins):
        """Assert equal maps at each cut-off; the edges each phase took."""
        want = _graph_segment_chunked(img, k, min_size)
        took = []
        for level_min in level_mins:
            monkeypatch.setattr(segmentation, "LEVEL_MIN", level_min)
            phases.update(numpy=0, scalar=0)
            got = segmentation.graph_segment(img, k, min_size)
            assert _same_map(got, want), (k, min_size, level_min)
            took.append((phases["numpy"], phases["scalar"]))
        return took

    @pytest.mark.parametrize("size,seed,ks", [(96, 1, (1.0, 300.0)), (112, 2, (50.0, 5000.0)), (128, 3, (1.0, 300.0))])
    def test_scenes(self, monkeypatch, phases, size, seed, ks):
        img = make_scene(n_classes=4, size=size, n_points=8, seed=seed, noise=20.0)[0]
        edges = 4 * size * size - 6 * size + 2
        # these noisy scenes hold at most 47-75 edges per level, so 4 and 16
        # split the edges between the phases
        cuts = (self.ALL_NUMPY, self.ALL_SCALAR, 4, 16)
        for k in ks:
            took = self._check(monkeypatch, phases, img, k, 64, cuts)
            assert took[0] == (edges, 0) and took[1] == (0, edges)
            assert all(a > 0 and b > 0 for a, b in took[2:4]), took

    def test_tie_heavy_palettes(self, monkeypatch, phases, rng):
        for _ in range(12):
            h, w = int(rng.integers(20, 48)), int(rng.integers(20, 48))
            img = _palette_image(rng, h, w, int(rng.integers(2, 6)))
            k = float(rng.choice([1.0, 20.0, 300.0, 5000.0]))
            cuts = (self.ALL_NUMPY, 2, 16, self.ALL_SCALAR)
            self._check(monkeypatch, phases, img, k, int(rng.choice([1, 8])), cuts)

    @pytest.mark.parametrize("h,w", [(1, 1), (1, 300), (300, 1), (2, 150), (150, 2), (3, 97)])
    def test_thin_rasters(self, monkeypatch, phases, rng, h, w):
        for _ in range(3):
            img = _palette_image(rng, h, w) if rng.random() < 0.5 else rng.integers(0, 256, size=(h, w, 3)).astype(np.uint8)
            k = float(rng.choice([1.0, 50.0, 400.0, 5000.0]))
            self._check(monkeypatch, phases, img, k, 1, (self.ALL_NUMPY, 2, 4, self.ALL_SCALAR))

    def test_random_rasters(self, monkeypatch, phases, rng):
        for _ in range(10):
            img = _random_image(rng, 30, 30)
            k = float(rng.choice([1.0, 50.0, 5000.0]))
            cuts = (self.ALL_NUMPY, 1 + int(rng.integers(1, 4)), self.ALL_SCALAR)
            self._check(monkeypatch, phases, img, k, int(rng.choice([1, 4, 16])), cuts)

    def test_sweep_chunks_after_numpy_levels(self, monkeypatch, phases, rng):
        # the tail's chunk prefilter on the renumbered components
        monkeypatch.setattr(segmentation, "SWEEP_CHUNK", 3)
        for _ in range(4):
            # flat rectangles give a large zero-weight level, the noise
            # mostly single-edge levels
            img = _random_image(rng, 24, 24)
            took = self._check(monkeypatch, phases, img, 300.0, 4, (16,))
            assert took[0][0] > 0 and took[0][1] > 0, took

    def test_non_finite_k_rejected(self):
        img = np.zeros((4, 4, 3), dtype=np.uint8)
        for k in (math.nan, math.inf, -math.inf, 0.0):
            with pytest.raises(ConfigError):
                segmentation.graph_segment(img, k=k)


class TestMergeSmall:
    """_merge_small against the numpy-sum cleanup it replaced, byte for byte."""

    SCENES = [(64, 1, 100.0), (80, 2, 150.0), (96, 3, 300.0)]

    @pytest.mark.parametrize("size,seed,k", SCENES)
    def test_scene(self, size, seed, k):
        img = make_scene(n_classes=4, size=size, n_points=8, seed=seed, noise=20.0)[0]
        # at min_size 1 the cleanup folds nothing, leaving the 4-connected
        # graph components that it starts from
        base = segmentation.graph_segment(img, k, 1)
        color = segmentation._check_image(img)
        for min_size in (2, 8, 64, 1000, size * size + 1):
            want = segmentation.RegionMap(*_merge_small_heap(base.labels, base.region_count, color, min_size))
            got = segmentation._merge_small(base.labels, base.region_count, color, min_size)
            assert _same_map(segmentation.RegionMap(*got), want), min_size
            assert _same_map(segmentation.graph_segment(img, k, min_size), want), min_size

    def test_random_rasters(self, rng):
        for _ in range(20):
            img = _random_image(rng, 20, 20) if rng.random() < 0.5 else _palette_image(rng, 20, 20)
            k = float(rng.choice([20.0, 80.0, 300.0]))
            min_size = int(rng.choice([2, 4, 16, 64]))
            assert _same_map(segmentation.graph_segment(img, k, min_size), _segment_oracle(img, k, min_size))


class TestMergeRegions:
    def test_noop_when_under_target(self, rng):
        img = _random_image(rng)
        rm = segmentation.graph_segment(img, k=200.0, min_size=8)
        out = segmentation.merge_regions(img, rm, rm.region_count + 5)
        assert np.array_equal(out.labels, rm.labels)

    def test_merges_to_target(self, rng):
        img = _random_image(rng)
        rm = segmentation.graph_segment(img, k=60.0, min_size=4)
        if rm.region_count < 4:
            pytest.skip("degenerate draw")
        out = segmentation.merge_regions(img, rm, 3)
        assert out.region_count == 3

    def test_matches_greedy_oracle(self, rng):
        for _ in range(10):
            img = _random_image(rng, 16, 16)
            rm = segmentation.graph_segment(img, k=80.0, min_size=4)
            if not 3 < rm.region_count <= 12:
                continue
            target = rm.region_count // 2
            got = segmentation.merge_regions(img, rm, target)
            want = _canon(_greedy_merge_loops(img, rm.labels.astype(int), target))
            assert np.array_equal(got.labels, want)

    def test_quadrants_most_similar_pair_first(self):
        # quadrants: two near-identical reds, one green, one blue; the two
        # reds are the clear histogram-intersection winners
        img = np.zeros((16, 16, 3), dtype=np.uint8)
        img[:8, :8] = (200, 10, 10)
        img[:8, 8:] = (198, 12, 10)
        img[8:, :8] = (10, 200, 10)
        img[8:, 8:] = (10, 10, 200)
        rm = segmentation.graph_segment(img, k=10.0, min_size=1)
        assert rm.region_count == 4
        out = segmentation.merge_regions(img, rm, 3)
        assert out.labels[0, 0] == out.labels[0, 15]
        assert out.labels[8, 0] != out.labels[8, 15]

    @pytest.mark.parametrize(
        "channel,value",
        [(2, 300.0), (0, 256.0), (1, -1.0), (0, math.nan), (2, math.inf), (1, 255.5)],
    )
    def test_pixel_values_outside_8_bit_rejected(self, rng, channel, value):
        # unchecked, 300 in channel 2 indexes past the 75 bins, 256 in
        # channel 0 lands in channel 1's first bin and -1 wraps into another
        img = _random_image(rng, 16, 16).astype(np.float64)
        rm = segmentation.graph_segment(img, k=60.0, min_size=4)
        img[3, 5, channel] = value
        with pytest.raises(DataError, match=r"\[0, 255\]"):
            segmentation.merge_regions(img, rm, 1)

    def test_extreme_8_bit_values_accepted(self):
        img = np.zeros((8, 8, 3))
        img[:, 4:] = 255.0
        rm = segmentation.graph_segment(img, k=1.0, min_size=1)
        assert segmentation.merge_regions(img, rm, 1).region_count == 1


class TestMergeMatchesRescan:
    """merge_regions against the full-rescan oracle, byte for byte."""

    SCENES = [(96, 1, 100.0, 8), (104, 2, 100.0, 8), (112, 3, 100.0, 10), (120, 4, 120.0, 12), (128, 5, 120.0, 12)]

    @pytest.mark.parametrize("size,seed,k,min_size", SCENES)
    def test_scene(self, size, seed, k, min_size):
        img = make_scene(n_classes=4, size=size, n_points=8, seed=seed, noise=20.0)[0]
        rm = segmentation.graph_segment(img, k, min_size)
        assert rm.region_count >= 100
        for target in (rm.region_count // 2, rm.region_count // 4, 1):
            got = segmentation.merge_regions(img, rm, target)
            assert _same_map(got, _merge_rescan(img, rm, target)), target
            stats = region_stats(got)
            assert stats["connectivity_ok"] and stats["region_count"] == target

    def test_exact_ties_take_lowest_pair(self):
        # a checkerboard of identical black and white 8x8 squares: every
        # adjacent pair scores exactly the same, so the first merge must be
        # the lowest pair (0, 1), the two top-left squares
        cells = (np.indices((4, 4)).sum(axis=0) % 2).astype(np.uint8) * 255
        img = np.repeat(np.repeat(cells, 8, axis=0), 8, axis=1)[:, :, None].repeat(3, axis=2)
        rm = segmentation.graph_segment(img, k=1.0, min_size=1)
        assert rm.region_count == 16
        first = segmentation.merge_regions(img, rm, 15)
        assert first.labels[0, 0] == first.labels[0, 8] == 0
        assert np.array_equal(first.labels[:, 16:], rm.labels[:, 16:] - 1)
        for target in range(15, 0, -1):
            got = segmentation.merge_regions(img, rm, target)
            assert _same_map(got, _merge_rescan(img, rm, target)), target

    def test_heap_rebuilt_to_one_entry_per_live_pair(self, monkeypatch):
        # at slack 1 the heap is rebuilt after every merge that leaves a stale
        # entry, and each rebuild must keep exactly the live adjacent pairs
        img = make_scene(n_classes=4, size=96, n_points=8, seed=1, noise=20.0)[0]
        rm = segmentation.graph_segment(img, 100.0, 8)
        target = rm.region_count // 4
        want = _merge_rescan(img, rm, target)
        live_pairs, rebuilds = [], []
        join, heapify = segmentation._join_neighbors, heapq.heapify

        def spy_join(neighbors, keep, gone):
            join(neighbors, keep, gone)
            live_pairs.append(sum(map(len, neighbors)) // 2)

        def spy_heapify(heap):
            rebuilds.append((len(live_pairs), len(heap)))
            heapify(heap)

        monkeypatch.setattr(segmentation, "_join_neighbors", spy_join)
        monkeypatch.setattr(segmentation.heapq, "heapify", spy_heapify)
        monkeypatch.setattr(segmentation, "HEAP_SLACK", 1)
        assert _same_map(segmentation.merge_regions(img, rm, target), want)
        assert len(rebuilds) > 10 and rebuilds[0][0] == 0
        for merges, entries in rebuilds[1:]:
            assert entries == live_pairs[merges - 1]


class TestBatchedScoring:
    """_region_pairs, _similarities and _histograms against the code they
    replaced, byte for byte."""

    WEIGHTS = [
        segmentation.DEFAULT_SIM_WEIGHTS,
        {"color": 0.1, "size": 0.0, "fill": 0.9},
        {"color": 1.0, "size": 0.3, "fill": 0.7},
    ]

    @staticmethod
    def _state(img, rm):
        """Areas, histograms and boxes as merge_regions and the oracle hold them."""
        labels, count = rm.labels, rm.region_count
        color = segmentation._check_image(img)
        areas = np.bincount(labels.ravel(), minlength=count).astype(np.int64)
        hist = segmentation._histograms(labels, count, color)
        ys, xs = np.indices(labels.shape)
        lo = np.array([(ys[labels == r].min(), xs[labels == r].min()) for r in range(count)], dtype=np.int64)
        hi = np.array([(ys[labels == r].max(), xs[labels == r].max()) for r in range(count)], dtype=np.int64)
        boxes = [tuple(b) for b in np.concatenate([lo, hi], axis=1).tolist()]
        return areas, hist, lo, hi, boxes

    @staticmethod
    def _check(pairs, areas, hist, lo, hi, boxes, total, wts):
        pa = np.array([a for a, _ in pairs], dtype=np.int64)
        pb = np.array([b for _, b in pairs], dtype=np.int64)
        want = np.array([_similarity(a, b, hist, areas, boxes, total, wts) for a, b in pairs])
        got = segmentation._similarities(pa, pb, hist, areas, lo, hi, total, wts)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        # one region against all of its neighbors, as after a merge
        for a in np.unique(pa)[:25].tolist():
            nbs = pb[pa == a].tolist()
            got = segmentation._similarities(a, nbs, hist, areas, lo, hi, total, wts)
            assert got.tobytes() == want[pa == a].tobytes()

    @pytest.mark.parametrize("size,seed", [(64, 1), (96, 3)])
    @pytest.mark.parametrize("wts", WEIGHTS)
    def test_similarities_match_per_pair(self, size, seed, wts):
        img = make_scene(n_classes=4, size=size, n_points=8, seed=seed, noise=20.0)[0]
        rm = segmentation.graph_segment(img, 100.0, 4)
        total = rm.labels.size
        areas, hist, lo, hi, boxes = self._state(img, rm)
        pairs = sorted(_region_adjacency(rm.labels))
        assert len(pairs) >= 50
        self._check(pairs, areas, hist, lo, hi, boxes, total, wts)
        # merge every fourth pair whose regions are both still whole, in the
        # merge loop's way, then score every pair again
        parent = list(range(rm.region_count))
        for a, b in pairs[::4]:
            if parent[a] != a or parent[b] != b:
                continue
            parent[b] = a
            areas[a] += areas[b]
            hist[a] += hist[b]
            np.minimum(lo[a], lo[b], out=lo[a])
            np.maximum(hi[a], hi[b], out=hi[a])
            boxes[a] = (min(boxes[a][0], boxes[b][0]), min(boxes[a][1], boxes[b][1]),
                        max(boxes[a][2], boxes[b][2]), max(boxes[a][3], boxes[b][3]))
        assert parent != list(range(rm.region_count))
        self._check(pairs, areas, hist, lo, hi, boxes, total, wts)

    @staticmethod
    def _check_pairs(labels):
        count = int(labels.max()) + 1
        lo, hi = segmentation._region_pairs(labels, count)
        assert lo.dtype == hi.dtype == np.int64
        got = list(zip(lo.tolist(), hi.tolist()))
        assert got == sorted(_region_adjacency(labels))
        want = [set() for _ in range(count)]
        for a, b in got:
            want[a].add(b)
            want[b].add(a)
        assert segmentation._neighbor_sets(lo, hi, count) == want

    def test_region_pairs_random_rasters(self, rng):
        for _ in range(30):
            h, w = int(rng.integers(1, 25)), int(rng.integers(1, 25))
            self._check_pairs(rng.integers(0, int(rng.integers(1, 40)), size=(h, w)).astype(np.int32))

    @pytest.mark.parametrize("h,w", [(1, 1), (1, 19), (19, 1), (7, 9)])
    def test_region_pairs_thin_and_one_region(self, rng, h, w):
        self._check_pairs(np.zeros((h, w), dtype=np.int32))
        self._check_pairs(np.arange(h * w, dtype=np.int32).reshape(h, w))
        self._check_pairs(rng.integers(0, 3, size=(h, w)).astype(np.int32))

    def test_histograms_match_add_at(self, rng):
        for _ in range(10):
            h, w = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            count = int(rng.integers(1, 20))
            labels = rng.integers(0, count, size=(h, w)).astype(np.int32)
            color = rng.integers(0, 256, size=(h * w, 3)).astype(np.float64)
            color[0] = (0.0, 255.0, 127.9)
            got = segmentation._histograms(labels, count, color)
            assert got.dtype == np.float64
            assert got.tobytes() == _histograms_add_at(labels, count, color).tobytes()


@settings(max_examples=60)
@given(
    h=st.integers(1, 16),
    w=st.integers(4, 16),
    colors=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from([1.0, 20.0, 300.0]),
    min_size=st.sampled_from([1, 1, 3]),
    share=st.floats(0.0, 1.0),
)
def test_merge_matches_rescan_on_palette_rasters(h, w, colors, seed, k, min_size, share):
    img = _palette_image(np.random.Generator(np.random.PCG64(seed)), h, w, colors)
    rm = segmentation.graph_segment(img, k, min_size)
    target = max(1, int(share * rm.region_count))
    assert _same_map(segmentation.merge_regions(img, rm, target), _merge_rescan(img, rm, target))


class TestFourCC:
    def _check(self, lab):
        got, count = segmentation._four_cc(lab.ravel(), *lab.shape)
        want = _four_cc_loops(lab)
        assert got.dtype == np.int32
        assert np.array_equal(got, want)
        assert count == want.max() + 1

    def test_random_rasters_match_flood_fill(self, rng):
        for _ in range(20):
            h, w = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            self._check(rng.integers(0, int(rng.integers(1, 4)), size=(h, w)))

    def test_serpentine_single_region(self):
        for h, w in ((63, 40), (64, 7), (9, 64)):
            lab = _serpentine(h, w)
            self._check(lab)
            got, _ = segmentation._four_cc(lab.ravel(), h, w)
            assert np.unique(got[lab == 1]).size == 1

    def test_pointer_jump_flattens_deep_trees(self):
        chain = np.concatenate([[0], np.arange(99)])  # i -> i - 1, 100 deep
        assert (segmentation._pointer_jump(chain) == 0).all()
        two = np.array([0, 0, 1, 3, 3, 4, 5])
        assert np.array_equal(segmentation._pointer_jump(two), [0, 0, 0, 3, 3, 3, 3])

    def test_degenerate_shapes(self):
        self._check(np.zeros((1, 1), dtype=np.int64))
        self._check(np.arange(12).reshape(3, 4))
        self._check(np.zeros((5, 1), dtype=np.int64))


@st.composite
def _thin_rasters(draw):
    """A raster of 1 to 3 values, 1 to 4 px on one side: its runs often
    reach the row end, and the runs of one row start inside the next's."""
    short, long = draw(st.integers(1, 4)), draw(st.integers(1, 48))
    h, w = (short, long) if draw(st.booleans()) else (long, short)
    values = draw(st.integers(1, 3))
    flat = draw(st.lists(st.integers(0, values - 1), min_size=h * w, max_size=h * w))
    return np.array(flat, dtype=np.int64).reshape(h, w)


@settings(max_examples=150)
@given(lab=_thin_rasters())
def test_four_cc_matches_pixel_pairs_on_thin_rasters(lab):
    h, w = lab.shape
    got, count = segmentation._four_cc(lab.ravel(), h, w)
    want, want_count = _four_cc_pairs(lab.ravel(), h, w)
    assert got.dtype == want.dtype and np.array_equal(got, want) and count == want_count
    assert np.array_equal(got, _four_cc_loops(lab))


class TestRegionMapIo:
    def test_round_trip(self, tmp_path, rng):
        img = _random_image(rng)
        rm = segmentation.graph_segment(img, k=150.0, min_size=8)
        p = tmp_path / "r.pgm"
        segmentation.write_region_map(p, rm)
        back = segmentation.read_region_map(p)
        assert back.region_count == rm.region_count
        assert np.array_equal(back.labels, rm.labels)

    def test_many_regions_sixteen_bit(self, tmp_path, rng):
        labels = np.arange(20 * 20, dtype=np.int32).reshape(20, 20)
        rm = segmentation.RegionMap(labels, 400)
        p = tmp_path / "many.pgm"
        segmentation.write_region_map(p, rm)
        back = segmentation.read_region_map(p)
        assert np.array_equal(back.labels, labels)

    def test_over_sixteen_bit_ids_rejected(self, tmp_path):
        labels = np.arange(65537, dtype=np.int32).reshape(1, 65537)
        p = tmp_path / "over.pgm"
        with pytest.raises(IoError):
            segmentation.write_region_map(p, segmentation.RegionMap(labels, 65537))
        assert not p.exists()

    def test_non_integer_sidecar_count(self, tmp_path, rng):
        img = _random_image(rng)
        rm = segmentation.graph_segment(img, k=150.0, min_size=8)
        p = tmp_path / "r.pgm"
        segmentation.write_region_map(p, rm)
        (tmp_path / "r.pgm.meta").write_text("region_count\tabc\n")
        with pytest.raises(ParseError):
            segmentation.read_region_map(p)

    def test_second_sidecar_record_rejected(self, tmp_path, rng):
        img = _random_image(rng)
        rm = segmentation.graph_segment(img, k=150.0, min_size=8)
        p = tmp_path / "r.pgm"
        segmentation.write_region_map(p, rm)
        (tmp_path / "r.pgm.meta").write_text(f"region_count\t{rm.region_count}\nregion_count\t1\n")
        with pytest.raises(ParseError, match="2 region_count records"):
            segmentation.read_region_map(p)

    def test_missing_sidecar(self, tmp_path, rng):
        img = _random_image(rng)
        rm = segmentation.graph_segment(img, k=150.0, min_size=8)
        p = tmp_path / "r.pgm"
        segmentation.write_region_map(p, rm)
        (tmp_path / "r.pgm.meta").unlink()
        with pytest.raises((ParseError, IoError)):
            segmentation.read_region_map(p)

    def test_sidecar_count_mismatch(self, tmp_path, rng):
        img = _random_image(rng)
        rm = segmentation.graph_segment(img, k=150.0, min_size=8)
        p = tmp_path / "r.pgm"
        segmentation.write_region_map(p, rm)
        (tmp_path / "r.pgm.meta").write_text("region_count\t9999\n")
        with pytest.raises(ParseError):
            segmentation.read_region_map(p)
