import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from sceneparse import errors, model, parser, segmentation
from sceneparse.errors import (
    ClassifierError,
    ConfigError,
    ExtentMismatchError,
    IncompatibleCheckpointError,
    ShapeError,
)
from sceneparse.fusion import fuse
from tests.conftest import make_scene


def reflect_indices(start, length, n):
    """Indices start..start+length-1 folded into [0, n) by parser._reflect
    (period 2n-2, edge samples not repeated).  An array of starts gives one
    row of indices per start."""
    return parser._reflect(np.asarray(start, dtype=np.int64)[..., None] + np.arange(length), n)


def reflect_loops(start, length, n):
    """Bouncing-walk reflection oracle (edge samples not repeated)."""
    out = []
    for i in range(start, start + length):
        j = i
        if n == 1:
            out.append(0)
            continue
        while j < 0 or j > n - 1:
            j = -j if j < 0 else 2 * (n - 1) - j
        out.append(j)
    return out


def oracle_grid_loops(truth, n_classes, h, w, stride):
    """The per-cell oracle loop build_grid_map ran before the one batched
    protocol, with OracleClassifier.probs_at inlined: every scale sees the
    same center pixel, so the one-hot is the cell's fused vector as is."""

    def probs_at(y, x):
        p = np.zeros(n_classes)
        label = int(truth[y, x])
        p[max(0, min(label - 1, n_classes - 1))] = 1.0
        return p

    origin = stride // 2
    cys = parser._cell_centers(h, stride, origin)
    cxs = parser._cell_centers(w, stride, origin)
    gh, gw = len(cys), len(cxs)
    fused = np.empty((gh, gw, 0))
    labels = np.empty((gh, gw), dtype=np.int32)
    for gy, cy in enumerate(cys):
        for gx, cx in enumerate(cxs):
            p = np.asarray(probs_at(int(cy), int(cx)), dtype=np.float64)
            if fused.shape[2] != p.size:
                fused = np.empty((gh, gw, p.size))
            fused[gy, gx] = p  # every scale sees the same center pixel
            labels[gy, gx] = np.argmax(p)
    return fused, labels


def _resize_nearest(patch: np.ndarray, out_size: int) -> np.ndarray:
    src = patch.shape[0]
    idx = (np.arange(out_size) * src) // out_size
    return patch[np.ix_(idx, idx)]


def extract_context_windows(raster: np.ndarray, center: tuple[int, int], sizes, side: int) -> list[np.ndarray]:
    """Windows of every size in `sizes` centered on `center`, each resized
    to [side, side, 3]."""
    h, w = raster.shape[:2]
    cy, cx = int(center[0]), int(center[1])
    if not (0 <= cy < h and 0 <= cx < w):
        raise IndexError(f"center ({cy},{cx}) outside {h}x{w} raster")
    out = []
    for size in sizes:
        half = size // 2
        rows = reflect_indices(cy - half, size, h)
        cols = reflect_indices(cx - half, size, w)
        win = raster[np.ix_(rows, cols)]
        out.append(_resize_nearest(win, side))
    return out


def grid_all_cells(raster, classifier, config):
    """(cell_probs, cell_labels) from the all-cells gather build_grid_map ran
    before it gathered per chunk: one fancy index per scale fills a
    [gh, gw, S, s, s, 3] buffer of every cell's windows, whose flat rows and
    repeated centres then go to the classifier chunk by chunk.  config is
    resolved, and the classifier has an input size."""
    h, w = raster.shape[:2]
    stride, sizes, side = config.stride, config.window_sizes, classifier.input_size
    cys = parser._cell_centers(h, stride, stride // 2)
    cxs = parser._cell_centers(w, stride, stride // 2)
    gh, gw, n_scales = len(cys), len(cxs), len(sizes)
    patches = np.empty((gh, gw, n_scales, side, side, 3), dtype=raster.dtype)
    for s, size in enumerate(sizes):
        rows = parser._window_index_table(cys, size, h, side)
        cols = parser._window_index_table(cxs, size, w, side)
        patches[:, :, s] = raster[rows[:, None, :, None], cols[None, :, None, :]]
    flat = patches.reshape(-1, side, side, 3)
    centers = np.repeat(np.stack(np.meshgrid(cys, cxs, indexing="ij"), axis=-1).reshape(gh * gw, 2), n_scales, axis=0)
    probs = np.concatenate(
        [
            classifier.probs_batch(flat[a:b].transpose(0, 3, 1, 2).astype(np.float64) / 255.0, centers[a:b])
            for a, b in parser.window_chunks(len(flat))
        ]
    )
    fused = fuse(probs.reshape(gh * gw, n_scales, -1), config.scale_weights).reshape(gh, gw, -1)
    return fused, np.asarray(classifier.label_ids, dtype=np.int32)[np.argmax(fused, axis=2)]


class Counting(parser.OracleClassifier):
    """Oracle that counts its classifier calls."""

    calls = 0

    def probs_batch(self, windows, centers):
        self.calls += 1
        return super().probs_batch(windows, centers)


def truth_regions(truth):
    labels, count = segmentation._four_cc(truth.ravel(), *truth.shape)
    return segmentation.RegionMap(labels, count)


class TestReflectIndices:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 10])
    def test_matches_bounce_oracle(self, n):
        for start in range(-3 * n, 2 * n):
            got = reflect_indices(start, 2 * n + 3, n)
            assert list(got) == reflect_loops(start, 2 * n + 3, n), (start, n)

    def test_interior_is_identity(self):
        assert list(reflect_indices(2, 5, 10)) == [2, 3, 4, 5, 6]

    def test_matches_numpy_pad(self):
        vals = np.arange(9.0)
        pad = 20
        padded = np.pad(vals, (pad, pad), mode="reflect")
        got = vals[reflect_indices(-pad, 9 + 2 * pad, 9)]
        assert np.array_equal(got, padded)


class TestContextWindows:
    def test_interior_window_is_direct_slice(self, rng):
        raster = rng.integers(0, 256, size=(40, 40, 3), dtype=np.uint8)
        (win,) = extract_context_windows(raster, (20, 20), (8,), 8)
        assert np.array_equal(win, raster[16:24, 16:24])

    def test_resize_matches_index_formula(self, rng):
        raster = rng.integers(0, 256, size=(40, 40, 3), dtype=np.uint8)
        win8, win16 = extract_context_windows(raster, (20, 20), (8, 16), 8)
        big = raster[12:28, 12:28]
        for y in range(8):
            for x in range(8):
                assert (win16[y, x] == big[(y * 16) // 8, (x * 16) // 8]).all()
        assert np.array_equal(win8, raster[16:24, 16:24])

    def test_border_window_matches_numpy_pad(self, rng):
        raster = rng.integers(0, 256, size=(12, 12, 3), dtype=np.uint8)
        (win,) = extract_context_windows(raster, (0, 11), (9,), 9)
        padded = np.pad(raster, ((4, 4), (4, 4), (0, 0)), mode="reflect")
        assert np.array_equal(win, padded[0:9, 11:20])

    def test_window_larger_than_raster(self, rng):
        raster = rng.integers(0, 256, size=(6, 6, 3), dtype=np.uint8)
        (win,) = extract_context_windows(raster, (3, 3), (24,), 24)
        assert win.shape == (24, 24, 3)

    def test_center_out_of_bounds(self, rng):
        raster = rng.integers(0, 256, size=(6, 6, 3), dtype=np.uint8)
        with pytest.raises(IndexError):
            extract_context_windows(raster, (6, 0), (4,), 4)


class TestWindowIndexTable:
    @pytest.mark.parametrize("size", [1, 5, 9, 40, 2**31 + 3, 2**62, 2**63 - 1])
    def test_matches_python_int_oracle(self, size):
        centers = parser._cell_centers(13, 4, 2)
        for out_size in (1, 3, 8):
            got = parser._window_index_table(centers, size, 13, out_size)
            assert got.shape == (len(centers), out_size)
            for row, c in zip(got.tolist(), centers.tolist()):
                # exact integers for sample i's index; reflection repeats every
                # 24 = 2 * (13 - 1) pixels, so the bounce walk starts from it mod 24
                want = [reflect_loops((c - size // 2 + i * size // out_size) % 24, 1, 13)[0] for i in range(out_size)]
                assert row == want, (size, out_size)


class TestOracleClassifier:
    def test_one_hot_at_truth(self):
        truth = np.array([[1, 2], [3, 1]])
        oc = parser.OracleClassifier(truth)
        assert oc.n_classes == 3
        got = oc.probs_batch(None, np.array([[0, 1], [1, 0], [1, 1]]))
        assert got.tolist() == [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
        assert oc.label_ids == [1, 2, 3]

    def test_void_maps_to_lowest(self):
        oc = parser.OracleClassifier(np.array([[0, 2]]))
        assert oc.probs_batch(None, np.array([[0, 0]])).tolist() == [[1.0, 0.0]]

    def test_label_above_range_maps_to_highest(self):
        oc = parser.OracleClassifier(np.array([[5, 1]]), n_classes=3)
        assert oc.probs_batch(None, np.array([[0, 0]])).tolist() == [[0.0, 0.0, 1.0]]

    def test_memory_grows_with_the_batch_not_the_class_count_squared(self):
        # an identity matrix of 4096 classes is 128 MiB; two one-hot rows are 64 KiB
        oc = parser.OracleClassifier(np.array([[4096, 7]]))
        tracemalloc.start()
        try:
            got = oc.probs_batch(None, np.array([[0, 0], [0, 1]]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert got.dtype == np.float64 and got.shape == (2, 4096)
        assert np.flatnonzero(got[0]).tolist() == [4095] and np.flatnonzero(got[1]).tolist() == [6]
        assert got.sum() == 2.0


class TestBuildGridMap:
    def test_cell_centers(self):
        # extent 10, stride 4 -> 3 cells centered 2, 6, 9 (last clamped)
        got = parser._cell_centers(10, 4, 2)
        assert list(got) == [2, 6, 9]

    def test_oracle_grid_labels(self):
        truth = np.arange(1, 17).reshape(4, 4).clip(1, 4)
        truth = np.array([[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]])
        raster = np.zeros((4, 4, 3), dtype=np.uint8)
        grid = parser.build_grid_map(raster, parser.OracleClassifier(truth), parser.ParseConfig(window_sizes=(2,), stride=2))
        assert grid.grid_shape == (2, 2)
        # centers at (1,1),(1,3),(3,1),(3,3)
        assert np.array_equal(grid.cell_labels, [[1, 2], [3, 4]])

    @pytest.mark.parametrize(
        "shape,sizes,stride,weights",
        [
            ((64, 64), (8,), 4, None),
            ((37, 53), (5, 9, 15), 4, None),
            ((37, 53), (5, 9, 15), 3, (0.1, 0.2, 0.3)),
            ((16, 688), (32, 64, 128), 16, (3.0, 1e-3, 7.5)),
            ((1, 30), (1, 2), 1, None),
        ],
    )
    def test_oracle_matches_per_cell_loop(self, rng, shape, sizes, stride, weights):
        # truth 0 (void) and ids above n_classes both clip into the label range
        truth = rng.integers(0, 7, size=shape)
        raster = rng.integers(0, 256, size=shape + (3,), dtype=np.uint8)
        cfg = parser.ParseConfig(window_sizes=sizes, stride=stride, scale_weights=weights)
        grid = parser.build_grid_map(raster, parser.OracleClassifier(truth, n_classes=5), cfg)
        fused, labels = oracle_grid_loops(truth, 5, *shape, stride)
        assert grid.cell_probs.tobytes() == fused.tobytes()
        assert np.array_equal(grid.cell_labels, np.arange(1, 6, dtype=np.int32)[labels])

    def test_chunked_conversion_bit_identical(self):
        from tests.test_model import SMALL

        # 48x48 at stride 4 is 144 cells x 3 windows = 432 windows, several chunks
        params = {name: t.data for name, t in model.init_params(SMALL, seed=3).items()}
        msc = model.MSCConfig(mu_g=1.0, mu_m=0.0)
        clf = model.TileClassifier(model.Checkpoint(SMALL, msc, ["a", "b", "c"], [1, 2, 3], params))
        raster = make_scene(n_classes=3, size=48, seed=4)[0]
        cfg = parser.resolve(clf, parser.ParseConfig(stride=4))
        grid = parser.build_grid_map(raster, clf, cfg)

        # the whole-batch path: every window converted to float64 up front
        cys = parser._cell_centers(48, 4, 2)
        flat = np.stack(
            [
                win
                for cy in cys
                for cx in cys
                for win in extract_context_windows(raster, (int(cy), int(cx)), cfg.window_sizes, clf.input_size)
            ]
        )
        assert len(flat) > 256
        x = flat.transpose(0, 3, 1, 2).astype(np.float64) / 255.0
        probs = np.concatenate([clf.probs_batch(x[i : i + 256]) for i in range(0, len(x), 256)])
        w = np.asarray(cfg.scale_weights)
        want = ((w[None, :, None] * probs.reshape(len(cys) ** 2, 3, -1)).sum(axis=1) / w.sum()).reshape(len(cys), len(cys), -1)
        assert np.array_equal(grid.cell_probs, want)

    @pytest.mark.parametrize(
        "shape,sizes,stride",
        [
            ((37, 53), (5, 9, 15), 4),  # odd sizes, more than 64 windows
            ((6, 9), (4, 16, 40), 2),  # windows larger than the raster
            ((1, 1), (3, 6), 1),
            ((1, 30), (1, 2), 1),
            ((16, 688), (32, 64, 128), 16),  # 129 windows: the last would be alone
        ],
    )
    def test_gather_matches_per_cell_windows(self, rng, shape, sizes, stride):
        raster = rng.integers(0, 256, size=shape + (3,), dtype=np.uint8)
        seen, seen_centers = [], []

        class Recorder:
            label_ids = [1]

            def probs_batch(self, x, centers):
                seen.append(x)
                seen_centers.append(centers)
                return np.ones((len(x), 1))

        parser.build_grid_map(raster, Recorder(), parser.ParseConfig(window_sizes=sizes, stride=stride))
        cys = parser._cell_centers(shape[0], stride, stride // 2)
        cxs = parser._cell_centers(shape[1], stride, stride // 2)
        want = np.stack(
            [win for cy in cys for cx in cxs for win in extract_context_windows(raster, (int(cy), int(cx)), sizes, sizes[0])]
        )
        got = np.concatenate(seen)
        assert got.dtype == np.uint8  # a byte raster's windows go to the classifier as bytes
        assert got.tobytes() == want.transpose(0, 3, 1, 2).tobytes()
        want_centers = [[int(cy), int(cx)] for cy in cys for cx in cxs for _ in sizes]
        got_centers = np.concatenate(seen_centers)
        assert got_centers.dtype == np.int64
        assert got_centers.tolist() == want_centers
        sizes_seen = [len(x) for x in seen]
        assert all(n == parser.WINDOW_BATCH for n in sizes_seen[:-1])
        assert len(want) == 1 or sizes_seen[-1] > 1
        assert sizes_seen[-1] <= parser.WINDOW_BATCH + 1

    def test_window_chunks_rule(self):
        for n in range(0, 4 * parser.WINDOW_BATCH + 3):
            chunks = parser.window_chunks(n)
            assert chunks[0][0] == 0 and chunks[-1][1] == n
            assert all(b == c for (_, b), (c, _) in zip(chunks, chunks[1:]))
            sizes = [b - a for a, b in chunks]
            assert all(m == parser.WINDOW_BATCH for m in sizes[:-1])
            assert sizes[-1] > 1 or n <= 1
            assert sizes[-1] <= parser.WINDOW_BATCH + 1

    @pytest.mark.parametrize("window_batch", [16, 33, 128])
    def test_cell_probs_independent_of_window_batch(self, monkeypatch, window_batch):
        # the classifier's GEMMs sum each window alike at any batch of two or more
        cfg = model.BackboneConfig(input_size=32, stage_channels=(8, 16, 32), num_classes_per_task=(3,))
        params = {name: t.data for name, t in model.init_params(cfg, seed=5).items()}
        msc = model.MSCConfig(mu_g=1.0, mu_m=0.0)
        clf = model.TileClassifier(model.Checkpoint(cfg, msc, ["a", "b", "c"], [1, 2, 3], params))
        raster = np.random.Generator(np.random.PCG64(9)).integers(0, 256, size=(96, 112, 3), dtype=np.uint8)
        args = (raster, clf)
        want = parser.build_grid_map(*args).cell_probs
        monkeypatch.setattr(parser, "WINDOW_BATCH", window_batch)
        assert parser.build_grid_map(*args).cell_probs.tobytes() == want.tobytes()

    @pytest.mark.parametrize("side", [2**20, 2**40])
    def test_huge_window_rejected_before_gather(self, side):
        oc = Counting(np.ones((8, 8), dtype=np.int32), n_classes=2)
        cfg = parser.ParseConfig(window_sizes=(side,), stride=4)
        with pytest.raises(ConfigError, match=f"{side}x{side}-px windows"):
            parser.build_grid_map(np.zeros((8, 8, 3), dtype=np.uint8), oc, cfg)
        assert oc.calls == 0

    def test_window_memory_counted_against_the_machine(self, monkeypatch):
        # 32 x 32 cells x 2 scales = 2048 windows of 4x4x3 bytes, 96 KiB for
        # the all-cells gather; one chunk of 65 needs its windows, the
        # classifier's float32 batch and two int64 index tables of 65 x 4
        oc = Counting(np.ones((128, 128), dtype=np.int32), n_classes=2)
        args = (np.zeros((128, 128, 3), dtype=np.uint8), oc, parser.ParseConfig(window_sizes=(4, 8), stride=4))
        windows = 65 * (48 + 48 * 4 + 2 * 4 * 8)
        assert windows < 2048 * 48
        # then 2 float64 probabilities for each window, per chunk and
        # concatenated, and for each of the 1024 cells once fused
        need = windows + 8 * 2 * (2 * 2048 + 1024)
        monkeypatch.setattr(errors, "_physical_memory", lambda: need - 1)
        with pytest.raises(ConfigError, match="4x4-px windows, 65 to a classifier call, and 2-class probabilities of 2048 windows: "):
            parser.build_grid_map(*args)
        assert oc.calls == 0
        monkeypatch.setattr(errors, "_physical_memory", lambda: need)
        assert parser.build_grid_map(*args).cell_labels.shape == (32, 32)
        monkeypatch.setattr(errors, "_physical_memory", lambda: None)
        assert parser.build_grid_map(*args).cell_labels.shape == (32, 32)

    def test_probability_memory_counts_the_classes(self, monkeypatch):
        # 4 cells x 1 scale of 4x4 windows; 1000 classes outweigh the windows
        oc = Counting(np.ones((8, 8), dtype=np.int32), n_classes=1000)
        args = (np.zeros((8, 8, 3), dtype=np.uint8), oc, parser.ParseConfig(window_sizes=(4,), stride=4))
        windows = 4 * (48 + 48 * 4 + 2 * 4 * 8)
        need = windows + 8 * 1000 * (2 * 4 + 4)
        monkeypatch.setattr(errors, "_physical_memory", lambda: need - 1)
        with pytest.raises(ConfigError, match="^4x4-px windows, 4 to a classifier call, and 1000-class probabilities of 4 windows: "):
            parser.build_grid_map(*args)
        assert oc.calls == 0
        monkeypatch.setattr(errors, "_physical_memory", lambda: need)
        assert parser.build_grid_map(*args).cell_probs.shape == (2, 2, 1000)

    def test_window_memory_counts_the_raster_itemsize(self, monkeypatch):
        # 4 cells x 2 scales: one chunk of 8 float64 windows, their float64
        # [0, 1] copy and its float32 batch, then 2 probabilities for each
        # window twice and for each cell once
        cfg = parser.ParseConfig(window_sizes=(4, 8), stride=4)
        args = (np.zeros((8, 8, 3)), Counting(np.ones((8, 8)), n_classes=2), cfg)
        need = 8 * (48 * 8 + 48 * 8 + 48 * 4 + 2 * 4 * 8) + 8 * 2 * (2 * 8 + 4)
        monkeypatch.setattr(errors, "_physical_memory", lambda: need - 1)
        with pytest.raises(ConfigError, match="GiB needed"):
            parser.build_grid_map(*args)
        monkeypatch.setattr(errors, "_physical_memory", lambda: need)
        assert parser.build_grid_map(*args).cell_labels.shape == (2, 2)

    @pytest.mark.parametrize("window_batch", [2, 3, 64, 1000])
    @pytest.mark.parametrize(
        "shape,stride,dtype",
        [
            ((20, 27), 4, np.uint8),
            ((6, 9), 2, np.uint8),  # every window larger than the raster
            ((1, 1), 1, np.uint8),
            ((1, 13), 2, np.uint8),
            ((20, 27), 4, np.float64),
        ],
    )
    def test_chunk_gather_matches_all_cells_gather(self, monkeypatch, window_batch, shape, stride, dtype):
        from tests.test_model import SMALL

        params = {name: t.data for name, t in model.init_params(SMALL, seed=3).items()}
        clf = model.TileClassifier(model.Checkpoint(SMALL, model.MSCConfig(), ["a", "b", "c"], [1, 2, 5], params))
        rng = np.random.Generator(np.random.PCG64(11))
        raster = (rng.random(shape + (3,)) * 255).astype(dtype)
        cfg = parser.resolve(clf, parser.ParseConfig(stride=stride))
        monkeypatch.setattr(parser, "WINDOW_BATCH", window_batch)
        grid = parser.build_grid_map(raster, clf, cfg)
        probs, labels = grid_all_cells(raster, clf, cfg)
        assert grid.cell_probs.tobytes() == probs.tobytes()
        assert grid.cell_labels.tobytes() == labels.tobytes()

    def test_keep_probs(self):
        truth = np.ones((4, 4), dtype=np.int32)
        raster = np.zeros((4, 4, 3), dtype=np.uint8)
        cfg = parser.ParseConfig(window_sizes=(2,), stride=2)
        grid = parser.build_grid_map(raster, parser.OracleClassifier(truth, n_classes=2), cfg)
        assert grid.cell_probs.shape == (2, 2, 2)
        assert np.allclose(grid.cell_probs.sum(axis=2), 1.0)

    def test_classifier_failure_wrapped(self):
        class Broken:
            def probs_batch(self, windows, centers):
                raise ShapeError("boom")

        raster = np.zeros((4, 4, 3), dtype=np.uint8)
        with pytest.raises(ClassifierError):
            parser.build_grid_map(raster, Broken(), parser.ParseConfig(window_sizes=(2,), stride=2))


class TestIntegrateSemantics:
    def _grid(self, cell_labels, stride, h, w):
        cells = np.asarray(cell_labels, dtype=np.int32)
        return parser.SemanticGridMap(
            stride=stride,
            origin=stride // 2,
            height=h,
            width=w,
            cell_labels=cells,
            class_ids=sorted(set(cells.ravel().tolist())),
            cell_probs=np.zeros(cells.shape + (0,)),  # the vote reads only cell_labels
        )

    def test_hand_vote(self):
        # regions split 4x4 into left/right halves; grid stride 2 gives one
        # cell per 2x2 block
        grid = self._grid([[1, 2], [1, 3]], stride=2, h=4, w=4)
        regions = segmentation.RegionMap(
            np.array([[0, 0, 1, 1]] * 4, dtype=np.int32), 2
        )
        out = parser.integrate_semantics(grid, regions)
        # left region: 8 votes label 1; right: 4 votes label 2, 4 votes 3
        # -> tie, lowest id wins
        assert (out[:, :2] == 1).all()
        assert (out[:, 2:] == 2).all()

    def test_unanimous_region(self):
        grid = self._grid([[5, 5], [5, 5]], stride=2, h=4, w=4)
        regions = segmentation.RegionMap(np.zeros((4, 4), dtype=np.int32), 1)
        assert (parser.integrate_semantics(grid, regions) == 5).all()

    @pytest.mark.parametrize("far", [10**9, 2**31 - 1, -5])
    def test_votes_over_the_ids_present(self, far):
        # a vote matrix sized by the largest id would need 2**31 columns per
        # region here, and a negative id would index it from the end
        grid = self._grid([[1, 2], [far, far]], stride=2, h=4, w=4)
        regions = segmentation.RegionMap(np.array([[0, 0, 1, 1]] * 2 + [[2, 2, 2, 2]] * 2, dtype=np.int32), 3)
        out = parser.integrate_semantics(grid, regions)
        assert out.dtype == np.int32
        assert out.tolist() == [[1, 1, 2, 2]] * 2 + [[far] * 4] * 2

    def test_extent_mismatch(self):
        grid = self._grid([[1]], stride=2, h=2, w=2)
        regions = segmentation.RegionMap(np.zeros((3, 3), dtype=np.int32), 1)
        with pytest.raises(ExtentMismatchError):
            parser.integrate_semantics(grid, regions)

    def test_matches_vote_loops(self, rng):
        for _ in range(20):
            h = w = 12
            stride = int(rng.choice([2, 3, 4]))
            gh = gw = (h + stride - 1) // stride
            cells = rng.integers(1, 5, size=(gh, gw)).astype(np.int32)
            grid = self._grid(cells, stride, h, w)
            region_labels = rng.integers(0, 4, size=(h, w)).astype(np.int32)
            # make ids dense
            _, dense = np.unique(region_labels, return_inverse=True)
            region_labels = dense.reshape(h, w).astype(np.int32)
            rm = segmentation.RegionMap(region_labels, int(region_labels.max()) + 1)
            got = parser.integrate_semantics(grid, rm)
            for r in range(rm.region_count):
                mask = region_labels == r
                votes = {}
                for y, x in zip(*np.nonzero(mask)):
                    lab = cells[min(y // stride, gh - 1), min(x // stride, gw - 1)]
                    votes[lab] = votes.get(lab, 0) + 1
                best = min(sorted(votes), key=lambda l: (-votes[l], l))
                assert (got[mask] == best).all()


class TestParseImage:
    def test_oracle_with_truth_regions_is_perfect(self):
        raster, truth = make_scene(n_classes=4, size=96, seed=11)
        oc = parser.OracleClassifier(truth)
        grid = parser.build_grid_map(raster, oc, parser.ParseConfig(window_sizes=(8,), stride=4))
        out = parser.integrate_semantics(grid, truth_regions(truth))
        assert (out == truth).all()

    def test_oracle_with_graph_regions_high_accuracy(self):
        raster, truth = make_scene(n_classes=4, size=128, seed=7)
        oc = parser.OracleClassifier(truth)
        cfg = parser.ParseConfig(window_sizes=(8, 16, 32), stride=4)
        labels, grid, regions = parser.parse_image(raster, oc, cfg)
        assert labels.shape == truth.shape
        assert (labels == truth).mean() > 0.98

    def test_rerun_is_identical(self):
        raster, truth = make_scene(n_classes=3, size=64, seed=2)
        oc = parser.OracleClassifier(truth)
        cfg = parser.ParseConfig(window_sizes=(8, 16), stride=4, min_size=16)
        a = parser.parse_image(raster, oc, cfg)[0]
        b = parser.parse_image(raster, oc, cfg)[0]
        assert np.array_equal(a, b)

    def test_expected_labels_mismatch(self):
        raster, truth = make_scene(n_classes=3, size=32, seed=2)

        class Named(parser.OracleClassifier):
            labels = ["x", "y", "z"]

        cfg = parser.ParseConfig(expected_labels=("a", "b", "c"), window_sizes=(8,), stride=4)
        with pytest.raises(IncompatibleCheckpointError):
            parser.parse_image(raster, Named(truth), cfg)

    def test_stage_prefix_on_errors(self):
        raster = np.zeros((16, 16, 3), dtype=np.uint8)

        class Broken:
            def probs_batch(self, windows, centers):
                raise ShapeError("boom")

        with pytest.raises(ClassifierError, match="^grid: "):
            parser.parse_image(raster, Broken(), parser.ParseConfig(window_sizes=(4,), stride=4))

    @pytest.mark.parametrize(
        "bad", [{"k": float("nan")}, {"k": 0.0}, {"min_size": 0}, {"target_count": 0}, {"target_count": -3}]
    )
    def test_segment_settings_checked_before_grid(self, bad):
        raster, truth = make_scene(n_classes=3, size=32, seed=2)
        base = dict(window_sizes=(8,), stride=4, min_size=4)
        oc = Counting(truth)
        parser.parse_image(raster, oc, parser.ParseConfig(**base))
        assert oc.calls > 0
        # the settings are checked when the config is built, before any stage
        oc = Counting(truth)
        with pytest.raises(ConfigError, match="^(k|min_size|target_count) must be "):
            parser.parse_image(raster, oc, parser.ParseConfig(**{**base, **bad}))
        assert oc.calls == 0

    def test_segment_memory_checked_before_grid(self, monkeypatch):
        raster, truth = make_scene(n_classes=3, size=32, seed=2)
        oc = Counting(truth)
        # enough for one chunk of 8x8 windows, not for segmenting 32x32 pixels
        monkeypatch.setattr(errors, "_physical_memory", lambda: segmentation.SEGMENT_BYTES_PER_PX * 1024 - 1)
        with pytest.raises(ConfigError, match="^segmenting 1024 pixels"):
            parser.parse_image(raster, oc, parser.ParseConfig(window_sizes=(8,), stride=4))
        assert oc.calls == 0

    def test_target_count_merging(self):
        raster, truth = make_scene(n_classes=3, size=64, seed=5)
        oc = parser.OracleClassifier(truth)
        cfg = parser.ParseConfig(window_sizes=(8,), stride=4, min_size=8, target_count=5)
        _, _, regions = parser.parse_image(raster, oc, cfg)
        assert regions.region_count <= 5


class TestParseConfig:
    @pytest.mark.parametrize(
        "bad,message",
        [
            ({"window_sizes": ()}, "window sizes must be >= 1"),
            ({"window_sizes": (0, 8)}, "window sizes must be >= 1"),
            ({"window_sizes": (8, 2**63)}, "fit int64"),
            ({"window_sizes": (56, 56, 224)}, "strictly increasing"),
            ({"stride": 0}, "stride must be >= 1"),
            ({"stride": 2**63}, "fit int64"),
            ({"scale_weights": (np.nan, 1.0, 1.0)}, "scale weights"),
            ({"scale_weights": (1.0, np.inf, 1.0)}, "scale weights"),
            ({"scale_weights": (1e308, 1e308, 1e308)}, "scale weights"),
            ({"scale_weights": (0.0, 1.0, 1.0)}, "scale weights"),
            ({"window_sizes": (2, 4, 8), "scale_weights": (1.0, 1.0)}, "need 3 finite positive scale weights"),
            ({"k": float("nan")}, "k must be positive"),
            ({"min_size": 0}, "min_size must be >= 1"),
            ({"target_count": 0}, "target_count must be >= 1"),
        ],
    )
    def test_checked_when_built(self, bad, message):
        with pytest.raises(ConfigError, match=message):
            parser.ParseConfig(**bad)

    def test_default_pyramid(self):
        cfg = parser.resolve(SimpleNamespace(input_size=32), parser.ParseConfig())
        assert cfg.window_sizes == (32, 64, 128)
        assert cfg.stride == 16 and cfg.scale_weights == (0.25, 0.5, 1.0)

    def test_paper_windows_without_an_input_size(self):
        cfg = parser.resolve(parser.OracleClassifier(np.ones((2, 2))), parser.ParseConfig())
        assert cfg.window_sizes == (56, 112, 224)
        assert cfg.stride == 28

    def test_explicit_sizes_kept(self):
        cfg = parser.resolve(SimpleNamespace(input_size=16), parser.ParseConfig(window_sizes=[16, 48]))
        assert cfg.window_sizes == (16, 48)
        assert cfg.stride == 8 and cfg.scale_weights == (1.0, 1.0)

    def test_weight_count_checked_against_the_default_windows(self):
        with pytest.raises(ConfigError, match="need 3 finite positive scale weights"):
            parser.resolve(SimpleNamespace(input_size=16), parser.ParseConfig(scale_weights=(1.0, 2.0)))

    @pytest.mark.parametrize(
        "cfg",
        [
            parser.ParseConfig(),
            parser.ParseConfig(window_sizes=(1, 5)),
            parser.ParseConfig(stride=3, scale_weights=(1.0, 2.0, 3.0), target_count=4),
        ],
    )
    @pytest.mark.parametrize("classifier", [SimpleNamespace(input_size=1), SimpleNamespace(input_size=32), SimpleNamespace()])
    def test_resolve_is_idempotent(self, cfg, classifier):
        once = parser.resolve(classifier, cfg)
        assert None not in (once.window_sizes, once.stride, once.scale_weights)
        assert parser.resolve(classifier, once) == once
