import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sceneparse import errors, synthdata
from sceneparse.errors import ConfigError
from sceneparse.netpbm import read_ppm
from sceneparse.synthdata import TextureSpec


def nearest_seed_loops(points, h, w):
    """Per-pixel nearest seed with squared euclidean distance; ties take the
    lowest point index."""
    out = np.zeros((h, w), dtype=int)
    for y in range(h):
        for x in range(w):
            best, best_d = 0, None
            for i, (py, px, _) in enumerate(points):
                d = (y - py) ** 2 + (x - px) ** 2
                if best_d is None or d < best_d:
                    best, best_d = i, d
            out[y, x] = points[best][2]
    return out


def voronoi_broadcast_argmin(spec, rng):
    """The Voronoi layout as one [points, H, W] distance stack and argmin,
    which the running argmin replaced: same labels, less memory."""
    h, w, n = spec.height, spec.width, len(spec.classes)
    pts = spec.layout.points
    if pts is None:
        ys = rng.integers(0, h, size=spec.layout.n_points)
        xs = rng.integers(0, w, size=spec.layout.n_points)
        pts = tuple((int(y), int(x), i % n) for i, (y, x) in enumerate(zip(ys, xs)))
    py = np.asarray([p[0] for p in pts], dtype=np.float64)
    px = np.asarray([p[1] for p in pts], dtype=np.float64)
    pc = np.asarray([p[2] for p in pts], dtype=np.int32)
    yy = np.arange(h, dtype=np.float64)[:, None]
    xx = np.arange(w, dtype=np.float64)[None, :]
    d2 = (yy[None] - py[:, None, None]) ** 2 + (xx[None] - px[:, None, None]) ** 2
    return pc[np.argmin(d2, axis=0)]


def _layout_classes_running_min(spec, rng):
    """The layout that the tile-pruned one replaced, for Voronoi layouts: a
    running argmin over the points, one [H, W] float64 distance map at a
    time, where only a strictly nearer point takes a pixel.  Grid layouts
    index a rows x cols block table of the classes in turn."""
    h, w, n = spec.height, spec.width, len(spec.classes)
    if isinstance(spec.layout, synthdata.GridLayout):
        rows, cols = spec.layout.rows, spec.layout.cols
        block = (np.arange(rows * cols) % n).astype(np.int32).reshape(rows, cols)
        by = np.minimum(np.arange(h) * rows // h, rows - 1)
        bx = np.minimum(np.arange(w) * cols // w, cols - 1)
        return block[np.ix_(by, bx)]
    pts = spec.layout.points
    if pts is None:
        ys = rng.integers(0, h, size=spec.layout.n_points)
        xs = rng.integers(0, w, size=spec.layout.n_points)
        pts = tuple((int(y), int(x), i % n) for i, (y, x) in enumerate(zip(ys, xs)))
    yy = np.arange(h, dtype=np.float64)[:, None]
    xx = np.arange(w, dtype=np.float64)[None, :]
    best = np.full((h, w), np.inf)
    out = np.empty((h, w), dtype=np.int32)
    for y, x, c in pts:
        d2 = (yy - float(y)) ** 2 + (xx - float(x)) ** 2
        np.copyto(out, c, where=d2 < best)
        np.minimum(best, d2, out=best)
    return out


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


def render_tile_field(tex, tile_size, rng):
    """The tile renderer that painted through _pattern_field: a float64
    colour field plus the scaled noise, rounded and clipped."""
    phase = (int(rng.integers(0, 4 * max(1, tex.period))), int(rng.integers(0, 4 * max(1, tex.period))))
    clean = _pattern_field(tex, tile_size, tile_size, phase)
    noisy = clean + rng.standard_normal((tile_size, tile_size, 3)) * tex.noise_sigma
    return np.clip(np.rint(noisy), 0, 255).astype(np.uint8)


def generate_scene_fields(spec, seed):
    """The renderer that the banded one replaced: one float64 [H, W, 3]
    colour field per class scattered through boolean masks, a float64 sigma
    field, and one (H, W, 3) normal draw."""
    h, w = spec.height, spec.width
    rng = np.random.Generator(np.random.PCG64(seed))
    cls = _layout_classes_running_min(spec, rng)
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


@st.composite
def scene_specs(draw):
    """Scenes of 1x1 to 300x300 px with every pattern and orientation, noise
    0 or 12, and random, explicit (duplicates and tile-border points
    included), lattice or grid layouts."""
    side = st.integers(1, 8) | st.integers(1, 300)
    h, w = draw(side), draw(side)
    n = draw(st.integers(1, 4))
    rgb = st.tuples(*[st.integers(0, 255)] * 3)
    classes = tuple(
        synthdata.TextureSpec(
            base_rgb=draw(rgb),
            noise_sigma=draw(st.sampled_from([0.0, 12.0])),
            pattern=draw(st.sampled_from(synthdata.PATTERNS)),
            period=draw(st.integers(1, 9)),
            alt_rgb=draw(st.none() | rgb),
            orientation=draw(st.sampled_from("hv")),
        )
        for _ in range(n)
    )
    kind = draw(st.sampled_from(["random", "explicit", "lattice", "grid"]))
    if kind == "random":
        layout = synthdata.VoronoiLayout(n_points=draw(st.integers(n, 40)))
    elif kind == "grid":
        rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        if rows * cols < n:
            rows, cols = n, 1
        layout = synthdata.GridLayout(rows, cols)
    else:
        if kind == "lattice":
            sy, sx = draw(st.integers(1, max(1, h // 2))), draw(st.integers(1, max(1, w // 2)))
            yx = [(y, x) for y in range(sy // 2, h, sy) for x in range(sx // 2, w, sx)][:60]
        else:
            # tile borders at the strategies' tile sizes, and repeats
            ys = st.sampled_from([0, 2, 3, 7, 8, 63, 64, 127, 128, h - 1]).map(lambda y: min(y, h - 1)) | st.integers(0, h - 1)
            xs = st.sampled_from([0, 2, 3, 7, 8, 63, 64, 127, 128, w - 1]).map(lambda x: min(x, w - 1)) | st.integers(0, w - 1)
            yx = draw(st.lists(st.tuples(ys, xs), min_size=1, max_size=30))
            yx += draw(st.lists(st.sampled_from(yx), max_size=4))
        labels = [i % n for i in range(len(yx))]
        if len(labels) < n:
            yx += [yx[0]] * (n - len(labels))
            labels += list(range(len(labels), n))
        labels = draw(st.permutations(labels))
        layout = synthdata.VoronoiLayout(points=tuple((y, x, c) for (y, x), c in zip(yx, labels)))
    return synthdata.SceneSpec(classes=classes, layout=layout, height=h, width=w)


@st.composite
def textures(draw, noise=(0.0, 12.0)):
    """Every pattern and orientation, periods 1 to 8 (flat also 0), alt
    colour set or None, and the given noise levels."""
    rgb = st.tuples(*[st.integers(0, 255)] * 3)
    pattern = draw(st.sampled_from(synthdata.PATTERNS))
    return TextureSpec(
        base_rgb=draw(rgb),
        noise_sigma=draw(st.sampled_from(noise)),
        pattern=pattern,
        period=draw(st.integers(0 if pattern == "flat" else 1, 8)),
        alt_rgb=draw(st.none() | rgb),
        orientation=draw(st.sampled_from("hv")),
    )


def largest_remainder_loops(n, total, exponent):
    w = np.array([(r + 1) ** -exponent for r in range(n)])
    ideal = total * w / w.sum()
    counts = np.maximum(np.floor(ideal).astype(int), 1)
    diff = total - counts.sum()
    rem = ideal - np.floor(ideal)
    if diff > 0:
        for i in sorted(range(n), key=lambda i: (-rem[i], i))[:diff]:
            counts[i] += 1
    while diff < 0:
        i = int(np.argmax(counts))
        if counts[i] <= 1:
            break
        counts[i] -= 1
        diff += 1
    return counts


class TestTextures:
    def test_default_classes_distinct(self):
        classes = synthdata.default_texture_classes(10)
        rgbs = {c.base_rgb for c in classes}
        assert len(rgbs) == 10

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            synthdata.TextureSpec((0, 0, 0), pattern="plaid")
        with pytest.raises(ConfigError):
            synthdata.TextureSpec((0, 0, 300))
        with pytest.raises(ConfigError):
            synthdata.TextureSpec((0, 0, 0), pattern="stripes", period=0)

    @pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf")])
    def test_noise_sigma_must_be_finite(self, sigma):
        with pytest.raises(ConfigError, match="noise_sigma must be finite and >= 0"):
            synthdata.TextureSpec((0, 0, 0), noise_sigma=sigma)

    def test_flat_texture_is_constant(self):
        tex = synthdata.TextureSpec((10, 20, 30), noise_sigma=0.0)
        rng = np.random.Generator(np.random.PCG64(0))
        tile = synthdata.render_tile(tex, 8, rng)
        assert (tile == np.array([10, 20, 30], dtype=np.uint8)).all()

    def test_stripes_alternate_with_period(self):
        tex = synthdata.TextureSpec(
            (200, 0, 0), pattern="stripes", period=2, alt_rgb=(0, 0, 200), orientation="h"
        )
        spec = synthdata.SceneSpec(
            classes=[tex],
            layout=synthdata.GridLayout(rows=1, cols=1),
            height=8,
            width=8,
        )
        rgb, _ = synthdata.generate_scene_raster(spec, seed=0)
        rows = rgb[:, 0, 0]
        # horizontal stripes: two rows of one color, two of the other
        assert rows[0] == rows[1] and rows[2] == rows[3]
        assert rows[0] != rows[2]


class TestSceneRaster:
    def test_grid_layout_half_split(self):
        classes = synthdata.default_texture_classes(2, noise_sigma=0.0)
        spec = synthdata.SceneSpec(
            classes=classes,
            layout=synthdata.GridLayout(rows=1, cols=2),
            height=4,
            width=8,
        )
        _, truth = synthdata.generate_scene_raster(spec, seed=0)
        assert (truth[:, :4] == 1).all()
        assert (truth[:, 4:] == 2).all()

    def test_voronoi_matches_nearest_seed_oracle(self):
        points = [(3, 4, 0), (10, 12, 1), (10, 2, 2), (2, 12, 1)]
        classes = synthdata.default_texture_classes(3, noise_sigma=0.0)
        spec = synthdata.SceneSpec(
            classes=classes,
            layout=synthdata.VoronoiLayout(points=points),
            height=14,
            width=16,
        )
        _, truth = synthdata.generate_scene_raster(spec, seed=0)
        want = nearest_seed_loops(points, 14, 16) + 1
        assert np.array_equal(truth, want)

    @pytest.mark.parametrize(
        "points,h,w",
        [
            # a lattice: every bisector between neighbours runs through pixels
            (((0, 0, 0), (0, 4, 1), (4, 0, 2), (4, 4, 1), (2, 2, 0)), 7, 9),
            (((3, 3, 2), (3, 3, 0), (3, 3, 1)), 6, 6),  # one spot, three classes
            (((0, 0, 1), (9, 9, 0), (0, 9, 2), (9, 0, 1)), 10, 10),
            (None, 61, 83),  # 24 seeded random points
        ],
    )
    def test_voronoi_matches_broadcast_argmin(self, points, h, w):
        classes = synthdata.default_texture_classes(3, noise_sigma=0.0)
        layout = synthdata.VoronoiLayout(points=points) if points else synthdata.VoronoiLayout(n_points=24)
        spec = synthdata.SceneSpec(classes=classes, layout=layout, height=h, width=w)
        got = synthdata._layout_classes(spec, np.random.Generator(np.random.PCG64(3)))
        want = voronoi_broadcast_argmin(spec, np.random.Generator(np.random.PCG64(3)))
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @settings(max_examples=120)
    @given(
        spec=scene_specs(),
        seed=st.integers(0, 2**32 - 1),
        band=st.sampled_from([1, 5, 300, 4096, synthdata.BAND_PX]),
        tile=st.sampled_from([3, 8, synthdata.TILE]),
    )
    def test_matches_field_renderer(self, spec, seed, band, tile):
        # small bands and tiles put their edges inside small scenes
        with mock.patch.object(synthdata, "BAND_PX", band), mock.patch.object(synthdata, "TILE", tile):
            rgb, truth = synthdata.generate_scene_raster(spec, seed)
        want_rgb, want_truth = generate_scene_fields(spec, seed)
        assert rgb.dtype == np.uint8 and truth.dtype == np.int32
        assert rgb.tobytes() == want_rgb.tobytes()
        assert truth.tobytes() == want_truth.tobytes()

    def test_peak_memory_within_bytes_per_px(self):
        spec = synthdata.SceneSpec(
            classes=synthdata.default_texture_classes(8),
            layout=synthdata.VoronoiLayout(n_points=64),
            height=1024,
            width=1024,
        )
        tracemalloc.start()
        try:
            synthdata.generate_scene_raster(spec, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= synthdata.SCENE_BYTES_PER_PX * 1024 * 1024

    def test_auto_voronoi_covers_all_classes(self):
        classes = synthdata.default_texture_classes(4)
        spec = synthdata.SceneSpec(
            classes=classes,
            layout=synthdata.VoronoiLayout(n_points=7),
            height=64,
            width=64,
        )
        for seed in range(5):
            _, truth = synthdata.generate_scene_raster(spec, seed)
            assert set(np.unique(truth)) == {1, 2, 3, 4}

    def test_deterministic(self):
        classes = synthdata.default_texture_classes(3)
        spec = synthdata.SceneSpec(
            classes=classes,
            layout=synthdata.VoronoiLayout(n_points=5),
            height=32,
            width=32,
        )
        a = synthdata.generate_scene_raster(spec, seed=9)
        b = synthdata.generate_scene_raster(spec, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = synthdata.generate_scene_raster(spec, seed=10)
        assert not np.array_equal(a[0], c[0])

    def test_labels_are_one_based(self):
        classes = synthdata.default_texture_classes(3)
        spec = synthdata.SceneSpec(
            classes=classes,
            layout=synthdata.GridLayout(rows=1, cols=3),
            height=6,
            width=9,
        )
        _, truth = synthdata.generate_scene_raster(spec, seed=0)
        assert truth.min() == 1 and truth.max() == 3

    def test_memory_checked_before_rendering(self, monkeypatch):
        spec = synthdata.SceneSpec(
            classes=synthdata.default_texture_classes(2), layout=synthdata.GridLayout(1, 2), height=6, width=10
        )
        need = synthdata.SCENE_BYTES_PER_PX * 60
        monkeypatch.setattr(errors, "_physical_memory", lambda: need - 1)
        with pytest.raises(ConfigError, match="a 6x10 scene: "):
            synthdata.generate_scene_raster(spec, seed=0)
        monkeypatch.setattr(errors, "_physical_memory", lambda: need)
        assert synthdata.generate_scene_raster(spec, seed=0)[0].shape == (6, 10, 3)


class TestTile:
    @settings(max_examples=150)
    @given(tex=textures(), size=st.integers(1, 8) | st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_matches_field_renderer(self, tex, size, seed):
        got = synthdata.render_tile(tex, size, np.random.Generator(np.random.PCG64(seed)))
        want = render_tile_field(tex, size, np.random.Generator(np.random.PCG64(seed)))
        assert got.dtype == np.uint8 and got.shape == (size, size, 3)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=60)
    @given(tex=textures(noise=(0.0,)), size=st.integers(1, 8) | st.integers(1, 100), seed=st.integers(0, 2**32 - 1))
    def test_noise_free_tile_is_a_crop_of_its_scene(self, tex, size, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        copy = np.random.Generator(np.random.PCG64(seed))
        py, px = (int(copy.integers(0, 4 * max(1, tex.period))) for _ in range(2))  # the tile's phase
        spec = synthdata.SceneSpec(classes=(tex,), layout=synthdata.GridLayout(1, 1), height=py + size, width=px + size)
        scene, _ = synthdata.generate_scene_raster(spec, seed=0)
        assert synthdata.render_tile(tex, size, rng).tobytes() == scene[py:, px:].tobytes()

    @pytest.mark.parametrize("pattern", synthdata.PATTERNS)
    def test_peak_memory_within_bytes_per_px(self, pattern):
        tex = TextureSpec((200, 45, 45), noise_sigma=12.0, pattern=pattern, period=4, alt_rgb=(140, 0, 0))
        rng = np.random.Generator(np.random.PCG64(1))
        tracemalloc.start()
        try:
            synthdata.render_tile(tex, 512, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= synthdata.TILE_BYTES_PER_PX * 512 * 512


class TestTileDataset:
    def test_counts_and_files(self, tmp_path):
        classes = synthdata.default_texture_classes(3)
        spec = synthdata.SceneSpec(
            classes=classes,
            layout=synthdata.GridLayout(rows=1, cols=3),
            height=16,
            width=48,
        )
        man = synthdata.generate_tile_dataset(spec, [4, 2, 3], 16, seed=0, out_dir=tmp_path)
        assert len(man) == 9
        labels = [s.fine_label for s in man.samples]
        assert labels.count(0) == 4 and labels.count(1) == 2 and labels.count(2) == 3
        for s in man.samples:
            img = read_ppm(tmp_path / s.raster_path)
            assert img.shape == (16, 16, 3)

    def test_bit_identical_across_runs(self, tmp_path):
        classes = synthdata.default_texture_classes(2)
        spec = synthdata.SceneSpec(
            classes=classes,
            layout=synthdata.GridLayout(rows=1, cols=2),
            height=8,
            width=16,
        )
        d1, d2 = tmp_path / "a", tmp_path / "b"
        m1 = synthdata.generate_tile_dataset(spec, 3, 8, seed=5, out_dir=d1)
        m2 = synthdata.generate_tile_dataset(spec, 3, 8, seed=5, out_dir=d2)
        for s1, s2 in zip(m1.samples, m2.samples):
            assert (d1 / s1.raster_path).read_bytes() == (d2 / s2.raster_path).read_bytes()

    def test_negative_seed_rejected(self, tmp_path):
        spec = synthdata.SceneSpec(
            classes=synthdata.default_texture_classes(2),
            layout=synthdata.GridLayout(rows=1, cols=2),
            height=8,
            width=16,
        )
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            synthdata.generate_tile_dataset(spec, 1, 8, seed=-1, out_dir=tmp_path / "d")
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            synthdata.generate_scene_raster(spec, seed=-1)
        assert not (tmp_path / "d").exists()


class TestLongTail:
    def test_worked_example(self):
        assert list(synthdata.long_tail_counts(5, 100, 1.0)) == [44, 22, 14, 11, 9]

    def test_matches_largest_remainder_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 12))
            total = int(rng.integers(n, 500))
            exp = float(rng.random() * 2.5 + 0.1)
            got = synthdata.long_tail_counts(n, total, exp)
            want = largest_remainder_loops(n, total, exp)
            assert list(got) == list(want), (n, total, exp)

    def test_total_preserved_and_positive(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 10))
            total = int(rng.integers(n, 300))
            got = synthdata.long_tail_counts(n, total, 1.5)
            assert sum(got) == total
            assert min(got) >= 1

    @pytest.mark.parametrize("exponent", [-0.5, float("nan"), float("inf")])
    def test_exponent_must_be_finite(self, exponent):
        with pytest.raises(ConfigError, match="exponent must be finite and >= 0"):
            synthdata.long_tail_counts(4, 8, exponent)

    def test_largest_total_exact(self):
        counts = synthdata.long_tail_counts(3, 2**53 - 1, 1.0)
        assert sum(counts) == 2**53 - 1 and counts == sorted(counts, reverse=True)
        with pytest.raises(ConfigError, match=r"total 9007199254740992 must be below 2\*\*53"):
            synthdata.long_tail_counts(3, 2**53, 1.0)

    def test_monotone_nonincreasing(self):
        counts = synthdata.long_tail_counts(8, 1000, 1.2)
        assert all(a >= b for a, b in zip(counts, counts[1:]))
