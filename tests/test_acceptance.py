"""Desk-scale acceptance checks for the whole pipeline.

One test per acceptance property, each ending in a single printed
``[acceptance] <name>: PASS (<measured values>)`` line, so a ``-s`` run
reads as a checklist.  Every numeric claim is checked against an
independent in-file oracle or a hand-computed value; the training-based
checks run real SGD at desk scale and assert the stated thresholds and
runtime budgets.
"""

import json
import time

import numpy as np
import pytest
from scipy import ndimage

from sceneparse import cli, fusion, metrics, model, parser, segmentation, synthdata
from sceneparse import tensor as T
from sceneparse.netpbm import read_pgm, read_ppm, write_pgm, write_ppm
from tests.test_metrics import per_class_recall

FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def note(name: str, detail: str) -> None:
    print(f"[acceptance] {name}: PASS ({detail})")


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """Train the 8-class desk model twice (once for the bit-identity
    check) and measure held-out accuracy.  Shared with the end-to-end
    parse test so the suite trains it only once."""
    d = tmp_path_factory.mktemp("desk")
    tex = synthdata.default_texture_classes(8)
    spec = synthdata.SceneSpec(
        classes=tex, layout=synthdata.VoronoiLayout(n_points=8), height=64, width=64
    )
    train_man = synthdata.generate_tile_dataset(spec, 200, 32, seed=11, out_dir=str(d / "train"))
    held_man = synthdata.generate_tile_dataset(spec, 50, 32, seed=12, out_dir=str(d / "held"))

    cfg = model.BackboneConfig(input_size=32, stage_channels=(8, 16, 32), num_classes_per_task=(8,))
    hyper = model.TrainConfig(
        epochs=20, batch_size=32, lr=0.01, schedule=((2, 10.0), (12, 10.0)), seed=0
    )
    t0 = time.time()
    ck1, trace = model.train(cfg, [train_man], hyper)
    ck2, _ = model.train(cfg, [train_man], hyper)
    elapsed = time.time() - t0

    model.save_checkpoint(ck1, str(d / "a.ckpt"))
    model.save_checkpoint(ck2, str(d / "b.ckpt"))
    clf = model.TileClassifier(ck1)
    x, y = model.load_tiles(held_man, 32)
    oa = float((clf.probs_batch(x).argmax(axis=1) == y).mean())
    return {
        "classifier": clf,
        "textures": tex,
        "held_oa": oa,
        "trace": trace,
        "elapsed": elapsed,
        "identical": (d / "a.ckpt").read_bytes() == (d / "b.ckpt").read_bytes(),
    }


# ------------------------------------------------------- gradient integrity


@pytest.mark.slow
def test_gradient_integrity():
    cfg = model.BackboneConfig(input_size=32, stage_channels=(8, 16, 32), num_classes_per_task=(3, 4))
    params = model.init_params(cfg, seed=0)
    plist = list(params.values())
    rng = np.random.Generator(np.random.PCG64(5))
    xg = rng.random((2, 3, 32, 32))
    xm = rng.random((2, 3, 32, 32))
    yg = rng.integers(0, 3, 2)
    ym = rng.integers(0, 4, 2)
    msc = model.MSCConfig()

    def loss_fn():
        lg = model.msc_forward(T.tensor(xg), cfg, params)[0]
        lm = model.msc_forward(T.tensor(xm), cfg, params)[1]
        return model.msc_loss([lg, lm], [yg, ym], msc)

    t0 = time.time()
    err = T.check_gradients(loss_fn, plist, eps=1e-5, max_samples=1500, seed=0)
    elapsed = time.time() - t0
    assert err <= 1e-4, f"max relative gradient error {err:.3e}"
    assert elapsed < 120.0, f"gradient check took {elapsed:.0f}s"
    note("gradient integrity", f"max rel err {err:.2e} over 1500 coords, {elapsed:.0f}s")


# --------------------------------------------------------- attention algebra


def _attention_oracle(sf: np.ndarray, df: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    factor = sf.shape[2] // df.shape[2]
    up = df.repeat(factor, axis=2).repeat(factor, axis=3)
    pre = np.einsum("nchw,oc->nohw", up, w[:, :, 0, 0]) + b[None, :, None, None]
    return sf * (1.0 + 1.0 / (1.0 + np.exp(-pre)))


def test_attention_algebra():
    cfg = model.BackboneConfig(input_size=32, stage_channels=(8, 16, 32), num_classes_per_task=(3,))
    rng = np.random.Generator(np.random.PCG64(17))
    x = T.tensor(rng.random((2, 3, 32, 32)))

    params = model.init_params(cfg, seed=1)
    for name in list(params):
        if name.startswith("attn"):
            params[name] = T.tensor(np.zeros_like(params[name].data))
    feats = model.backbone_forward(x, cfg, params)
    streams = model.han_forward(feats, params)
    assert np.array_equal(streams[0].data, 1.5 * feats[0].data)
    assert np.array_equal(streams[1].data, 1.5 * feats[1].data)
    assert streams[2] is feats[2]

    params = model.init_params(cfg, seed=2)
    feats = model.backbone_forward(x, cfg, params)
    streams = model.han_forward(feats, params)
    o3 = feats[2].data
    o2 = _attention_oracle(feats[1].data, o3, params["attn2.w"].data, params["attn2.b"].data)
    o1 = _attention_oracle(feats[0].data, o2, params["attn1.w"].data, params["attn1.b"].data)
    d2 = np.abs(streams[1].data - o2).max()
    d1 = np.abs(streams[0].data - o1).max()
    assert d2 <= 1e-12 and d1 <= 1e-12, f"oracle deltas {d1:.2e}, {d2:.2e}"
    note("attention algebra", f"zero-weight case exact, oracle deltas {max(d1, d2):.2e}")


# ---------------------------------------------------------- fusion exactness


def test_fusion_exactness():
    w = (0.25, 0.5, 1.0)
    fused = fusion.fuse(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), w)
    assert abs(fused[0] - 0.42857) <= 1e-5
    assert abs(fused[1] - 0.57142) <= 1e-5 + 1e-5  # 0.57142 is truncated, not rounded
    assert abs(fused[1] - 1.0 / 1.75) <= 1e-5
    assert int(np.argmax(fused)) == 1

    rng = np.random.Generator(np.random.PCG64(23))
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(2, 7))
        rows = rng.random((3, n)) + 1e-3
        rows /= rows.sum(axis=1, keepdims=True)
        out = fusion.fuse(rows, w)
        worst = max(worst, abs(float(out.sum()) - 1.0))
        for c in (0.01, 3.7, 100.0):
            scaled = fusion.fuse(rows, tuple(c * ws for ws in w))
            assert int(out.argmax()) == int(scaled.argmax())
    assert worst <= 1e-9, f"worst simplex deviation {worst:.2e}"
    note("fusion exactness", f"hand case ±1e-5, worst sum dev {worst:.1e} over 1e4 cases")


# ------------------------------------------------- metrics oracle equivalence


def _cm_oracle(counts: np.ndarray) -> dict:
    n = counts.shape[0]
    total = counts.sum()
    oa = np.trace(counts) / total
    col = counts.sum(axis=0)
    row = counts.sum(axis=1)
    accs = [counts[i, i] / col[i] for i in range(n) if col[i] > 0]
    pe = float((row * col).sum()) / (total * total)
    if pe == 1.0:
        k = 1.0 if oa == 1.0 else 0.0
    else:
        k = (oa - pe) / (1.0 - pe)
    ious = []
    for i in range(n):
        union = row[i] + col[i] - counts[i, i]
        if union > 0:
            ious.append(counts[i, i] / union)
    return {"OA": oa, "AA": float(np.mean(accs)), "Kappa": k, "mIoU": float(np.mean(ious))}


def _ml_oracle(scores: np.ndarray, hot: np.ndarray, tau: float) -> dict:
    n_img, n_lab = scores.shape
    pred = scores > tau
    tp = [int((pred[:, j] & hot[:, j]).sum()) for j in range(n_lab)]
    pp = [int(pred[:, j].sum()) for j in range(n_lab)]
    gp = [int(hot[:, j].sum()) for j in range(n_lab)]
    with_truth = [j for j in range(n_lab) if gp[j] > 0]
    cp = float(np.mean([tp[j] / pp[j] if pp[j] else 0.0 for j in with_truth]))
    cr = float(np.mean([tp[j] / gp[j] for j in with_truth]))
    cf1 = 0.0 if cp + cr == 0 else 2 * cp * cr / (cp + cr)
    tpa, ppa, gpa = sum(tp), sum(pp), sum(gp)
    op = 0.0 if ppa == 0 else tpa / ppa
    orr = tpa / gpa
    of1 = 0.0 if op + orr == 0 else 2 * op * orr / (op + orr)
    aps = []
    for j in with_truth:
        order = sorted(range(n_img), key=lambda i: (-scores[i, j], i))
        hits, precs = 0, []
        for rank, i in enumerate(order, start=1):
            if hot[i, j]:
                hits += 1
                precs.append(hits / rank)
        aps.append(float(np.mean(precs)))
    return {"CP": cp, "CR": cr, "CF1": cf1, "OP": op, "OR": orr, "OF1": of1, "mAP": float(np.mean(aps))}


def test_metrics_oracle_equivalence():
    rng = np.random.Generator(np.random.PCG64(31))
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 8))
        size = int(rng.integers(30, 200))
        pred = rng.integers(0, n, size)
        truth = rng.integers(0, n, size)
        cm = metrics.accumulate_cm(pred, truth, n)
        want = _cm_oracle(cm.counts)
        got = {
            "OA": metrics.overall_accuracy(cm),
            "AA": metrics.average_accuracy(cm),
            "Kappa": metrics.kappa(cm),
            "mIoU": metrics.miou(cm),
        }
        for key in want:
            worst = max(worst, abs(got[key] - want[key]))
    assert worst <= 1e-10, f"worst CM metric deviation {worst:.2e}"

    worst_ml = 0.0
    for _ in range(1000):
        n_img = int(rng.integers(3, 20))
        n_lab = int(rng.integers(2, 7))
        scores = np.round(rng.random((n_img, n_lab)), 2)
        hot = rng.random((n_img, n_lab)) < 0.4
        hot[int(rng.integers(0, n_img))] = True  # at least one positive
        want = _ml_oracle(scores, hot, 0.5)
        got = dict(metrics.multilabel_metrics(scores, hot, tau=0.5))
        got["mAP"] = metrics.mean_average_precision(scores, hot)
        for key in want:
            worst_ml = max(worst_ml, abs(got[key] - want[key]))
    assert worst_ml <= 1e-10, f"worst multilabel deviation {worst_ml:.2e}"

    cm = metrics.accumulate_cm([0, 0, 0, 1, 1, 1], [0, 0, 1, 0, 1, 1], 2)
    assert abs(metrics.kappa(cm) - 0.3333) <= 1e-4
    ap = metrics.average_precision([0.9, 0.6, 0.3], [True, False, True])
    assert abs(ap - 0.8333) <= 1e-4
    note(
        "metrics oracle equivalence",
        f"worst dev {max(worst, worst_ml):.1e} over 2000 instances; kappa/AP hand checks pass",
    )


# -------------------------------------------------------- recall monotonicity


def test_recall_monotonicity():
    rng = np.random.Generator(np.random.PCG64(41))
    for _ in range(100):
        n_img = int(rng.integers(4, 17))
        n_lab = int(rng.integers(3, 7))
        scores = rng.random((n_img, n_lab))
        hot = rng.random((n_img, n_lab)) < 0.5
        hot[0] = True
        low = metrics.multilabel_metrics(scores, hot, tau=0.5)
        high = metrics.multilabel_metrics(scores, hot, tau=0.75)
        assert high["OR"] <= low["OR"]
        pcr_low = per_class_recall(scores, hot, tau=0.5)
        pcr_high = per_class_recall(scores, hot, tau=0.75)
        assert pcr_high.shape == pcr_low.shape
        assert np.all(pcr_high <= pcr_low)
    note("recall monotonicity", "OR and all per-class recalls at tau 0.75 <= tau 0.5, 100 sets")


# ------------------------------------------------------------ oracle pipeline


def _regions_of_truth(truth: np.ndarray) -> segmentation.RegionMap:
    """Independent connected-components pass over the truth raster."""
    out = np.zeros(truth.shape, dtype=np.int32)
    n = 0
    for v in np.unique(truth):
        lab, c = ndimage.label(truth == v, structure=FOUR_CONN)
        mask = lab > 0
        out[mask] = lab[mask] + n - 1
        n += int(c)
    return segmentation.RegionMap(out, n)


def test_oracle_pipeline():
    tex = synthdata.default_texture_classes(4)
    spec = synthdata.SceneSpec(
        classes=tex, layout=synthdata.VoronoiLayout(n_points=12), height=512, width=512
    )
    rgb, truth = synthdata.generate_scene_raster(spec, seed=5)
    oracle = parser.OracleClassifier(truth)
    stride = 8

    t0 = time.time()
    grid = parser.build_grid_map(rgb, oracle, parser.ParseConfig(window_sizes=(8,), stride=stride))
    out_truth = parser.integrate_semantics(grid, _regions_of_truth(truth))
    acc_truth = float((out_truth == truth).mean())

    seg = segmentation.graph_segment(rgb, k=300.0, min_size=64)
    out_seg = parser.integrate_semantics(grid, seg)
    edges = (np.diff(truth, axis=0, prepend=truth[:1]) != 0) | (
        np.diff(truth, axis=1, prepend=truth[:, :1]) != 0
    )
    band = ndimage.binary_dilation(edges, structure=np.ones((3, 3), bool), iterations=stride)
    acc_seg = float((out_seg == truth)[~band].mean())
    elapsed = time.time() - t0

    assert acc_truth == 1.0, f"truth-region accuracy {acc_truth:.6f}"
    assert acc_seg >= 0.99, f"graph-region accuracy outside band {acc_seg:.6f}"
    assert elapsed < 60.0, f"oracle pipeline took {elapsed:.0f}s"
    note(
        "oracle pipeline",
        f"truth regions {acc_truth:.4f}, graph regions {acc_seg:.4f} outside band, {elapsed:.0f}s",
    )


# --------------------------------------------------------- desk-scale learning


@pytest.mark.slow
def test_desk_scale_learning(desk):
    assert desk["held_oa"] >= 0.95, f"held-out OA {desk['held_oa']:.4f}"
    assert desk["identical"], "repeated training did not give a bit-identical checkpoint"
    assert desk["elapsed"] < 300.0, f"two training runs took {desk['elapsed']:.0f}s"
    note(
        "desk-scale learning",
        f"held-out OA {desk['held_oa']:.4f}, repeat bit-identical, "
        f"loss {desk['trace'][0]:.2f}->{desk['trace'][-1]:.3f}, {desk['elapsed']:.0f}s",
    )


# --------------------------------------------------- task weighting direction


@pytest.mark.slow
def test_task_weighting_direction(tmp_path):
    tex = synthdata.default_texture_classes(8, noise_sigma=25.0)
    mspec = synthdata.SceneSpec(
        classes=tex[:5], layout=synthdata.VoronoiLayout(n_points=4), height=32, width=32
    )
    aspec = synthdata.SceneSpec(
        classes=tex, layout=synthdata.VoronoiLayout(n_points=4), height=32, width=32
    )
    main = synthdata.generate_tile_dataset(mspec, 80, 32, seed=21, out_dir=str(tmp_path / "main"))
    aux = synthdata.generate_tile_dataset(aspec, 40, 32, seed=22, out_dir=str(tmp_path / "aux"))
    held = synthdata.generate_tile_dataset(mspec, 30, 32, seed=23, out_dir=str(tmp_path / "held"))

    cfg = model.BackboneConfig(input_size=32, stage_channels=(8, 16, 32), num_classes_per_task=(5, 8))
    x, y = model.load_tiles(held, 32)

    medians = {}
    for mu_g in (0.5, 0.1):
        oas = []
        for seed in range(5):
            hyper = model.TrainConfig(epochs=8, batch_size=32, lr=0.002, schedule=(), seed=seed)
            ckpt, _ = model.train(
                cfg, [main, aux], hyper, msc=model.MSCConfig(mu_g=mu_g, mu_m=1.0 - mu_g)
            )
            clf = model.TileClassifier(ckpt)
            oas.append(float((clf.probs_batch(x).argmax(axis=1) == y).mean()))
        medians[mu_g] = float(np.median(oas))

    assert medians[0.5] > medians[0.1], f"medians {medians}"
    note(
        "task weighting direction",
        f"median main-task OA {medians[0.5]:.4f} at mu_g=0.5 vs {medians[0.1]:.4f} at mu_g=0.1",
    )


# ------------------------------------------------------- end-to-end trained


@pytest.mark.slow
def test_end_to_end_trained_parse(desk):
    spec = synthdata.SceneSpec(
        classes=desk["textures"], layout=synthdata.VoronoiLayout(n_points=14), height=512, width=512
    )
    rgb, truth = synthdata.generate_scene_raster(spec, seed=77)

    t0 = time.time()
    labels, grid, regions = parser.parse_image(rgb, desk["classifier"], parser.ParseConfig())
    elapsed = time.time() - t0

    cm = metrics.accumulate_cm(labels.ravel(), truth.ravel(), 9, void_id=0)
    report = {
        "OA": metrics.overall_accuracy(cm),
        "AA": metrics.average_accuracy(cm),
        "Kappa": metrics.kappa(cm),
        "mIoU": metrics.miou(cm),
    }
    assert report["Kappa"] >= 0.8, f"kappa {report['Kappa']:.4f}"
    assert report["mIoU"] >= 0.7, f"mIoU {report['mIoU']:.4f}"
    assert elapsed < 180.0, f"parse took {elapsed:.0f}s"
    note(
        "end-to-end trained parse",
        f"kappa {report['Kappa']:.4f}, mIoU {report['mIoU']:.4f}, OA {report['OA']:.4f}, "
        f"{regions.region_count} regions, {elapsed:.0f}s",
    )


# ---------------------------------------------------- segmentation properties


def _random_textured(rng, h=20, w=24):
    img = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
    for _ in range(int(rng.integers(1, 4))):
        dy, dx = int(rng.integers(4, h // 2)), int(rng.integers(4, w // 2))
        y0, x0 = int(rng.integers(0, h - dy)), int(rng.integers(0, w - dx))
        img[y0 : y0 + dy, x0 : x0 + dx] = rng.integers(0, 256, 3)
    return img


def test_segmentation_properties():
    rng = np.random.Generator(np.random.PCG64(99))
    min_size = 9
    for _ in range(100):
        img = _random_textured(rng)
        rm = segmentation.graph_segment(img, k=150.0, min_size=min_size)
        assert rm.labels.shape == img.shape[:2]
        assert np.array_equal(np.unique(rm.labels), np.arange(rm.region_count))
        sizes = np.bincount(rm.labels.ravel(), minlength=rm.region_count)
        assert sizes.min() >= min(min_size, img.shape[0] * img.shape[1])
        for r in range(rm.region_count):
            assert ndimage.label(rm.labels == r, structure=FOUR_CONN)[1] == 1

        counts = [
            segmentation.graph_segment(img, k=k, min_size=1).region_count
            for k in (40.0, 120.0, 360.0, 1080.0)
        ]
        assert all(a >= b for a, b in zip(counts, counts[1:])), f"counts not monotone: {counts}"
    note("segmentation properties", "partition/connectivity/min-size and k-monotonicity, 100 images")


# -------------------------------------------------------- format round-trips


def test_format_round_trips(tmp_path):
    cfg = model.BackboneConfig(input_size=8, stage_channels=(2, 3, 4), num_classes_per_task=(3,))
    rng = np.random.Generator(np.random.PCG64(55))
    params = {name: rng.standard_normal(shape) for name, shape in model.param_shapes(cfg).items()}
    ckpt = model.Checkpoint(
        config=cfg,
        msc=model.MSCConfig(mu_g=1.0, mu_m=0.0),
        labels=["a", "b", "c"],
        label_ids=[1, 2, 3],
        params=params,
        meta={"epochs": 0},
    )
    p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
    model.save_checkpoint(ckpt, str(p1))
    back = model.load_checkpoint(str(p1))
    for name, orig in params.items():
        assert np.array_equal(back.params[name], orig.astype(np.float32).astype(np.float64))
    model.save_checkpoint(back, str(p2))
    assert p1.read_bytes() == p2.read_bytes()

    rgb = rng.integers(0, 256, (9, 13, 3)).astype(np.uint8)
    gray8 = rng.integers(0, 256, (7, 5)).astype(np.uint8)
    gray16 = rng.integers(0, 60_000, (6, 4)).astype(np.uint16)
    write_ppm(tmp_path / "c.ppm", rgb)
    write_pgm(tmp_path / "g8.pgm", gray8)
    write_pgm(tmp_path / "g16.pgm", gray16, maxval=65535)
    assert np.array_equal(read_ppm(tmp_path / "c.ppm"), rgb)
    assert np.array_equal(read_pgm(tmp_path / "g8.pgm"), gray8)
    assert np.array_equal(read_pgm(tmp_path / "g16.pgm"), gray16)
    write_ppm(tmp_path / "c2.ppm", read_ppm(tmp_path / "c.ppm"))
    assert (tmp_path / "c.ppm").read_bytes() == (tmp_path / "c2.ppm").read_bytes()

    scene = tmp_path / "scene"
    assert cli.main([
        "synth", "--kind", "scene", "--out-dir", str(scene),
        "--classes", "3", "--size", "64", "--seed", "9",
    ]) == 0
    (tmp_path / "p.json").write_text(json.dumps({"stride": 8, "min_size": 16}))
    outs = []
    for sub in ("r1", "r2"):
        outdir = tmp_path / sub
        outdir.mkdir()
        assert cli.main([
            "parse", "--input", str(scene / "scene.ppm"),
            "--output", str(outdir / "labels.pgm"),
            "--oracle-truth", str(scene / "truth.pgm"),
            "--config", str(tmp_path / "p.json"),
            "--dump-grid", str(outdir / "grid.pgm"),
        ]) == 0
        outs.append(outdir)
    for name in ("labels.pgm", "grid.pgm", "grid.pgm.meta"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    note("format round-trips", "checkpoint 32-bit value-exact, P5/P6 bit-exact, parse rerun identical")
