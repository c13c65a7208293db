import json
import zlib

import numpy as np
import pytest

from sceneparse import model, synthdata
from sceneparse import tensor as T
from sceneparse.errors import (
    ChecksumError,
    ConfigError,
    DataError,
    FormatVersionError,
    IncompatibleCheckpointError,
    NumericError,
    ShapeError,
)
from sceneparse.fusion import fuse

SMALL = model.BackboneConfig(input_size=8, stage_channels=(2, 3, 4), num_classes_per_task=(3,))


def attention_oracle(sf, df, w, b):
    """Elementwise recomputation: SF * (1 + sigmoid(1x1conv(upsample(DF))))."""
    factor = sf.shape[-1] // df.shape[-1]
    up = df.repeat(factor, axis=-2).repeat(factor, axis=-1)
    z = np.einsum("nchw,oc->nohw", up, w[:, :, 0, 0]) + b[None, :, None, None]
    sam = 1.0 / (1.0 + np.exp(-z))
    return sf * (1.0 + sam)


def tile_dataset(tmp_path, n_classes=3, per_class=6, size=8, seed=0, sub="d"):
    classes = synthdata.default_texture_classes(n_classes)
    spec = synthdata.SceneSpec(
        classes=classes,
        layout=synthdata.GridLayout(rows=1, cols=n_classes),
        height=size,
        width=size * n_classes,
    )
    return synthdata.generate_tile_dataset(spec, per_class, size, seed, tmp_path / sub)


class TestConfigs:
    def test_backbone_validation(self):
        with pytest.raises(ConfigError):
            model.BackboneConfig(input_size=8, stage_channels=(2, 3))
        with pytest.raises(ConfigError):
            model.BackboneConfig(input_size=10, stage_strides=(2, 2, 2))
        with pytest.raises(ConfigError):
            model.BackboneConfig(input_size=8, num_classes_per_task=())

    def test_msc_validation(self):
        with pytest.raises(ConfigError):
            model.MSCConfig(mu_g=0.7, mu_m=0.2)
        with pytest.raises(ConfigError):
            model.MSCConfig(stream_weights=(0.0, 0.5, 1.0))
        with pytest.raises(ConfigError):
            model.MSCConfig(mu_g=float("nan"), mu_m=0.5)
        cfg = model.MSCConfig()
        assert cfg.mu_g + cfg.mu_m == 1.0

    @pytest.mark.parametrize(
        "weights",
        [(float("nan"), 1.0, 1.0), (1.0, float("inf"), 1.0), (1e308, 1e308, 1e308), (1.0, 1.0), (1.0, 1.0, 1.0, 1.0)],
    )
    def test_stream_weights_three_finite_positive(self, weights):
        with pytest.raises(ConfigError, match="stream weights"):
            model.MSCConfig(stream_weights=weights)

    def test_param_shapes_order_and_sizes(self):
        shapes = model.param_shapes(SMALL)
        names = list(shapes)
        assert names[0] == "stage1.conv1.w"
        assert shapes["stage1.conv1.w"] == (2, 3, 3, 3)
        assert shapes["stage2.conv1.w"] == (3, 2, 3, 3)
        assert shapes["attn1.w"] == (2, 3, 1, 1)
        assert shapes["attn2.w"] == (3, 4, 1, 1)
        assert shapes["head.g0.s1.w"] == (3, 2)
        assert shapes["head.g0.s3.w"] == (3, 4)
        assert names[-1] == "head.g0.s3.b"

    def test_init_deterministic(self):
        a = model.init_params(SMALL, seed=4)
        b = model.init_params(SMALL, seed=4)
        c = model.init_params(SMALL, seed=5)
        for name in a:
            assert np.array_equal(a[name].data, b[name].data)
        assert not np.array_equal(a["stage1.conv1.w"].data, c["stage1.conv1.w"].data)

    def test_biases_start_zero(self):
        params = model.init_params(SMALL, seed=0)
        for name, p in params.items():
            if name.endswith(".b"):
                assert (p.data == 0).all()


class TestForward:
    def test_pyramid_shapes(self, rng):
        params = model.init_params(SMALL, seed=0)
        x = T.tensor(rng.random(size=(2, 3, 8, 8)))
        pyr = model.backbone_forward(x, SMALL, params)
        assert pyr.f1.data.shape == (2, 2, 4, 4)
        assert pyr.f2.data.shape == (2, 3, 2, 2)
        assert pyr.f3.data.shape == (2, 4, 1, 1)

    def test_wrong_input_shape(self, rng):
        params = model.init_params(SMALL, seed=0)
        with pytest.raises(ShapeError):
            model.backbone_forward(T.tensor(rng.random(size=(2, 3, 9, 9))), SMALL, params)

    def test_logits_shapes(self, rng):
        params = model.init_params(SMALL, seed=0)
        x = T.tensor(rng.random(size=(5, 3, 8, 8)))
        out = model.msc_forward(x, SMALL, params)
        assert len(out) == 1 and len(out[0]) == 3
        for z in out[0]:
            assert z.data.shape == (5, 3)


class TestAttention:
    def test_zero_weights_give_three_halves(self, rng):
        sf = T.tensor(rng.random(size=(2, 3, 4, 4)))
        df = T.tensor(rng.random(size=(2, 5, 2, 2)))
        aw = model.AttentionWeights(T.tensor(np.zeros((3, 5, 1, 1))), T.tensor(np.zeros(3)))
        af = model.attention_fuse(sf, df, aw)
        assert np.array_equal(af.data, 1.5 * sf.data)

    def test_random_weights_match_oracle(self, rng):
        for _ in range(20):
            sf = T.tensor(rng.normal(size=(2, 3, 6, 6)))
            df = T.tensor(rng.normal(size=(2, 5, 3, 3)))
            w = rng.normal(size=(3, 5, 1, 1))
            b = rng.normal(size=(3,))
            aw = model.AttentionWeights(T.tensor(w), T.tensor(b))
            af = model.attention_fuse(sf, df, aw)
            want = attention_oracle(sf.data, df.data, w, b)
            assert np.allclose(af.data, want, atol=1e-12)

    def test_non_divisible_shapes_rejected(self, rng):
        sf = T.tensor(rng.random(size=(1, 2, 5, 5)))
        df = T.tensor(rng.random(size=(1, 2, 2, 2)))
        aw = model.AttentionWeights(T.tensor(np.zeros((2, 2, 1, 1))), T.tensor(np.zeros(2)))
        with pytest.raises(ShapeError):
            model.attention_fuse(sf, df, aw)

    def test_chain_deep_to_shallow(self, rng):
        params = model.init_params(SMALL, seed=1)
        x = T.tensor(rng.random(size=(1, 3, 8, 8)))
        pyr = model.backbone_forward(x, SMALL, params)
        af1, af2, af3 = model.han_forward(pyr, params)
        assert af3 is pyr.f3
        want2 = attention_oracle(
            pyr.f2.data, af3.data, params["attn2.w"].data, params["attn2.b"].data
        )
        assert np.allclose(af2.data, want2, atol=1e-12)
        want1 = attention_oracle(pyr.f1.data, want2, params["attn1.w"].data, params["attn1.b"].data)
        assert np.allclose(af1.data, want1, atol=1e-12)


class TestMscLoss:
    def _logits(self, rng, k=4, b=2):
        return [T.tensor(rng.normal(size=(b, k))) for _ in range(3)]

    def test_matches_weighted_sum(self, rng):
        zg = self._logits(rng)
        zm = self._logits(rng, k=5)
        tg = np.array([0, 3])
        tm = np.array([4, 1])
        cfg = model.MSCConfig(stream_weights=(0.25, 0.5, 1.0), mu_g=0.3, mu_m=0.7)
        got = float(model.msc_loss(zg, tg, zm, tm, cfg).data)
        want = 0.3 * sum(
            w * float(T.cross_entropy(z, tg).data) for w, z in zip((0.25, 0.5, 1.0), zg)
        ) + 0.7 * sum(w * float(T.cross_entropy(z, tm).data) for w, z in zip((0.25, 0.5, 1.0), zm))
        assert got == pytest.approx(want, abs=1e-12)

    def test_linear_in_stream_weights(self, rng):
        zg = self._logits(rng)
        tg = np.array([0, 1])
        base = model.MSCConfig(stream_weights=(0.25, 0.5, 1.0), mu_g=1.0, mu_m=0.0)
        sc = model.MSCConfig(stream_weights=(0.75, 1.5, 3.0), mu_g=1.0, mu_m=0.0)
        a = float(model.msc_loss(zg, tg, None, None, base).data)
        b = float(model.msc_loss(zg, tg, None, None, sc).data)
        assert b == pytest.approx(3 * a, rel=1e-12)

    def test_single_task_drops_auxiliary_term(self, rng):
        zg = self._logits(rng)
        tg = np.array([0, 1])
        cfg = model.MSCConfig(mu_g=1.0, mu_m=0.0)
        got = float(model.msc_loss(zg, tg, None, None, cfg).data)
        want = sum(w * float(T.cross_entropy(z, tg).data) for w, z in zip((0.25, 0.5, 1.0), zg))
        assert got == pytest.approx(want, abs=1e-12)

    def test_stream_count_mismatch(self, rng):
        with pytest.raises(ShapeError):
            model.msc_loss(self._logits(rng)[:2], np.array([0, 1]), None, None, model.MSCConfig(mu_g=1.0, mu_m=0.0))


class TestGradientsThroughModel:
    def test_full_graph_check(self, rng):
        params = model.init_params(SMALL, seed=2)
        x = T.tensor(rng.random(size=(2, 3, 8, 8)))
        tg = np.array([0, 2])
        cfg = model.MSCConfig(mu_g=1.0, mu_m=0.0)

        def loss_fn():
            out = model.msc_forward(x, SMALL, params)
            return model.msc_loss(out[0], tg, None, None, cfg)

        err = T.check_gradients(loss_fn, list(params.values()), max_samples=400, seed=0)
        assert err <= 1e-4


class TestTrain:
    def test_loss_decreases(self, tmp_path):
        man = tile_dataset(tmp_path)
        hyper = model.TrainConfig(epochs=4, batch_size=8, lr=0.02, schedule=(), seed=0)
        _, trace = model.train(SMALL, [man], hyper)
        assert trace[-1] < trace[0]

    def test_zero_lr_keeps_init(self, tmp_path):
        man = tile_dataset(tmp_path)
        hyper = model.TrainConfig(epochs=1, batch_size=8, lr=0.0, schedule=(), seed=6)
        ckpt, _ = model.train(SMALL, [man], hyper)
        init = model.init_params(SMALL, seed=6)
        for name, p in init.items():
            assert np.array_equal(ckpt.params[name], p.data), name

    def test_bit_identical_repeat(self, tmp_path):
        man = tile_dataset(tmp_path)
        hyper = model.TrainConfig(epochs=2, batch_size=8, lr=0.01, schedule=(), seed=1)
        c1, t1 = model.train(SMALL, [man], hyper)
        c2, t2 = model.train(SMALL, [man], hyper)
        assert t1 == t2
        for name in c1.params:
            assert np.array_equal(c1.params[name], c2.params[name])
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        model.save_checkpoint(c1, p1)
        model.save_checkpoint(c2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_two_task_joint_training(self, tmp_path):
        man_g = tile_dataset(tmp_path, n_classes=3, sub="g")
        man_m = tile_dataset(tmp_path, n_classes=4, sub="m", seed=9)
        cfg = model.BackboneConfig(input_size=8, stage_channels=(2, 3, 4), num_classes_per_task=(3, 4))
        hyper = model.TrainConfig(epochs=1, batch_size=8, lr=0.01, schedule=(), seed=0)
        ckpt, trace = model.train(cfg, [man_g, man_m], hyper)
        assert ckpt.params["head.g0.s1.w"].shape == (3, 2)
        assert ckpt.params["head.g1.s1.w"].shape == (4, 2)
        assert len(trace) == 1

    def test_manifest_task_count_mismatch(self, tmp_path):
        man = tile_dataset(tmp_path)
        cfg = model.BackboneConfig(input_size=8, stage_channels=(2, 3, 4), num_classes_per_task=(3, 4))
        with pytest.raises(ConfigError):
            model.train(cfg, [man], model.TrainConfig(epochs=1))

    def test_auxiliary_weight_without_manifest(self, tmp_path):
        man = tile_dataset(tmp_path)
        with pytest.raises(ConfigError):
            model.train(SMALL, [man], model.TrainConfig(epochs=1), msc=model.MSCConfig())

    def test_label_out_of_range(self, tmp_path):
        man = tile_dataset(tmp_path, n_classes=3)
        cfg = model.BackboneConfig(input_size=8, stage_channels=(2, 3, 4), num_classes_per_task=(2,))
        with pytest.raises(DataError):
            model.train(cfg, [man], model.TrainConfig(epochs=1))

    def test_divergent_lr_raises_numeric(self, tmp_path):
        man = tile_dataset(tmp_path)
        hyper = model.TrainConfig(epochs=8, batch_size=8, lr=1e6, schedule=(), seed=0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
            model.train(SMALL, [man], hyper)

    def test_trace_in_meta(self, tmp_path):
        man = tile_dataset(tmp_path)
        ckpt, trace = model.train(SMALL, [man], model.TrainConfig(epochs=2, batch_size=8, schedule=()))
        assert ckpt.meta["loss_trace"] == trace
        assert ckpt.meta["epochs"] == 2

    def test_on_epoch_sees_each_epoch_and_changes_nothing(self, tmp_path):
        man = tile_dataset(tmp_path)
        hyper = model.TrainConfig(epochs=3, batch_size=8, lr=0.01, schedule=(), seed=1)
        seen = []
        c1, t1 = model.train(SMALL, [man], hyper, on_epoch=lambda e, l: seen.append((e, l)))
        c2, t2 = model.train(SMALL, [man], hyper)
        assert seen == list(enumerate(t2))
        assert t1 == t2
        model.save_checkpoint(c1, tmp_path / "a.ckpt")
        model.save_checkpoint(c2, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


class TestFineTune:
    def _base(self, tmp_path):
        man = tile_dataset(tmp_path, sub="base")
        hyper = model.TrainConfig(epochs=1, batch_size=8, lr=0.01, schedule=(), seed=0)
        return model.train(SMALL, [man], hyper)[0]

    def test_keeps_backbone_at_zero_epochs(self, tmp_path):
        base = self._base(tmp_path)
        man = tile_dataset(tmp_path, n_classes=4, sub="new")
        ft, _ = model.fine_tune(
            base, (4,), [man], hyper=model.TrainConfig(epochs=0, lr=0.001, schedule=())
        )
        assert ft.params["head.g0.s1.w"].shape == (4, 2)
        for name in base.params:
            if not name.startswith("head."):
                assert np.array_equal(ft.params[name], base.params[name]), name
        assert ft.meta["fine_tuned"] is True

    def test_training_continues(self, tmp_path):
        base = self._base(tmp_path)
        man = tile_dataset(tmp_path, n_classes=4, sub="new")
        ft, trace = model.fine_tune(
            base, (4,), [man], hyper=model.TrainConfig(epochs=2, batch_size=8, lr=0.01, schedule=())
        )
        assert len(trace) == 2
        assert not np.array_equal(ft.params["stage1.conv1.w"], base.params["stage1.conv1.w"])

    def test_default_hyper_is_gentle(self, tmp_path):
        base = self._base(tmp_path)
        man = tile_dataset(tmp_path, n_classes=4, sub="new")
        ft, _ = model.fine_tune(base, (4,), [man], hyper=model.TrainConfig(epochs=0, lr=model.FINE_TUNE_LR, schedule=()))
        assert ft.meta["lr"] == 0.001

    def test_task_count_mismatch(self, tmp_path):
        base = self._base(tmp_path)
        man = tile_dataset(tmp_path, n_classes=4, sub="new")
        with pytest.raises(IncompatibleCheckpointError):
            model.fine_tune(base, (4, 2), [man])

    def test_architecture_mismatch(self, tmp_path):
        base = self._base(tmp_path)
        # drop a backbone parameter the new architecture needs
        del base.params["attn1.w"]
        man = tile_dataset(tmp_path, n_classes=4, sub="new")
        with pytest.raises(IncompatibleCheckpointError):
            model.fine_tune(base, (4,), [man], hyper=model.TrainConfig(epochs=0, schedule=()))


def make_checkpoint(seed=0):
    params = {
        name: np.random.Generator(np.random.PCG64((seed, i))).normal(size=shape)
        for i, (name, shape) in enumerate(model.param_shapes(SMALL).items())
    }
    return model.Checkpoint(
        config=SMALL,
        msc=model.MSCConfig(mu_g=1.0, mu_m=0.0),
        labels=["a", "b", "c"],
        label_ids=[1, 2, 3],
        params=params,
        meta={"note": "test"},
    )


def rewrite_header(path, mutate):
    """Parse a checkpoint file, apply ``mutate`` to the header dict, and
    rewrite it with consistent lengths (payload untouched)."""
    buf = path.read_bytes()
    first = buf.index(b"\n") + 1
    second = buf.index(b"\n", first) + 1
    hlen = int(buf[first:second].split()[1])
    header = json.loads(buf[second : second + hlen])
    rest = buf[second + hlen :]
    mutate(header)
    blob = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(buf[:first] + f"header {len(blob)}\n".encode() + blob + rest)


class TestCheckpointFormat:
    def test_value_exact_at_32_bit(self, tmp_path):
        ckpt = make_checkpoint()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        model.save_checkpoint(ckpt, p1)
        back = model.load_checkpoint(p1)
        for name in ckpt.params:
            assert np.array_equal(
                back.params[name], ckpt.params[name].astype(np.float32).astype(np.float64)
            )
        model.save_checkpoint(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_fields_survive(self, tmp_path):
        ckpt = make_checkpoint()
        p = tmp_path / "a.ckpt"
        model.save_checkpoint(ckpt, p)
        back = model.load_checkpoint(p)
        assert back.labels == ["a", "b", "c"]
        assert back.label_ids == [1, 2, 3]
        assert back.config == SMALL
        assert back.msc.mu_g == 1.0
        assert back.meta["note"] == "test"

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"NOTACKPT 1\nheader 2\n{}\npayload 0\n")
        with pytest.raises(FormatVersionError):
            model.load_checkpoint(p)

    def test_unsupported_version(self, tmp_path):
        ckpt = make_checkpoint()
        p = tmp_path / "a.ckpt"
        model.save_checkpoint(ckpt, p)
        buf = p.read_bytes()
        p.write_bytes(buf.replace(b"SCENEPARSE-CKPT 1\n", b"SCENEPARSE-CKPT 9\n", 1))
        with pytest.raises(FormatVersionError):
            model.load_checkpoint(p)

    def test_truncated_payload(self, tmp_path):
        ckpt = make_checkpoint()
        p = tmp_path / "a.ckpt"
        model.save_checkpoint(ckpt, p)
        p.write_bytes(p.read_bytes()[:-10])
        with pytest.raises(ChecksumError):
            model.load_checkpoint(p)

    def test_flipped_payload_byte(self, tmp_path):
        ckpt = make_checkpoint()
        p = tmp_path / "a.ckpt"
        model.save_checkpoint(ckpt, p)
        buf = bytearray(p.read_bytes())
        buf[-1] ^= 0xFF
        p.write_bytes(bytes(buf))
        with pytest.raises(ChecksumError):
            model.load_checkpoint(p)

    def test_manifest_config_mismatch(self, tmp_path):
        ckpt = make_checkpoint()
        p = tmp_path / "a.ckpt"
        model.save_checkpoint(ckpt, p)
        rewrite_header(p, lambda h: h["config"].update(num_classes_per_task=[5]))
        with pytest.raises(FormatVersionError):
            model.load_checkpoint(p)

    def test_multilabel_head_in_manifest(self, tmp_path):
        ckpt = make_checkpoint()
        p = tmp_path / "a.ckpt"
        model.save_checkpoint(ckpt, p)
        rewrite_header(p, lambda h: h["params"].extend([["ml.w", [5, 9]], ["ml.b", [5]]]))
        with pytest.raises(FormatVersionError, match="manifest"):
            model.load_checkpoint(p)

    @pytest.mark.parametrize(
        "weights", [[float("nan"), 0.5, 1.0], [0.25, 0.5], [0.25, 0.5, 1.0, 1.0], [1e308, 1e308, 1e308], ["x", 1, 1]]
    )
    def test_bad_stream_weights_in_header(self, tmp_path, weights):
        # the CRC covers the payload, not the header
        ckpt = make_checkpoint()
        p = tmp_path / "a.ckpt"
        model.save_checkpoint(ckpt, p)
        rewrite_header(p, lambda h: h["msc"].update(stream_weights=weights))
        with pytest.raises(FormatVersionError, match="stream weights"):
            model.load_checkpoint(p)

    def test_non_integer_label_ids_in_header(self, tmp_path):
        ckpt = make_checkpoint()
        p = tmp_path / "a.ckpt"
        model.save_checkpoint(ckpt, p)
        rewrite_header(p, lambda h: h.update(label_ids=["a", "b", "c"]))
        with pytest.raises(FormatVersionError, match="malformed header"):
            model.load_checkpoint(p)

    def test_label_table_size_mismatch(self, tmp_path):
        ckpt = make_checkpoint()
        p = tmp_path / "a.ckpt"
        model.save_checkpoint(ckpt, p)
        rewrite_header(p, lambda h: h.update(labels=["a", "b"], label_ids=[1, 2]))
        with pytest.raises(FormatVersionError):
            model.load_checkpoint(p)

    def test_save_rejects_wrong_params(self, tmp_path):
        ckpt = make_checkpoint()
        ckpt.params["stage1.conv1.w"] = np.zeros((9, 9))
        with pytest.raises(ConfigError):
            model.save_checkpoint(ckpt, tmp_path / "x.ckpt")


def stream_fusion_loops(clf, patches):
    """The stream fusion TileClassifier.probs_batch ran before it called
    fusion.fuse: softmax per stream, zeros, += each weighted stream, over
    the logits of the classifier's own float32 forward."""
    logits = model._msc(patches.astype(np.float32), clf.config, clf._params, T.arrays)[0]
    w = np.asarray(clf.msc.stream_weights)
    fused = np.zeros((patches.shape[0], clf.n_classes))
    for ws, z in zip(w, logits):
        fused += ws * model._softmax_rows(z.astype(np.float64))
    return fused / w.sum()


DESK = model.BackboneConfig(input_size=32, stage_channels=(8, 16, 32), num_classes_per_task=(8,))
F32_TOLERANCE = 1e-5  # largest change of a fused probability from the float64 forward


def probs_float64(ckpt, patches):
    """The classifier's probabilities from the float64 autodiff forward."""
    params = {name: T.tensor(v) for name, v in ckpt.params.items()}
    logits = model.msc_forward(T.tensor(patches), ckpt.config, params)[0]
    return fuse(np.stack([model._softmax_rows(z.data) for z in logits], axis=-2), ckpt.msc.stream_weights)


class TestTileClassifier:
    def _trained(self, tmp_path):
        man = tile_dataset(tmp_path)
        hyper = model.TrainConfig(epochs=2, batch_size=8, lr=0.02, schedule=(), seed=0)
        return model.train(SMALL, [man], hyper)[0], man

    def test_probs_on_simplex(self, tmp_path, rng):
        ckpt, _ = self._trained(tmp_path)
        clf = model.TileClassifier(ckpt)
        batch = rng.random(size=(4, 3, 8, 8))
        probs = clf.probs_batch(batch)
        assert probs.shape == (4, 3)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert (probs >= 0).all()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("weights", [(0.25, 0.5, 1.0), (1.0, 1.0, 1.0), (0.1, 0.2, 0.3), (7.0, 1e-3, 2.5)])
    def test_stream_fusion_matches_loop_oracle(self, seed, weights):
        params = {name: t.data for name, t in model.init_params(SMALL, seed=seed).items()}
        msc = model.MSCConfig(stream_weights=weights, mu_g=1.0, mu_m=0.0)
        clf = model.TileClassifier(model.Checkpoint(SMALL, msc, ["a", "b", "c"], [1, 2, 3], params))
        patches = np.random.Generator(np.random.PCG64(seed)).random((37, 3, 8, 8))
        assert clf.probs_batch(patches).tobytes() == stream_fusion_loops(clf, patches).tobytes()

    @pytest.mark.parametrize("cfg", [SMALL, DESK], ids=["small", "desk"])
    @pytest.mark.parametrize("batch", [1, 64, 65])
    def test_array_forward_float64_bit_equal(self, cfg, batch):
        # SMALL's last stage is 1x1, which takes conv2d's sample-major branch
        params = {name: t.data for name, t in model.init_params(cfg, seed=batch).items()}
        x = np.random.Generator(np.random.PCG64(batch)).random((batch, 3, cfg.input_size, cfg.input_size))
        want = model.msc_forward(T.tensor(x), cfg, {name: T.tensor(v) for name, v in params.items()})
        got = model._msc(x, cfg, params, T.arrays)
        for z_got, z_want in zip(got[0], want[0]):
            assert z_got.dtype == np.float64
            assert z_got.tobytes() == z_want.data.tobytes()

    def _check_float32(self, ckpt, x):
        got, want = model.TileClassifier(ckpt).probs_batch(x), probs_float64(ckpt, x)
        assert got.dtype == np.float64
        assert np.abs(got - want).max() <= F32_TOLERANCE
        assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))

    def test_float32_within_tolerance_random_desk(self):
        params = {name: t.data for name, t in model.init_params(DESK, seed=5).items()}
        ckpt = model.Checkpoint(DESK, model.MSCConfig(mu_g=1.0, mu_m=0.0), list("abcdefgh"), list(range(1, 9)), params)
        self._check_float32(ckpt, np.random.Generator(np.random.PCG64(11)).random((65, 3, 32, 32)))

    def test_float32_within_tolerance_trained_small(self, tmp_path):
        ckpt, man = self._trained(tmp_path)
        model.save_checkpoint(ckpt, str(tmp_path / "m.ckpt"))
        self._check_float32(model.load_checkpoint(str(tmp_path / "m.ckpt")), model.load_tiles(man, 8)[0])

    def test_properties(self, tmp_path):
        ckpt, _ = self._trained(tmp_path)
        clf = model.TileClassifier(ckpt)
        assert clf.input_size == 8
        assert clf.n_classes == 3
        assert clf.label_ids == [1, 2, 3]


class TestLoadTiles:
    def test_missing_file(self, tmp_path):
        from sceneparse.taxonomy import DatasetManifest, SceneSample

        man = DatasetManifest([SceneSample("a", str(tmp_path / "nope.ppm"), 0)])
        with pytest.raises(DataError):
            model.load_tiles(man, 8)

    def test_wrong_tile_size(self, tmp_path):
        man = tile_dataset(tmp_path, size=8)
        with pytest.raises(DataError):
            model.load_tiles(man, 16)
