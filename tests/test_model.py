import json
import re
import tracemalloc
import zlib

import numpy as np
import pytest

from sceneparse import model, parser, synthdata
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
from sceneparse.netpbm import read_ppm
from sceneparse.taxonomy import DatasetManifest

SMALL = model.BackboneConfig(input_size=8, stage_channels=(2, 3, 4), num_classes_per_task=(3,))
F32_TRAIN_LOSS_TOLERANCE = 1e-5  # per-epoch mean loss, float32 training against float64


def attention_oracle(sf, df, w, b):
    """Elementwise recomputation: SF * (1 + sigmoid(1x1conv(upsample(DF))))."""
    factor = sf.shape[-1] // df.shape[-1]
    up = df.repeat(factor, axis=-2).repeat(factor, axis=-1)
    z = np.einsum("nchw,oc->nohw", up, w[:, :, 0, 0]) + b[None, :, None, None]
    sam = 1.0 / (1.0 + np.exp(-z))
    return sf * (1.0 + sam)


def attention_fuse_upsample_first(sf, df, w, b):
    """attention_fuse as it ran before its gate moved to the deep map's
    resolution: upsample DF, then the 1x1 conv, bias and sigmoid."""
    up = T.upsample_nearest(df, sf.shape[-1] // df.shape[-1])
    return sf + sf * T.sigmoid(T.bias_add(T.conv2d(up, w), b))


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

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"lr": float("nan")}, "finite"),
            ({"momentum": float("inf")}, "finite"),
            ({"weight_decay": float("nan")}, "finite"),
            ({"schedule": ((0, 0.0),)}, "schedule divisors"),
            ({"schedule": ((5, -10.0),)}, "schedule divisors"),
            ({"schedule": ((5, float("inf")),)}, "schedule divisors"),
            ({"seed": -1}, "seed"),
        ],
    )
    def test_train_config_rejects_bad_numbers(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            model.TrainConfig(**kwargs)

    @pytest.mark.parametrize(
        "build,field",
        [
            (lambda: model.BackboneConfig(input_size=32.0), "input_size"),
            (lambda: model.BackboneConfig(input_size=8, stage_channels=[2.0, 3, 4]), "stage_channels[0]"),
            (lambda: parser.ParseConfig(window_sizes=[8.7, 16]), "window_sizes[0]"),
            (lambda: model.TrainConfig(epochs=2.5), "epochs"),
            (lambda: model.TrainConfig(augment=1), "augment"),
            (lambda: parser.ParseConfig(min_size=2.5), "min_size"),
            (lambda: model.MSCConfig(stream_weights=[1, "0.5", 1]), "stream_weights[1]"),
            (lambda: model.TrainConfig(lr="0.1"), "lr"),
            (lambda: parser.ParseConfig(k="1"), "k"),
            (lambda: model.TrainConfig(schedule=[(2.0, 10.0)]), "schedule[0][0]"),
            (lambda: model.MSCConfig(mu_g=10**400, mu_m=0.0), "mu_g"),
        ],
    )
    def test_field_types_checked_for_library_callers(self, build, field):
        # the rule a JSON config goes through: no truncation, no bare TypeError
        with pytest.raises(ConfigError, match=rf"config field '{re.escape(field)}'"):
            build()

    def test_lists_become_tuples_and_numbers_keep_their_type(self):
        cfg = model.BackboneConfig(input_size=8, stage_channels=[2, 3, 4], num_classes_per_task=[3])
        assert cfg == SMALL and isinstance(cfg.stage_channels, tuple)
        hyper = model.TrainConfig(lr=1, schedule=[[2, 10]])
        assert hyper.lr == 1 and type(hyper.lr) is int  # written to checkpoints as given
        assert hyper.schedule == ((2, 10.0),) and type(hyper.schedule[0][1]) is float
        assert parser.ParseConfig(window_sizes=[4, 8], scale_weights=[1, 2]).window_sizes == (4, 8)

    def test_numpy_integers_build_and_save(self, tmp_path):
        cfg = model.BackboneConfig(
            input_size=np.int64(8), stage_channels=(np.int32(2), 3, 4), num_classes_per_task=[np.uint8(3)]
        )
        assert cfg == SMALL and all(type(v) is int for v in (cfg.input_size, *cfg.stage_channels))
        ckpt = make_checkpoint()
        model.save_checkpoint(ckpt, tmp_path / "a.ckpt")
        ckpt.config = cfg
        model.save_checkpoint(ckpt, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
        assert model.load_checkpoint(tmp_path / "b.ckpt").config == SMALL

    @pytest.mark.parametrize("value", [np.float64(8.0), np.bool_(True), True])
    def test_numpy_and_bool_non_integers_refused(self, value):
        with pytest.raises(ConfigError, match="config field 'input_size' must be int"):
            model.BackboneConfig(input_size=value)

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
        f1, f2, f3 = model.backbone_forward(x, SMALL, params)
        assert f1.data.shape == (2, 2, 4, 4)
        assert f2.data.shape == (2, 3, 2, 2)
        assert f3.data.shape == (2, 4, 1, 1)

    def test_wrong_input_shape(self, rng):
        params = model.init_params(SMALL, seed=0)
        with pytest.raises(ShapeError):
            model.backbone_forward(T.tensor(rng.random(size=(2, 3, 9, 9))), SMALL, params)
        with pytest.raises(ShapeError):
            model.backbone_forward(T.tensor(rng.random(size=(3, 8, 8))), SMALL, params)

    def test_logits_shapes(self, rng):
        params = model.init_params(SMALL, seed=0)
        x = T.tensor(rng.random(size=(5, 3, 8, 8)))
        out = model.msc_forward(x, SMALL, params, 0)
        assert len(out) == 3
        for z in out:
            assert z.data.shape == (5, 3)


class TestAttention:
    def test_zero_weights_give_three_halves(self, rng):
        sf = T.tensor(rng.random(size=(2, 3, 4, 4)))
        df = T.tensor(rng.random(size=(2, 5, 2, 2)))
        af = model.attention_fuse(sf, df, T.tensor(np.zeros((3, 5, 1, 1))), T.tensor(np.zeros(3)))
        assert np.array_equal(af.data, 1.5 * sf.data)

    def test_random_weights_match_oracle(self, rng):
        for _ in range(20):
            sf = T.tensor(rng.normal(size=(2, 3, 6, 6)))
            df = T.tensor(rng.normal(size=(2, 5, 3, 3)))
            w = rng.normal(size=(3, 5, 1, 1))
            b = rng.normal(size=(3,))
            af = model.attention_fuse(sf, df, T.tensor(w), T.tensor(b))
            want = attention_oracle(sf.data, df.data, w, b)
            assert np.allclose(af.data, want, atol=1e-12)

    def test_non_divisible_shapes_rejected(self, rng):
        sf = T.tensor(rng.random(size=(1, 2, 5, 5)))
        df = T.tensor(rng.random(size=(1, 2, 2, 2)))
        with pytest.raises(ShapeError):
            model.attention_fuse(sf, df, T.tensor(np.zeros((2, 2, 1, 1))), T.tensor(np.zeros(2)))

    def test_chain_deep_to_shallow(self, rng):
        params = model.init_params(SMALL, seed=1)
        x = T.tensor(rng.random(size=(1, 3, 8, 8)))
        f1, f2, f3 = feats = model.backbone_forward(x, SMALL, params)
        af1, af2, af3 = model.han_forward(feats, params)
        assert af3 is f3
        want2 = attention_oracle(
            f2.data, af3.data, params["attn2.w"].data, params["attn2.b"].data
        )
        assert np.allclose(af2.data, want2, atol=1e-12)
        want1 = attention_oracle(f1.data, want2, params["attn1.w"].data, params["attn1.b"].data)
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
        got = float(model.msc_loss([zg, zm], [tg, tm], cfg).data)
        want = 0.3 * sum(
            w * float(T.cross_entropy(z, tg).data) for w, z in zip((0.25, 0.5, 1.0), zg)
        ) + 0.7 * sum(w * float(T.cross_entropy(z, tm).data) for w, z in zip((0.25, 0.5, 1.0), zm))
        assert got == pytest.approx(want, abs=1e-12)

    def test_linear_in_stream_weights(self, rng):
        zg = self._logits(rng)
        tg = np.array([0, 1])
        base = model.MSCConfig(stream_weights=(0.25, 0.5, 1.0), mu_g=1.0, mu_m=0.0)
        sc = model.MSCConfig(stream_weights=(0.75, 1.5, 3.0), mu_g=1.0, mu_m=0.0)
        a = float(model.msc_loss([zg], [tg], base).data)
        b = float(model.msc_loss([zg], [tg], sc).data)
        assert b == pytest.approx(3 * a, rel=1e-12)

    def test_single_task_drops_auxiliary_term(self, rng):
        zg = self._logits(rng)
        tg = np.array([0, 1])
        cfg = model.MSCConfig(mu_g=1.0, mu_m=0.0)
        got = float(model.msc_loss([zg], [tg], cfg).data)
        want = sum(w * float(T.cross_entropy(z, tg).data) for w, z in zip((0.25, 0.5, 1.0), zg))
        assert got == pytest.approx(want, abs=1e-12)

    def test_stream_count_mismatch(self, rng):
        with pytest.raises(ShapeError):
            model.msc_loss([self._logits(rng)[:2]], [np.array([0, 1])], model.MSCConfig(mu_g=1.0, mu_m=0.0))

    def test_task_count_mismatch(self, rng):
        # zip would otherwise drop the task without a target, or the third task's logits
        z, y = self._logits(rng), np.array([0, 1])
        for logits, targets in (([z, z], [y]), ([], []), ([z, z, z], [y, y, y])):
            with pytest.raises(ShapeError):
                model.msc_loss(logits, targets, model.MSCConfig())


class TestGradientsThroughModel:
    def test_full_graph_check(self, rng):
        params = model.init_params(SMALL, seed=2)
        x = T.tensor(rng.random(size=(2, 3, 8, 8)))
        tg = np.array([0, 2])
        cfg = model.MSCConfig(mu_g=1.0, mu_m=0.0)

        def loss_fn():
            out = model.msc_forward(x, SMALL, params, 0)
            return model.msc_loss([out], [tg], cfg)

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
            assert np.array_equal(ckpt.params[name], p.data.astype(np.float32)), name

    def test_float32_training_matches_float64(self, tmp_path, monkeypatch):
        man = tile_dataset(tmp_path)
        x, _ = model.load_tiles(tile_dataset(tmp_path, per_class=20, seed=5, sub="held"), 8)
        hyper = model.TrainConfig(epochs=2, batch_size=8, lr=0.02, schedule=(), seed=1)
        c32, t32 = model.train(SMALL, [man], hyper)
        monkeypatch.setattr(model, "_trainable", lambda v: T.tensor(np.array(v, dtype=np.float64), requires_grad=True))
        c64, t64 = model.train(SMALL, [man], hyper)
        assert {p.dtype for p in c32.params.values()} == {np.dtype(np.float32)}
        assert {p.dtype for p in c64.params.values()} == {np.dtype(np.float64)}
        # the traces differed by at most 6e-8 over six seeds
        np.testing.assert_allclose(t32, t64, rtol=0, atol=F32_TRAIN_LOSS_TOLERANCE)
        p32, p64 = model.TileClassifier(c32).probs_batch(x), model.TileClassifier(c64).probs_batch(x)
        assert np.array_equal(p32.argmax(axis=1), p64.argmax(axis=1))

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

    def test_auxiliary_batches_match_main_and_wrap(self, tmp_path, monkeypatch):
        # 18 main tiles and 5 auxiliary tiles at batch 8: each step's auxiliary
        # batch is as large as the main one, and the positions wrap around the
        # auxiliary permutation, so every auxiliary tile is drawn 3 or 4 times
        man_g = tile_dataset(tmp_path, n_classes=3, per_class=6, sub="g")
        man_m = tile_dataset(tmp_path, n_classes=5, per_class=1, sub="m", seed=9)
        aux = model.BYTE_FLOATS[model.load_tiles(man_m, 8)[0]]  # the float32 tiles training sees
        cfg = model.BackboneConfig(input_size=8, stage_channels=(2, 3, 4), num_classes_per_task=(3, 5))
        batches = []
        forward = model.msc_forward

        def spy(image, *args):
            batches.append(image.data.copy())
            return forward(image, *args)

        monkeypatch.setattr(model, "msc_forward", spy)
        hyper = model.TrainConfig(epochs=1, batch_size=8, schedule=(), augment=False)
        model.train(cfg, [man_g, man_m], hyper)
        main, drawn = batches[0::2], batches[1::2]
        assert [len(b) for b in main] == [len(b) for b in drawn] == [8, 8, 2]
        counts = np.zeros(len(aux), dtype=int)
        for tile in np.concatenate(drawn):
            (hit,) = [i for i, a in enumerate(aux) if np.array_equal(a, tile)]
            counts[hit] += 1
        assert sorted(counts.tolist(), reverse=True) == [4, 4, 4, 3, 3]

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

    @pytest.mark.parametrize(
        "table", [{"label_ids": [-1, 2, 3]}, {"labels": ["a", "b"]}, {"label_ids": [1, 2]}, {"label_ids": [1.0, 2, 3]}]
    )
    def test_label_table_checked_before_tiles_load(self, tmp_path, monkeypatch, table):
        man = tile_dataset(tmp_path)
        loads = []
        monkeypatch.setattr(model, "load_tiles", lambda *args: loads.append(args))
        with pytest.raises(ConfigError, match="label"):
            model.train(SMALL, [man], model.TrainConfig(epochs=1), **table)
        assert loads == []

    def test_numpy_label_ids_kept_as_ints(self, tmp_path):
        man = tile_dataset(tmp_path)
        ids = np.array([4, 7, 9], dtype=np.int64)
        ckpt, _ = model.train(SMALL, [man], model.TrainConfig(epochs=1, batch_size=8), label_ids=ids)
        assert ckpt.label_ids == [4, 7, 9] and {type(i) for i in ckpt.label_ids} == {int}
        model.save_checkpoint(ckpt, tmp_path / "a.ckpt")
        assert model.load_checkpoint(tmp_path / "a.ckpt").label_ids == [4, 7, 9]

    def test_two_task_step_runs_each_task_heads_once(self, tmp_path, monkeypatch):
        # 16 main tiles at batch 8: two steps, each one forward per task
        man_g = tile_dataset(tmp_path, n_classes=4, per_class=4, sub="g")
        man_m = tile_dataset(tmp_path, n_classes=3, per_class=2, sub="m", seed=9)
        cfg = model.BackboneConfig(input_size=8, stage_channels=(2, 3, 4), num_classes_per_task=(4, 3))
        heads = []
        linear = T.linear

        def spy(x, w, b):
            heads.append(w)
            return linear(x, w, b)

        monkeypatch.setattr(T, "linear", spy)
        model.train(cfg, [man_g, man_m], model.TrainConfig(epochs=1, batch_size=8, schedule=()))
        assert len(heads) == 2 * 6
        assert [w.shape[0] for w in heads] == [4, 4, 4, 3, 3, 3] * 2

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

    @pytest.mark.parametrize("counts", [(0,), (-2,), (2.0,)])
    def test_bad_class_counts_are_config_errors(self, tmp_path, counts):
        # the backbone's own check, as for train
        base = self._base(tmp_path)
        man = tile_dataset(tmp_path, n_classes=4, sub="new")
        with pytest.raises(ConfigError, match="num_classes_per_task"):
            model.fine_tune(base, counts, [man])

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

    def test_params_float32_after_load(self, tmp_path):
        model.save_checkpoint(make_checkpoint(), tmp_path / "a.ckpt")
        back = model.load_checkpoint(tmp_path / "a.ckpt")
        assert {p.dtype for p in back.params.values()} == {np.dtype(np.float32)}
        assert all(p.flags.writeable for p in back.params.values())

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
        # a weight that is not a number is named as the field, stream_weights[0]
        with pytest.raises(FormatVersionError, match="stream[ _]weights"):
            model.load_checkpoint(p)

    @pytest.mark.parametrize(
        "section,key,value",
        [("config", "input_size", 8.0), ("config", "stage_channels", [2.0, 3, 4]), ("msc", "mu_g", True)],
    )
    def test_wrong_typed_config_in_header(self, tmp_path, section, key, value):
        # the dataclasses' type rule, as for a train config
        p = tmp_path / "a.ckpt"
        model.save_checkpoint(make_checkpoint(), p)
        rewrite_header(p, lambda h: h[section].update({key: value}))
        with pytest.raises(FormatVersionError, match=f"malformed header: config field '{key}"):
            model.load_checkpoint(p)

    def test_non_integer_label_ids_in_header(self, tmp_path):
        ckpt = make_checkpoint()
        p = tmp_path / "a.ckpt"
        model.save_checkpoint(ckpt, p)
        rewrite_header(p, lambda h: h.update(label_ids=["a", "b", "c"]))
        with pytest.raises(FormatVersionError, match="malformed header"):
            model.load_checkpoint(p)

    @pytest.mark.parametrize("ids,ok", [([0, 2, 2**31 - 1], True), ([1, 2, 2**31], False), ([1, 2, -5], False)])
    def test_label_ids_fit_int32_cells(self, tmp_path, ids, ok):
        ckpt = make_checkpoint()
        p = tmp_path / "a.ckpt"
        model.save_checkpoint(ckpt, p)
        rewrite_header(p, lambda h: h.update(label_ids=ids))
        if ok:
            assert model.load_checkpoint(p).label_ids == ids
        else:
            with pytest.raises(FormatVersionError, match=r"label ids must lie in \[0, 2\*\*31\)"):
                model.load_checkpoint(p)

    def test_label_table_size_mismatch(self, tmp_path):
        ckpt = make_checkpoint()
        p = tmp_path / "a.ckpt"
        model.save_checkpoint(ckpt, p)
        rewrite_header(p, lambda h: h.update(labels=["a", "b"], label_ids=[1, 2]))
        with pytest.raises(FormatVersionError):
            model.load_checkpoint(p)

    @pytest.mark.parametrize("ids", [[1, 2, 2**31], [1, 2, -1], [1, 2], [1, 2, 3.0], [1, 2, True]])
    def test_save_rejects_bad_label_ids(self, tmp_path, ids):
        ckpt = make_checkpoint()
        ckpt.label_ids = ids
        with pytest.raises(ConfigError, match="label"):
            model.save_checkpoint(ckpt, tmp_path / "x.ckpt")
        assert not (tmp_path / "x.ckpt").exists()

    def test_save_writes_numpy_label_ids_as_ints(self, tmp_path):
        ckpt = make_checkpoint()
        ckpt.label_ids = list(np.array([0, 5, 2**31 - 1], dtype=np.int64))
        model.save_checkpoint(ckpt, tmp_path / "a.ckpt")
        assert model.load_checkpoint(tmp_path / "a.ckpt").label_ids == [0, 5, 2**31 - 1]

    def test_save_rejects_wrong_params(self, tmp_path):
        ckpt = make_checkpoint()
        ckpt.params["stage1.conv1.w"] = np.zeros((9, 9))
        with pytest.raises(ConfigError):
            model.save_checkpoint(ckpt, tmp_path / "x.ckpt")


def stream_fusion_loops(clf, patches):
    """The stream fusion TileClassifier.probs_batch ran before it called
    fusion.fuse: softmax per stream, zeros, += each weighted stream, over
    the logits of the classifier's own float32 forward."""
    logits = model.msc_forward(T.tensor(patches.astype(np.float32)), clf.config, clf._params, 0)
    w = np.asarray(clf.msc.stream_weights)
    fused = np.zeros((patches.shape[0], clf.n_classes))
    for ws, z in zip(w, logits):
        fused += ws * T.softmax(z.data.astype(np.float64))
    return fused / w.sum()


DESK = model.BackboneConfig(input_size=32, stage_channels=(8, 16, 32), num_classes_per_task=(8,))
F32_TOLERANCE = 1e-5  # largest change of a fused probability from the float64 forward


def probs_float64(ckpt, patches):
    """The classifier's probabilities from the float64 autodiff forward;
    a tensor keeps float32 data in float32, so every input is cast."""
    params = {name: T.tensor(v.astype(np.float64)) for name, v in ckpt.params.items()}
    logits = model.msc_forward(T.tensor(patches.astype(np.float64)), ckpt.config, params, 0)
    return fuse(np.stack([T.softmax(z.data) for z in logits], axis=-2), ckpt.msc.stream_weights)


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

    def test_forward_builds_no_graph(self, monkeypatch):
        params = {name: t.data for name, t in model.init_params(SMALL, seed=0).items()}
        msc = model.MSCConfig(mu_g=1.0, mu_m=0.0)
        clf = model.TileClassifier(model.Checkpoint(SMALL, msc, ["a", "b", "c"], [1, 2, 3], params))
        outs = []
        forward = model.msc_forward

        def recording(*args):
            outs.append(forward(*args))
            return outs[-1]

        monkeypatch.setattr(model, "msc_forward", recording)
        clf.probs_batch(np.random.Generator(np.random.PCG64(0)).random((5, 3, 8, 8)))
        assert len(outs) == 1
        for z in outs[0]:
            assert z.data.dtype == np.float32
            assert not z.requires_grad and z._backward is None and z._parents == ()

    @pytest.mark.parametrize("cfg", [SMALL, DESK], ids=["small", "desk"])
    @pytest.mark.parametrize("batch", [1, 64, 65])
    def test_forward_bytes_equal_training_forward(self, cfg, batch):
        # the classifier's graph-free forward and training's graph-recording
        # forward are one code path; SMALL's last stage is 1x1, which takes
        # conv2d's sample-major branch
        params = {name: t.data.astype(np.float32) for name, t in model.init_params(cfg, seed=batch).items()}
        x = np.random.Generator(np.random.PCG64(batch)).random((batch, 3, cfg.input_size, cfg.input_size))
        x = x.astype(np.float32)
        traced = {name: T.tensor(v, requires_grad=True) for name, v in params.items()}
        want = model.msc_forward(T.tensor(x), cfg, traced, 0)
        bare = {name: T.tensor(v) for name, v in params.items()}
        got = model.msc_forward(T.tensor(x), cfg, bare, 0)
        for z_got, z_want in zip(got, want):
            assert z_want.requires_grad and z_want._backward is not None
            assert not z_got.requires_grad and z_got._backward is None
            assert z_got.data.dtype == z_want.data.dtype == np.float32
            assert z_got.data.tobytes() == z_want.data.tobytes()

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
        x = model.BYTE_FLOATS[model.load_tiles(man, 8)[0]]  # probs_float64 casts its input, so bytes go as floats
        self._check_float32(model.load_checkpoint(str(tmp_path / "m.ckpt")), x)

    def test_probs_batch_runs_in_window_chunks(self, monkeypatch):
        params = {name: t.data for name, t in model.init_params(DESK, seed=3).items()}
        msc = model.MSCConfig(mu_g=1.0, mu_m=0.0)
        clf = model.TileClassifier(model.Checkpoint(DESK, msc, list("abcdefgh"), list(range(1, 9)), params))
        x = np.random.Generator(np.random.PCG64(3)).random((130, 3, 32, 32)).astype(np.float32)
        monkeypatch.setattr(parser, "WINDOW_BATCH", 1000)
        whole = {n: clf.probs_batch(x[:n]) for n in (129, 130)}  # one forward pass each
        monkeypatch.undo()
        seen = []
        forward = model.msc_forward

        def recording(image, *args):
            seen.append(image.shape[0])
            return forward(image, *args)

        monkeypatch.setattr(model, "msc_forward", recording)
        for n, sizes in ((129, [64, 65]), (130, [64, 64, 2])):
            seen.clear()
            got = clf.probs_batch(x[:n])
            assert seen == sizes
            assert got.tobytes() == whole[n].tobytes()

    @pytest.mark.parametrize("cfg", [SMALL, DESK], ids=["small", "desk"])
    def test_bytes_give_the_float64_quotients_probabilities(self, cfg):
        params = {name: t.data for name, t in model.init_params(cfg, seed=4).items()}
        k = cfg.num_classes_per_task[0]
        clf = model.TileClassifier(model.Checkpoint(cfg, model.MSCConfig(mu_g=1.0, mu_m=0.0), list("abcdefgh")[:k], list(range(1, k + 1)), params))
        s = cfg.input_size
        # [B,s,s,3] bytes seen as [B,3,s,s], as build_grid_map gathers them
        x = np.random.Generator(np.random.PCG64(4)).integers(0, 256, size=(130, s, s, 3), dtype=np.uint8).transpose(0, 3, 1, 2)
        assert clf.probs_batch(x).tobytes() == clf.probs_batch(x.astype(np.float64) / 255.0).tobytes()

    def test_byte_table_is_the_rounded_quotient(self):
        assert model.BYTE_FLOATS.dtype == np.float32
        assert model.BYTE_FLOATS.tolist() == [float(np.float32(v / 255.0)) for v in range(256)]

    def test_float32_chunk_not_copied(self, monkeypatch):
        params = {name: t.data for name, t in model.init_params(SMALL, seed=0).items()}
        clf = model.TileClassifier(model.Checkpoint(SMALL, model.MSCConfig(mu_g=1.0, mu_m=0.0), ["a", "b", "c"], [1, 2, 3], params))
        x = np.random.Generator(np.random.PCG64(0)).random((5, 3, 8, 8)).astype(np.float32)
        seen = []
        forward = model.msc_forward

        def recording(image, *args):
            seen.append(image.data)
            return forward(image, *args)

        monkeypatch.setattr(model, "msc_forward", recording)
        clf.probs_batch(x)
        assert len(seen) == 1 and np.shares_memory(seen[0], x)

    def test_properties(self, tmp_path):
        ckpt, _ = self._trained(tmp_path)
        clf = model.TileClassifier(ckpt)
        assert clf.input_size == 8
        assert clf.n_classes == 3
        assert clf.label_ids == [1, 2, 3]


# the gate at the deep map's resolution against the upsample-first oracle:
# over 2-epoch runs of three seeds the loss moved by at most 2.4e-7 and a
# parameter by at most 3e-8
ATTN_ORDER_LOSS_ATOL = 1e-6
ATTN_ORDER_PARAM_ATOL = 1e-6
# where the deep map is 1x1 its conv takes the sample-major branch, whose
# BLAS sums can differ in the last bit from those of the upsampled 2x2 map
ATTN_ORDER_1X1_RTOL = {np.float32: 1e-5, np.float64: 1e-12}


class TestAttentionAtDeepResolution:
    @staticmethod
    def _logits(cfg, params, x, graph):
        traced = {n: T.tensor(v, requires_grad=graph) for n, v in params.items()}
        return [z.data for z in model.msc_forward(T.tensor(x), cfg, traced, 0)]

    @pytest.mark.parametrize("cfg", [SMALL, model.BackboneConfig(input_size=16, stage_channels=(4, 8, 8)), DESK],
                             ids=["small", "16px", "desk"])
    @pytest.mark.parametrize("batch", [1, 2, 65])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("graph", [False, True], ids=["no_graph", "graph"])
    def test_forward_matches_upsample_first(self, monkeypatch, cfg, batch, dtype, graph):
        params = {n: t.data.astype(dtype) for n, t in model.init_params(cfg, seed=batch).items()}
        x = np.random.Generator(np.random.PCG64(batch)).random((batch, 3, cfg.input_size, cfg.input_size)).astype(dtype)
        got = self._logits(cfg, params, x, graph)
        monkeypatch.setattr(model, "attention_fuse", attention_fuse_upsample_first)
        want = self._logits(cfg, params, x, graph)
        deep = cfg.input_size // np.prod(cfg.stage_strides)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == dtype
            if deep > 1:
                assert g.tobytes() == w.tobytes()
            else:
                np.testing.assert_allclose(g, w, rtol=ATTN_ORDER_1X1_RTOL[dtype], atol=0)

    @pytest.mark.parametrize(
        "cfg,per_class,batch,lr", [(SMALL, 6, 8, 0.02), (DESK, 8, 32, 0.01)], ids=["small", "desk"]
    )
    def test_training_within_tolerance(self, tmp_path, monkeypatch, cfg, per_class, batch, lr):
        k = cfg.num_classes_per_task[0]
        man = tile_dataset(tmp_path, n_classes=k, per_class=per_class, size=cfg.input_size)
        held_man = tile_dataset(tmp_path, n_classes=k, per_class=10, size=cfg.input_size, seed=50, sub="held")
        held = model.load_tiles(held_man, cfg.input_size)[0]
        hyper = model.TrainConfig(epochs=2, batch_size=batch, lr=lr, schedule=(), seed=0)
        got, got_trace = model.train(cfg, [man], hyper)
        monkeypatch.setattr(model, "attention_fuse", attention_fuse_upsample_first)
        want, want_trace = model.train(cfg, [man], hyper)
        np.testing.assert_allclose(got_trace, want_trace, rtol=0, atol=ATTN_ORDER_LOSS_ATOL)
        for name in want.params:
            np.testing.assert_allclose(got.params[name], want.params[name], rtol=0, atol=ATTN_ORDER_PARAM_ATOL, err_msg=name)
        pick = [model.TileClassifier(c).probs_batch(held).argmax(axis=1) for c in (got, want)]
        assert np.array_equal(*pick)


def augment_loop(batch, rng):
    """_augment_batch as it ran before its one gather, kept as a bit-exact
    oracle: a copy of the batch, then each tile flipped and turned in turn."""
    out = batch.copy()
    flips_h = rng.integers(0, 2, size=len(batch))
    flips_v = rng.integers(0, 2, size=len(batch))
    quarters = rng.integers(0, 4, size=len(batch))
    for i in range(len(batch)):
        x = out[i]
        if flips_h[i]:
            x = x[:, :, ::-1]
        if flips_v[i]:
            x = x[:, ::-1, :]
        if quarters[i]:
            x = np.rot90(x, k=int(quarters[i]), axes=(1, 2))
        out[i] = x
    return out


AUGMENT_SEEDS = range(5)


class TestAugmentBatch:
    @pytest.mark.parametrize("dtype", [np.uint8, np.float32])
    @pytest.mark.parametrize("seed", AUGMENT_SEEDS)
    def test_bytes_equal_loop_oracle(self, seed, dtype):
        batch = np.random.Generator(np.random.PCG64(100 + seed)).integers(0, 256, size=(64, 3, 8, 8)).astype(dtype)
        got_rng, want_rng = np.random.Generator(np.random.PCG64(seed)), np.random.Generator(np.random.PCG64(seed))
        got, want = model._augment_batch(batch, got_rng), augment_loop(batch, want_rng)
        assert got.dtype == want.dtype == dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state  # the same draws

    def test_seeds_draw_every_code(self):
        # over AUGMENT_SEEDS the oracle comparison meets each of the 16
        # (flip h, flip v, quarter turns) codes
        codes = set()
        for seed in AUGMENT_SEEDS:
            rng = np.random.Generator(np.random.PCG64(seed))
            h, v, q = (rng.integers(0, k, size=64) for k in (2, 2, 4))
            codes |= set((h * 8 + v * 4 + q).tolist())
        assert codes == set(range(16))


class TestTrainingMemory:
    def test_peak_does_not_grow_with_steps(self, tmp_path, monkeypatch):
        # backward releases each step's graph, so three steps peak where one
        # does; a loop that holds step t's graph through step t+1's forward
        # read 1.65 times the one-step peak
        man = tile_dataset(tmp_path, n_classes=8, per_class=12, size=32)
        first = DatasetManifest(man.samples[:32])
        monkeypatch.setattr(model, "HEAP_KEEP_BYTES", 0)  # its block is freed at once, and not the graph
        hyper = model.TrainConfig(epochs=1, batch_size=32, lr=0.002, schedule=(), seed=0)
        peaks = []
        for m in (first, man):
            tracemalloc.start()
            try:
                model.train(DESK, [m], hyper)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]


class TestLoadTiles:
    def test_tiles_stay_bytes(self, tmp_path):
        man = tile_dataset(tmp_path)
        x, y = model.load_tiles(man, 8)
        assert x.dtype == np.uint8 and x.shape == (18, 3, 8, 8)
        for tile, label, s in zip(x, y, man.samples):
            assert np.array_equal(tile, read_ppm(s.raster_path).transpose(2, 0, 1)) and label == s.fine_label

    def test_missing_file(self, tmp_path):
        from sceneparse.taxonomy import DatasetManifest, SceneSample

        man = DatasetManifest([SceneSample("a", str(tmp_path / "nope.ppm"), 0)])
        with pytest.raises(DataError):
            model.load_tiles(man, 8)

    def test_wrong_tile_size(self, tmp_path):
        man = tile_dataset(tmp_path, size=8)
        with pytest.raises(DataError):
            model.load_tiles(man, 16)
