import json
import os
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from sceneparse import cli
from sceneparse.netpbm import read_pgm, write_pgm, write_ppm


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared scene, tile dataset, and trained checkpoint."""
    d = tmp_path_factory.mktemp("cliwork")
    assert (
        run(
            "synth", "--kind", "scene", "--out-dir", str(d / "scene"),
            "--classes", "3", "--size", "64", "--points", "5", "--seed", "2",
        )
        == 0
    )
    assert (
        run(
            "synth", "--kind", "tiles", "--out-dir", str(d / "tiles"),
            "--classes", "3", "--per-class", "8", "--tile-size", "8", "--seed", "4",
        )
        == 0
    )
    cfg = {
        "model": {"input_size": 8, "stage_channels": [2, 3, 4], "num_classes_per_task": [3]},
        "train": {"epochs": 2, "batch_size": 8, "schedule": [], "seed": 0},
        "manifests": [str(d / "tiles" / "manifest.tsv")],
        "out_checkpoint": str(d / "m.ckpt"),
    }
    (d / "train.json").write_text(json.dumps(cfg))
    assert run("train", "--config", str(d / "train.json")) == 0
    return d


class TestSynth:
    def test_scene_outputs(self, workdir):
        assert (workdir / "scene" / "scene.ppm").exists()
        assert (workdir / "scene" / "truth.pgm").exists()
        truth = read_pgm(workdir / "scene" / "truth.pgm")
        assert set(np.unique(truth)) <= {1, 2, 3}

    def test_deterministic_rerun(self, tmp_path):
        for sub in ("a", "b"):
            assert (
                run(
                    "synth", "--kind", "scene", "--out-dir", str(tmp_path / sub),
                    "--classes", "2", "--size", "32", "--seed", "7",
                )
                == 0
            )
        assert (tmp_path / "a" / "scene.ppm").read_bytes() == (tmp_path / "b" / "scene.ppm").read_bytes()

    def test_long_tail(self, tmp_path, capsys):
        assert (
            run(
                "synth", "--kind", "tiles", "--out-dir", str(tmp_path),
                "--classes", "4", "--per-class", "10", "--tile-size", "8",
                "--long-tail-exponent", "1.0",
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "counts" in out
        manifest = (tmp_path / "manifest.tsv").read_text()
        assert len(manifest.splitlines()) == 40

    def test_huge_scene_exit_2_before_allocating(self, tmp_path, capsys):
        tracemalloc.start()
        try:
            code = run("synth", "--kind", "scene", "--out-dir", str(tmp_path), "--size", "100000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err.startswith("error: a 100000000x100000000 scene: ")
        assert peak < 2**20
        assert not (tmp_path / "scene.ppm").exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--kind", "tiles", "--tile-size", "1000"), "a 1000x1000 tile: "),
            (("--kind", "scene", "--size", "64", "--points", "100000"), "100000 voronoi points: "),
        ],
    )
    def test_sizes_checked_before_allocating(self, tmp_path, capsys, monkeypatch, argv, message):
        # with this machine's memory read as 16 MiB, so that a missed check
        # allocates about 100 MB and not the whole machine
        from sceneparse import errors

        monkeypatch.setattr(errors, "_physical_memory", lambda: 2**24)
        tracemalloc.start()
        try:
            code = run("synth", "--out-dir", str(tmp_path / "out"), *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert peak < 2**20
        assert os.listdir(tmp_path / "out") == []

    @pytest.mark.parametrize("kind", ["scene", "tiles"])
    def test_out_dir_is_a_file_exit_3(self, tmp_path, capsys, kind):
        (tmp_path / "f").write_text("")
        argv = ["--size", "16"] if kind == "scene" else ["--per-class", "1", "--tile-size", "4"]
        assert run("synth", "--kind", kind, "--out-dir", str(tmp_path / "f"), *argv) == 3
        assert f"cannot create {tmp_path / 'f'}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--kind", "scene", "--seed", "-1"), "seed must be >= 0, got -1"),
            (("--kind", "tiles", "--seed", "-1"), "seed must be >= 0, got -1"),
            (("--kind", "scene", "--noise", "nan"), "noise_sigma must be finite and >= 0, got nan"),
            (("--kind", "tiles", "--noise", "inf"), "noise_sigma must be finite and >= 0, got inf"),
            (("--kind", "tiles", "--long-tail-exponent", "nan"), "exponent must be finite and >= 0, got nan"),
            # 2 x 2**53 tiles: the float shares would no longer be exact; past 2**63 they looped for ever
            (("--kind", "tiles", "--classes", "2", "--per-class", str(2**52), "--long-tail-exponent", "1"),
             f"total {2**53} must be below 2**53"),
        ],
        ids=["seed-scene", "seed-tiles", "noise-nan", "noise-inf", "exponent-nan", "long-tail-total"],
    )
    def test_bad_value_exit_2(self, tmp_path, capsys, argv, message):
        code = run("synth", "--out-dir", str(tmp_path), "--size", "16", "--per-class", "1", "--tile-size", "4", *argv)
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert os.listdir(tmp_path) == []

    def test_tile_count_checked_against_free_space(self, tmp_path, capsys, monkeypatch):
        # 3 classes x 5 tiles of 4 px: 15 P6 files of an 11-byte header and 48 pixel bytes
        import types

        from sceneparse import files

        need = 15 * (len("P6\n4 4\n255\n") + 48)
        out = tmp_path / "t"
        argv = ["synth", "--kind", "tiles", "--out-dir", str(out), "--classes", "3", "--per-class", "5", "--tile-size", "4"]
        monkeypatch.setattr(files.shutil, "disk_usage", lambda p: types.SimpleNamespace(free=need - 1))
        assert run(*argv) == 3
        assert capsys.readouterr().err == f"error: 15 4x4 tiles: {need} bytes needed, {need - 1} free in {out}\n"
        assert os.listdir(out) == []
        monkeypatch.setattr(files.shutil, "disk_usage", lambda p: types.SimpleNamespace(free=need))
        assert run(*argv) == 0
        assert sum(f.stat().st_size for f in out.glob("*.ppm")) == need

    def test_huge_per_class_exit_3_before_writing(self, tmp_path, capsys):
        # no disk holds 10^15 tiles, and none is written before the check
        code = run("synth", "--kind", "tiles", "--out-dir", str(tmp_path), "--per-class", "1000000000000000", "--tile-size", "4")
        assert code == 3
        assert capsys.readouterr().err.startswith("error: 4000000000000000 4x4 tiles: ")
        assert os.listdir(tmp_path) == []

    def test_manifest_path_is_a_directory_exit_3(self, tmp_path, capsys):
        (tmp_path / "manifest.tsv").mkdir()
        argv = ["--classes", "2", "--per-class", "1", "--tile-size", "4"]
        assert run("synth", "--kind", "tiles", "--out-dir", str(tmp_path), *argv) == 3
        assert f"cannot write {tmp_path / 'manifest.tsv'}" in capsys.readouterr().err


# synth's integer flags, each with a range of values that it accepts
SYNTH_INTEGER_FLAGS = {
    "--size": (1, 64),
    "--tile-size": (1, 16),
    "--per-class": (0, 8),
    "--classes": (1, 10),
    "--points": (1, 16),
    "--rows": (1, 6),
    "--cols": (1, 6),
}


def test_synth_integer_arguments_never_escape(tmp_path_factory):
    """Any integers for synth's integer flags run, or exit 2 or 3; none ends
    in a traceback.  This machine's memory reads 4 MiB and the disk's free
    space 64 KiB, so that no example allocates or writes much."""
    import contextlib
    import io
    import types

    from hypothesis import given, settings
    from hypothesis import strategies as st

    from sceneparse import errors, files

    ints = [st.integers(lo, hi) | st.integers(-(2**70), 2**70) for lo, hi in SYNTH_INTEGER_FLAGS.values()]
    exponents = st.none() | st.floats(0, 4)  # --long-tail-exponent, which turns --per-class into a total

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["scene", "tiles"]), st.sampled_from(["voronoi", "grid"]), st.tuples(*ints), exponents)
    def check(kind, layout, values, exponent):
        argv = ["synth", "--kind", kind, "--layout", layout, "--out-dir", str(tmp_path_factory.mktemp("synth"))]
        for flag, value in zip(SYNTH_INTEGER_FLAGS, values):
            argv += [flag, str(value)]
        if exponent is not None:
            argv += ["--long-tail-exponent", str(exponent)]
        with (
            pytest.MonkeyPatch.context() as mp,
            contextlib.redirect_stdout(io.StringIO()),
            contextlib.redirect_stderr(io.StringIO()),
        ):
            mp.setattr(errors, "_physical_memory", lambda: 2**22)
            mp.setattr(files.shutil, "disk_usage", lambda p: types.SimpleNamespace(free=2**16))
            code = cli.main(argv)
        assert code in (0, 2, 3), (argv, code)

    check()


class TestTrain:
    def test_checkpoint_written(self, workdir):
        assert (workdir / "m.ckpt").exists()

    def test_header_printed(self, workdir, capsys):
        cfg = json.loads((workdir / "train.json").read_text())
        cfg["out_checkpoint"] = str(workdir / "m2.ckpt")
        (workdir / "t2.json").write_text(json.dumps(cfg))
        assert run("train", "--config", str(workdir / "t2.json")) == 0
        out = capsys.readouterr().out
        assert "[train]" in out
        assert "momentum = 0.9" in out
        assert "weight_decay = 0.005" in out
        assert "batch_size = 8" in out

    def test_header_prints_model_section(self, workdir, tmp_path, capsys):
        cfg = json.loads((workdir / "train.json").read_text())
        cfg["out_checkpoint"] = str(tmp_path / "h.ckpt")
        (tmp_path / "t.json").write_text(json.dumps(cfg))
        assert run("train", "--config", str(tmp_path / "t.json")) == 0
        out = capsys.readouterr().out.splitlines()
        for line in ("input_size = 8", "stage_channels = [2, 3, 4]", "stage_strides = [2, 2, 2]"):
            assert f"  {line}" in out
        assert "  num_classes_per_task = [3]" in out

    def test_epoch_lines_before_checkpoint(self, workdir, tmp_path, capsys):
        from sceneparse import model

        cfg = json.loads((workdir / "train.json").read_text())
        cfg["out_checkpoint"] = str(tmp_path / "e.ckpt")
        cfg["train"]["epochs"] = 3
        (tmp_path / "t.json").write_text(json.dumps(cfg))
        assert run("train", "--config", str(tmp_path / "t.json")) == 0
        out = capsys.readouterr().out.splitlines()
        trace = model.load_checkpoint(str(tmp_path / "e.ckpt")).meta["loss_trace"]
        want = [f"epoch {e}: mean loss {l:.6f}" for e, l in enumerate(trace)]
        assert len(want) == 3
        assert [l for l in out if l.startswith("epoch ")] == want
        # printed as each epoch ends, so before the checkpoint is written
        assert out.index(want[-1]) < out.index(f"checkpoint written: {tmp_path / 'e.ckpt'}")

    def test_deterministic_checkpoints(self, workdir):
        cfg = json.loads((workdir / "train.json").read_text())
        for name in ("d1.ckpt", "d2.ckpt"):
            cfg["out_checkpoint"] = str(workdir / name)
            (workdir / "td.json").write_text(json.dumps(cfg))
            assert run("train", "--config", str(workdir / "td.json")) == 0
        assert (workdir / "d1.ckpt").read_bytes() == (workdir / "d2.ckpt").read_bytes()

    def test_missing_field_exit_2(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_text(json.dumps({"model": {"input_size": 8}}))
        assert run("train", "--config", str(tmp_path / "bad.json")) == 2
        assert "manifests" in capsys.readouterr().err

    def test_invalid_json_exit_2(self, tmp_path):
        (tmp_path / "bad.json").write_text("{nope")
        assert run("train", "--config", str(tmp_path / "bad.json")) == 2

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("model", "input_size", "x"),
            ("model", "input_size", 8.0),
            ("model", "stage_channels", [2, "3", 4]),
            ("model", "num_classes_per_task", 3),
            ("train", "epochs", "2"),
            ("train", "batch_size", True),
            ("train", "lr", "0.01"),
            ("train", "schedule", [[2]]),
            ("train", "schedule", [["2", 10.0]]),
            ("train", "augment", 1),
            ("msc", "mu_g", None),
        ],
    )
    def test_wrong_type_exit_2(self, workdir, tmp_path, capsys, section, key, value):
        cfg = json.loads((workdir / "train.json").read_text())
        cfg.setdefault(section, {})[key] = value
        cfg["out_checkpoint"] = str(tmp_path / "x.ckpt")
        (tmp_path / "t.json").write_text(json.dumps(cfg))
        assert run("train", "--config", str(tmp_path / "t.json")) == 2
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize("weights", [[float("nan"), 0.5, 1.0], [0.5, 1.0], [0.25, 0.5, 1.0, 1.0]])
    def test_bad_stream_weights_exit_2(self, workdir, tmp_path, capsys, weights):
        cfg = json.loads((workdir / "train.json").read_text())
        cfg["msc"] = {"stream_weights": weights}
        cfg["out_checkpoint"] = str(tmp_path / "x.ckpt")
        (tmp_path / "t.json").write_text(json.dumps(cfg))
        assert run("train", "--config", str(tmp_path / "t.json")) == 2
        assert "stream weights" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()

    def test_non_object_sections_exit_2(self, workdir, tmp_path):
        good = json.loads((workdir / "train.json").read_text())
        for cfg in (5, {**good, "train": [1]}, {**good, "msc": "x"}):
            (tmp_path / "t.json").write_text(json.dumps(cfg))
            assert run("train", "--config", str(tmp_path / "t.json")) == 2

    @pytest.mark.parametrize(
        "section,key",
        [(None, "manifest"), (None, "out_checkpoints"), ("model", "input_sizes"), ("train", "epoch"), ("msc", "mu")],
    )
    def test_unknown_key_exit_2(self, workdir, tmp_path, capsys, section, key):
        cfg = json.loads((workdir / "train.json").read_text())
        cfg["out_checkpoint"] = str(tmp_path / "x.ckpt")
        (cfg if section is None else cfg.setdefault(section, {}))[key] = 1
        (tmp_path / "t.json").write_text(json.dumps(cfg))
        assert run("train", "--config", str(tmp_path / "t.json")) == 2
        name = key if section is None else f"{section}.{key}"
        assert f"unknown config field {name!r}" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize(
        "table,message",
        [
            ({"label_ids": [-1, 2, 3]}, "label ids must lie in [0, 2**31)"),
            ({"labels": ["a", "b"]}, "label table does not cover the main task's classes"),
        ],
    )
    def test_bad_label_table_exit_2_before_training(self, workdir, tmp_path, capsys, table, message):
        cfg = {**json.loads((workdir / "train.json").read_text()), **table}
        cfg["out_checkpoint"] = str(tmp_path / "x.ckpt")
        (tmp_path / "t.json").write_text(json.dumps(cfg))
        assert run("train", "--config", str(tmp_path / "t.json")) == 2
        out, err = capsys.readouterr()
        assert message in err
        assert not any(line.startswith("epoch ") for line in out.splitlines())
        assert not (tmp_path / "x.ckpt").exists()

    def test_missing_manifest_exit_3(self, workdir, tmp_path):
        cfg = {
            "model": {"input_size": 8, "stage_channels": [2, 3, 4], "num_classes_per_task": [3]},
            "manifests": [str(tmp_path / "nope.tsv")],
            "out_checkpoint": str(tmp_path / "x.ckpt"),
        }
        (tmp_path / "t.json").write_text(json.dumps(cfg))
        assert run("train", "--config", str(tmp_path / "t.json")) == 3

    def test_divergent_lr_exit_4(self, workdir, tmp_path):
        cfg = json.loads((workdir / "train.json").read_text())
        cfg["train"] = {"epochs": 8, "batch_size": 8, "lr": 1e6, "schedule": [], "seed": 0}
        cfg["out_checkpoint"] = str(tmp_path / "x.ckpt")
        (tmp_path / "t.json").write_text(json.dumps(cfg))
        with np.errstate(over="ignore", invalid="ignore"):
            assert run("train", "--config", str(tmp_path / "t.json")) == 4


class TestFinetune:
    def test_round_trip(self, workdir, tmp_path):
        cfg = {
            "base_checkpoint": str(workdir / "m.ckpt"),
            "num_classes_per_task": [3],
            "manifests": [str(workdir / "tiles" / "manifest.tsv")],
            "train": {"epochs": 1, "batch_size": 8, "seed": 1},
            "out_checkpoint": str(tmp_path / "ft.ckpt"),
        }
        (tmp_path / "ft.json").write_text(json.dumps(cfg))
        assert run("finetune", "--config", str(tmp_path / "ft.json")) == 0
        assert (tmp_path / "ft.ckpt").exists()

    def test_epoch_lines_before_checkpoint(self, workdir, tmp_path, capsys):
        from sceneparse import model

        cfg = {
            "base_checkpoint": str(workdir / "m.ckpt"),
            "num_classes_per_task": [3],
            "manifests": [str(workdir / "tiles" / "manifest.tsv")],
            "train": {"epochs": 2, "batch_size": 8, "seed": 1},
            "out_checkpoint": str(tmp_path / "ft.ckpt"),
        }
        (tmp_path / "ft.json").write_text(json.dumps(cfg))
        assert run("finetune", "--config", str(tmp_path / "ft.json")) == 0
        out = capsys.readouterr().out.splitlines()
        trace = model.load_checkpoint(str(tmp_path / "ft.ckpt")).meta["loss_trace"]
        want = [f"epoch {e}: mean loss {l:.6f}" for e, l in enumerate(trace)]
        assert [l for l in out if l.startswith("epoch ")] == want
        assert out.index(want[-1]) < out.index(f"checkpoint written: {tmp_path / 'ft.ckpt'}")

    def test_header_prints_heads_and_base_that_loaded(self, workdir, tmp_path, capsys, monkeypatch):
        # under SCENEPARSE_DATA_ROOT the header names the base file read, not the config's relative path
        monkeypatch.setenv("SCENEPARSE_DATA_ROOT", str(workdir))
        cfg = {
            "base_checkpoint": "m.ckpt",
            "num_classes_per_task": [3],
            "manifests": ["tiles/manifest.tsv"],
            "train": {"epochs": 1, "batch_size": 8, "seed": 1},
            "out_checkpoint": str(tmp_path / "ft.ckpt"),
        }
        (tmp_path / "ft.json").write_text(json.dumps(cfg))
        assert run("finetune", "--config", str(tmp_path / "ft.json")) == 0
        out = capsys.readouterr().out.splitlines()
        assert "  num_classes_per_task = [3]" in out
        assert f"  base = {workdir / 'm.ckpt'}" in out

    def test_bad_base_exit_5(self, workdir, tmp_path):
        trunc = tmp_path / "trunc.ckpt"
        trunc.write_bytes((workdir / "m.ckpt").read_bytes()[:64])
        cfg = {
            "base_checkpoint": str(trunc),
            "num_classes_per_task": [3],
            "manifests": [str(workdir / "tiles" / "manifest.tsv")],
            "out_checkpoint": str(tmp_path / "x.ckpt"),
        }
        (tmp_path / "ft.json").write_text(json.dumps(cfg))
        assert run("finetune", "--config", str(tmp_path / "ft.json")) == 5

    def test_wrong_type_exit_2(self, workdir, tmp_path, capsys):
        cfg = {
            "base_checkpoint": str(workdir / "m.ckpt"),
            "num_classes_per_task": "3",
            "manifests": [str(workdir / "tiles" / "manifest.tsv")],
            "train": {"epochs": 1, "batch_size": 8, "momentum": "0.9"},
            "out_checkpoint": str(tmp_path / "x.ckpt"),
        }
        for bad in ("num_classes_per_task", "train.momentum"):
            (tmp_path / "ft.json").write_text(json.dumps(cfg))
            assert run("finetune", "--config", str(tmp_path / "ft.json")) == 2
            assert bad in capsys.readouterr().err
            cfg["num_classes_per_task"] = [3]

    @pytest.mark.parametrize("section,key", [(None, "model"), (None, "out_trace"), ("train", "lr_decay")])
    def test_unknown_key_exit_2(self, workdir, tmp_path, capsys, section, key):
        # model and out_trace are train-only keys: finetune would ignore them
        cfg = {
            "base_checkpoint": str(workdir / "m.ckpt"),
            "num_classes_per_task": [3],
            "manifests": [str(workdir / "tiles" / "manifest.tsv")],
            "train": {"epochs": 1, "batch_size": 8},
            "out_checkpoint": str(tmp_path / "x.ckpt"),
        }
        (cfg if section is None else cfg[section])[key] = 1
        (tmp_path / "ft.json").write_text(json.dumps(cfg))
        assert run("finetune", "--config", str(tmp_path / "ft.json")) == 2
        name = key if section is None else f"{section}.{key}"
        assert f"unknown config field {name!r}" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()


class TestSegment:
    def test_constant_image_one_region(self, tmp_path, capsys):
        img = np.full((16, 16, 3), 99, dtype=np.uint8)
        write_ppm(tmp_path / "c.ppm", img)
        assert (
            run("segment", "--input", str(tmp_path / "c.ppm"), "--output", str(tmp_path / "r.pgm"))
            == 0
        )
        assert "1 regions" in capsys.readouterr().out
        assert (read_pgm(tmp_path / "r.pgm") == 0).all()

    def test_rerun_bit_identical(self, workdir, tmp_path):
        scene = str(workdir / "scene" / "scene.ppm")
        for name in ("r1.pgm", "r2.pgm"):
            assert run("segment", "--input", scene, "--output", str(tmp_path / name), "--min-size", "16") == 0
        assert (tmp_path / "r1.pgm").read_bytes() == (tmp_path / "r2.pgm").read_bytes()

    def test_unreadable_input_exit_3(self, tmp_path):
        assert run("segment", "--input", str(tmp_path / "no.ppm"), "--output", str(tmp_path / "r.pgm")) == 3

    def test_raster_beyond_memory_exit_2(self, tmp_path, capsys, monkeypatch):
        from sceneparse import errors, segmentation

        write_ppm(tmp_path / "c.ppm", np.full((16, 16, 3), 99, dtype=np.uint8))
        monkeypatch.setattr(errors, "_physical_memory", lambda: segmentation.SEGMENT_BYTES_PER_PX * 256 - 1)
        assert run("segment", "--input", str(tmp_path / "c.ppm"), "--output", str(tmp_path / "r.pgm")) == 2
        assert "segmenting 256 pixels" in capsys.readouterr().err
        assert not (tmp_path / "r.pgm").exists()

    @pytest.mark.parametrize("k", ["nan", "inf", "-inf"])
    def test_non_finite_k_exit_2(self, workdir, tmp_path, capsys, k):
        scene = str(workdir / "scene" / "scene.ppm")
        assert run("segment", "--input", scene, "--output", str(tmp_path / "r.pgm"), f"--k={k}") == 2
        assert "k must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "r.pgm").exists()


class TestParse:
    def test_trained_checkpoint(self, workdir, tmp_path):
        assert (
            run(
                "parse", "--input", str(workdir / "scene" / "scene.ppm"),
                "--output", str(tmp_path / "labels.pgm"),
                "--checkpoint", str(workdir / "m.ckpt"),
            )
            == 0
        )
        labels = read_pgm(tmp_path / "labels.pgm")
        assert labels.shape == (64, 64)
        assert set(np.unique(labels)) <= {1, 2, 3}

    def test_constant_image_single_label(self, workdir, tmp_path):
        img = np.full((32, 32, 3), 123, dtype=np.uint8)
        write_ppm(tmp_path / "c.ppm", img)
        assert (
            run(
                "parse", "--input", str(tmp_path / "c.ppm"),
                "--output", str(tmp_path / "labels.pgm"),
                "--checkpoint", str(workdir / "m.ckpt"),
            )
            == 0
        )
        assert len(np.unique(read_pgm(tmp_path / "labels.pgm"))) == 1

    def test_oracle_mode(self, workdir, tmp_path):
        (tmp_path / "p.json").write_text(json.dumps({"stride": 4, "min_size": 8}))
        assert (
            run(
                "parse", "--input", str(workdir / "scene" / "scene.ppm"),
                "--output", str(tmp_path / "labels.pgm"),
                "--oracle-truth", str(workdir / "scene" / "truth.pgm"),
                "--config", str(tmp_path / "p.json"),
            )
            == 0
        )
        truth = read_pgm(workdir / "scene" / "truth.pgm")
        labels = read_pgm(tmp_path / "labels.pgm")
        assert (labels == truth).mean() > 0.9

    def test_oracle_truth_extent_mismatch_exit_3(self, workdir, tmp_path, capsys):
        truth = read_pgm(workdir / "scene" / "truth.pgm")
        write_pgm(tmp_path / "small.pgm", truth[:32, :32])
        assert (
            run(
                "parse", "--input", str(workdir / "scene" / "scene.ppm"),
                "--output", str(tmp_path / "labels.pgm"),
                "--oracle-truth", str(tmp_path / "small.pgm"),
            )
            == 3
        )
        assert "oracle truth" in capsys.readouterr().err
        assert not (tmp_path / "labels.pgm").exists()

    def test_rerun_bit_identical(self, workdir, tmp_path):
        for name in ("l1.pgm", "l2.pgm"):
            assert (
                run(
                    "parse", "--input", str(workdir / "scene" / "scene.ppm"),
                    "--output", str(tmp_path / name),
                    "--checkpoint", str(workdir / "m.ckpt"),
                )
                == 0
            )
        assert (tmp_path / "l1.pgm").read_bytes() == (tmp_path / "l2.pgm").read_bytes()

    def test_dump_grid(self, workdir, tmp_path):
        assert (
            run(
                "parse", "--input", str(workdir / "scene" / "scene.ppm"),
                "--output", str(tmp_path / "labels.pgm"),
                "--checkpoint", str(workdir / "m.ckpt"),
                "--dump-grid", str(tmp_path / "grid.pgm"),
            )
            == 0
        )
        meta = json.loads((tmp_path / "grid.pgm.meta").read_text())
        grid = read_pgm(tmp_path / "grid.pgm")
        assert grid.shape == (
            (64 + meta["stride"] - 1) // meta["stride"],
            (64 + meta["stride"] - 1) // meta["stride"],
        )
        assert meta["class_ids"] == [1, 2, 3]

    @pytest.mark.parametrize(
        "spot,message",
        # one truth pixel of id 300 at a cell center: the region vote drops
        # that cell, so only the grid map holds an id that 8 bits cannot
        [((4, 4), "grid id 300"), ((slice(None), slice(None)), "label id 300")],
    )
    def test_id_over_8_bits_exit_3(self, tmp_path, capsys, spot, message):
        write_ppm(tmp_path / "s.ppm", np.full((16, 16, 3), 90, dtype=np.uint8))
        truth = np.ones((16, 16), dtype=np.int32)
        truth[spot] = 300
        write_pgm(tmp_path / "t.pgm", truth, maxval=65535)
        (tmp_path / "p.json").write_text(json.dumps({"window_sizes": [8], "stride": 8}))
        assert (
            run(
                "parse", "--input", str(tmp_path / "s.ppm"),
                "--output", str(tmp_path / "labels.pgm"),
                "--oracle-truth", str(tmp_path / "t.pgm"),
                "--config", str(tmp_path / "p.json"),
                "--dump-grid", str(tmp_path / "g.pgm"),
            )
            == 3
        )
        assert message in capsys.readouterr().err
        assert not (tmp_path / "labels.pgm").exists() and not (tmp_path / "g.pgm").exists()

    def test_class_probabilities_beyond_memory_exit_2(self, tmp_path, capsys, monkeypatch):
        # one truth pixel of 65535 makes a 65535-class oracle: 300 windows of
        # float64 probabilities need about 367 MB, the windows about 22 MB
        from sceneparse import errors, parser

        def no_call(*args):
            raise AssertionError("probs_batch ran")

        write_ppm(tmp_path / "s.ppm", np.full((256, 256, 3), 90, dtype=np.uint8))
        truth = np.ones((256, 256), dtype=np.int32)
        truth[100, 100] = 65535
        write_pgm(tmp_path / "t.pgm", truth, maxval=65535)
        monkeypatch.setattr(errors, "_physical_memory", lambda: 128 << 20)
        monkeypatch.setattr(parser.OracleClassifier, "probs_batch", no_call)
        assert (
            run(
                "parse", "--input", str(tmp_path / "s.ppm"),
                "--output", str(tmp_path / "labels.pgm"),
                "--oracle-truth", str(tmp_path / "t.pgm"),
            )
            == 2
        )
        err = capsys.readouterr().err
        assert err.startswith("error: grid: ") and "65535-class probabilities of 300 windows" in err
        assert not (tmp_path / "labels.pgm").exists()

    def test_unreadable_input_exit_3(self, workdir, tmp_path):
        assert (
            run(
                "parse", "--input", str(tmp_path / "no.ppm"),
                "--output", str(tmp_path / "x.pgm"),
                "--checkpoint", str(workdir / "m.ckpt"),
            )
            == 3
        )

    def test_corrupt_checkpoint_exit_5(self, workdir, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes((workdir / "m.ckpt").read_bytes()[:-7])
        assert (
            run(
                "parse", "--input", str(workdir / "scene" / "scene.ppm"),
                "--output", str(tmp_path / "x.pgm"),
                "--checkpoint", str(bad),
            )
            == 5
        )

    def test_bad_payload_count_exit_5(self, workdir, tmp_path, capsys):
        buf = (workdir / "m.ckpt").read_bytes()
        start = buf.index(b"\npayload ") + len(b"\npayload ")
        end = buf.index(b"\n", start)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(buf[:start] + b"xx" + buf[end:])
        assert (
            run(
                "parse", "--input", str(workdir / "scene" / "scene.ppm"),
                "--output", str(tmp_path / "x.pgm"),
                "--checkpoint", str(bad),
            )
            == 5
        )
        assert "payload" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value",
        [("window_sizes", 8), ("stride", "x"), ("scale_weights", [1, "a"]), ("k", "x"),
         ("min_size", 4.5), ("target_count", "3"), ("window_sizes", [8, "16"]), ("expected_labels", [1, 2, 3])],
    )
    def test_wrong_type_exit_2(self, workdir, tmp_path, capsys, key, value):
        (tmp_path / "p.json").write_text(json.dumps({key: value}))
        assert (
            run(
                "parse", "--input", str(workdir / "scene" / "scene.ppm"),
                "--output", str(tmp_path / "x.pgm"),
                "--oracle-truth", str(workdir / "scene" / "truth.pgm"),
                "--config", str(tmp_path / "p.json"),
            )
            == 2
        )
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("k", [float("nan"), float("inf")])
    def test_non_finite_k_exit_2(self, workdir, tmp_path, capsys, k):
        # Python's json writes and reads NaN and Infinity
        (tmp_path / "p.json").write_text(json.dumps({"k": k, "stride": 8}))
        assert (
            run(
                "parse", "--input", str(workdir / "scene" / "scene.ppm"),
                "--output", str(tmp_path / "x.pgm"),
                "--oracle-truth", str(workdir / "scene" / "truth.pgm"),
                "--config", str(tmp_path / "p.json"),
            )
            == 2
        )
        assert "k must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "x.pgm").exists()

    @pytest.mark.parametrize("key", ["min_size", "target_count"])
    def test_zero_segment_setting_exit_2(self, workdir, tmp_path, capsys, key):
        (tmp_path / "p.json").write_text(json.dumps({key: 0, "stride": 8}))
        assert (
            run(
                "parse", "--input", str(workdir / "scene" / "scene.ppm"),
                "--output", str(tmp_path / "x.pgm"),
                "--oracle-truth", str(workdir / "scene" / "truth.pgm"),
                "--config", str(tmp_path / "p.json"),
            )
            == 2
        )
        assert f"{key} must be >= 1" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.json"]

    @pytest.mark.parametrize("source", ["--oracle-truth", "--checkpoint"])
    def test_empty_window_sizes_exit_2(self, workdir, tmp_path, capsys, source):
        (tmp_path / "p.json").write_text(json.dumps({"window_sizes": []}))
        classifier = workdir / ("scene/truth.pgm" if source == "--oracle-truth" else "m.ckpt")
        assert (
            run(
                "parse", "--input", str(workdir / "scene" / "scene.ppm"),
                "--output", str(tmp_path / "x.pgm"),
                source, str(classifier),
                "--config", str(tmp_path / "p.json"),
            )
            == 2
        )
        assert "window sizes must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "x.pgm").exists()

    @pytest.mark.parametrize("key", ["windows", "K", "target", "workers"])
    def test_unknown_key_exit_2(self, workdir, tmp_path, capsys, key):
        (tmp_path / "p.json").write_text(json.dumps({"stride": 8, key: 1}))
        assert (
            run(
                "parse", "--input", str(workdir / "scene" / "scene.ppm"),
                "--output", str(tmp_path / "x.pgm"),
                "--oracle-truth", str(workdir / "scene" / "truth.pgm"),
                "--config", str(tmp_path / "p.json"),
            )
            == 2
        )
        assert f"unknown config field {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "x.pgm").exists()

    def test_header_shows_weights_that_ran(self, workdir, tmp_path, capsys):
        (tmp_path / "p.json").write_text(json.dumps({"window_sizes": [8, 16]}))
        assert (
            run(
                "parse", "--input", str(workdir / "scene" / "scene.ppm"),
                "--output", str(tmp_path / "x.pgm"),
                "--checkpoint", str(workdir / "m.ckpt"),
                "--config", str(tmp_path / "p.json"),
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "windows = [8, 16]" in out
        assert "stride = 4" in out
        assert "scale_weights = [1.0, 1.0]" in out

    def test_header_prints_expected_labels(self, workdir, tmp_path, capsys):
        (tmp_path / "p.json").write_text(json.dumps({"expected_labels": ["class_1", "class_2", "class_3"]}))
        assert (
            run(
                "parse", "--input", str(workdir / "scene" / "scene.ppm"),
                "--output", str(tmp_path / "x.pgm"),
                "--checkpoint", str(workdir / "m.ckpt"),
                "--config", str(tmp_path / "p.json"),
            )
            == 0
        )
        assert "  expected_labels = ['class_1', 'class_2', 'class_3']" in capsys.readouterr().out.splitlines()

    def test_class_table_mismatch_exit_5(self, workdir, tmp_path):
        cfg = {"expected_labels": ["river", "urban", "forest"]}
        (tmp_path / "p.json").write_text(json.dumps(cfg))
        assert (
            run(
                "parse", "--input", str(workdir / "scene" / "scene.ppm"),
                "--output", str(tmp_path / "x.pgm"),
                "--checkpoint", str(workdir / "m.ckpt"),
                "--config", str(tmp_path / "p.json"),
            )
            == 5
        )

    def test_missing_classifier_exit_2(self, workdir, tmp_path):
        assert (
            run(
                "parse", "--input", str(workdir / "scene" / "scene.ppm"),
                "--output", str(tmp_path / "x.pgm"),
            )
            == 2
        )

    @pytest.mark.parametrize("weights", [[float("nan"), 1, 1], [1, float("inf"), 1], [1e308, 1e308, 1e308]])
    def test_non_finite_scale_weights_exit_2(self, workdir, tmp_path, capsys, weights):
        (tmp_path / "p.json").write_text(json.dumps({"scale_weights": weights, "stride": 8}))
        assert (
            run(
                "parse", "--input", str(workdir / "scene" / "scene.ppm"),
                "--output", str(tmp_path / "x.pgm"),
                "--oracle-truth", str(workdir / "scene" / "truth.pgm"),
                "--config", str(tmp_path / "p.json"),
                "--dump-grid", str(tmp_path / "g.pgm"),
            )
            == 2
        )
        assert "finite positive scale weights" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.json"]

    def test_multilabel_head_checkpoint_exit_5(self, workdir, tmp_path, capsys):
        from tests.test_model import rewrite_header

        bad = tmp_path / "ml.ckpt"
        bad.write_bytes((workdir / "m.ckpt").read_bytes())
        rewrite_header(bad, lambda h: h["params"].extend([["ml.w", [5, 9]], ["ml.b", [5]]]))
        assert (
            run(
                "parse", "--input", str(workdir / "scene" / "scene.ppm"),
                "--output", str(tmp_path / "x.pgm"),
                "--checkpoint", str(bad),
            )
            == 5
        )
        assert "manifest" in capsys.readouterr().err
        assert not (tmp_path / "x.pgm").exists()


class TestEval:
    def test_pixel_perfect(self, workdir, tmp_path, capsys):
        truth = str(workdir / "scene" / "truth.pgm")
        report = tmp_path / "rep.json"
        assert run("eval", "--mode", "pixel", "--pred", truth, "--truth", truth, "--report", str(report)) == 0
        rep = json.loads(report.read_text())
        assert rep["OA"] == 1.0 and rep["Kappa"] == 1.0 and rep["mIoU"] == 1.0
        assert "OA" in capsys.readouterr().out

    def test_pixel_matches_metrics_module(self, workdir, tmp_path):
        from sceneparse import metrics

        truth = read_pgm(workdir / "scene" / "truth.pgm").astype(np.int64)
        pred = truth.copy()
        pred[pred == 1] = 2  # collapse one class
        write_pgm(tmp_path / "pred.pgm", pred.astype(np.uint8))
        report = tmp_path / "rep.json"
        assert (
            run(
                "eval", "--mode", "pixel", "--pred", str(tmp_path / "pred.pgm"),
                "--truth", str(workdir / "scene" / "truth.pgm"), "--report", str(report),
            )
            == 0
        )
        rep = json.loads(report.read_text())
        cm = metrics.accumulate_cm(pred.ravel(), truth.ravel(), 4, void_id=0)
        assert rep["OA"] == pytest.approx(metrics.overall_accuracy(cm), abs=1e-12)
        assert rep["Kappa"] == pytest.approx(metrics.kappa(cm), abs=1e-12)
        assert rep["mIoU"] == pytest.approx(metrics.miou(cm), abs=1e-12)

    def test_extent_mismatch_exit_3(self, workdir, tmp_path):
        small = np.ones((8, 8), dtype=np.uint8)
        write_pgm(tmp_path / "small.pgm", small)
        assert (
            run(
                "eval", "--mode", "pixel", "--pred", str(tmp_path / "small.pgm"),
                "--truth", str(workdir / "scene" / "truth.pgm"),
            )
            == 3
        )

    def test_tile_mode(self, tmp_path):
        (tmp_path / "pred.tsv").write_text("a\t0\nb\t1\nc\t1\n")
        (tmp_path / "truth.tsv").write_text("a\t0\nb\t1\nc\t0\n")
        report = tmp_path / "rep.json"
        assert (
            run(
                "eval", "--mode", "tile", "--pred", str(tmp_path / "pred.tsv"),
                "--truth", str(tmp_path / "truth.tsv"), "--report", str(report),
            )
            == 0
        )
        rep = json.loads(report.read_text())
        assert rep["OA"] == pytest.approx(2 / 3)

    @staticmethod
    def _dense_report(pred, truth, void_id, keys):
        """The report of a confusion matrix sized by the largest id, as eval
        built it before it kept only the ids present."""
        from sceneparse import metrics

        cm = metrics.accumulate_cm(pred, truth, int(max(pred.max(), truth.max())) + 1, void_id=void_id)
        every = {
            "OA": metrics.overall_accuracy,
            "AA": metrics.average_accuracy,
            "Kappa": metrics.kappa,
            "mIoU": metrics.miou,
        }
        return {k: every[k](cm) for k in keys}

    @pytest.mark.parametrize("void", [0, 7])
    def test_pixel_report_on_gapped_ids_equals_dense_matrix(self, tmp_path, void):
        rng = np.random.Generator(np.random.PCG64(5))
        ids = np.array([0, 3, 7, 200, 901, 4095])
        truth = rng.choice(ids[:5], size=(23, 31))  # 4095 only ever predicted
        pred = np.where(rng.random(truth.shape) < 0.6, truth, rng.choice(ids, size=truth.shape))
        write_pgm(tmp_path / "pred.pgm", pred.astype(np.uint16), maxval=65535)
        write_pgm(tmp_path / "truth.pgm", truth.astype(np.uint16), maxval=65535)
        report = tmp_path / "rep.json"
        argv = ["--pred", str(tmp_path / "pred.pgm"), "--truth", str(tmp_path / "truth.pgm")]
        assert run("eval", "--mode", "pixel", *argv, "--void", str(void), "--report", str(report)) == 0
        want = self._dense_report(pred, truth, void, ("OA", "AA", "Kappa", "mIoU"))
        cli._write_json(tmp_path / "want.json", want, sort_keys=True, indent=2)
        assert report.read_bytes() == (tmp_path / "want.json").read_bytes()

    def test_tile_report_on_gapped_ids_equals_dense_matrix(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(6))
        truth = rng.choice([0, 5, 90, 1000, 4097], size=300)
        pred = np.where(rng.random(300) < 0.5, truth, rng.choice([5, 90, 4097, 20000], size=300))
        for name, labels in (("pred", pred), ("truth", truth)):
            (tmp_path / f"{name}.tsv").write_text("".join(f"s{i}\t{v}\n" for i, v in enumerate(labels)))
        report = tmp_path / "rep.json"
        argv = ["--pred", str(tmp_path / "pred.tsv"), "--truth", str(tmp_path / "truth.tsv")]
        assert run("eval", "--mode", "tile", *argv, "--report", str(report)) == 0
        # the TSV rows are read in sorted sample-id order
        order = np.argsort([f"s{i}" for i in range(300)], kind="stable")
        want = self._dense_report(pred[order], truth[order], None, ("OA", "AA", "Kappa"))
        cli._write_json(tmp_path / "want.json", want, sort_keys=True, indent=2)
        assert report.read_bytes() == (tmp_path / "want.json").read_bytes()

    def test_pixel_id_65535_sizes_no_matrix_by_it(self, tmp_path, capsys):
        write_pgm(tmp_path / "m.pgm", np.array([[1, 65535]], dtype=np.uint16), maxval=65535)
        report = tmp_path / "rep.json"
        m = str(tmp_path / "m.pgm")
        tracemalloc.start()
        try:
            code = run("eval", "--mode", "pixel", "--pred", m, "--truth", m, "--report", str(report))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert "classes = 2" in capsys.readouterr().out
        assert json.loads(report.read_text())["OA"] == 1.0
        assert peak < 2**20  # a 65536^2 int64 matrix is 32 GiB

    @pytest.mark.parametrize("pred_id,code", [("1000000000000", 0), (str(2**63 - 1), 0), (str(2**63), 3), ("-1", 3)])
    def test_tile_huge_and_negative_ids(self, tmp_path, capsys, pred_id, code):
        (tmp_path / "pred.tsv").write_text(f"a\t{pred_id}\nb\t1\n")
        (tmp_path / "truth.tsv").write_text("a\t0\nb\t1\n")
        argv = ["--pred", str(tmp_path / "pred.tsv"), "--truth", str(tmp_path / "truth.tsv")]
        assert run("eval", "--mode", "tile", *argv) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err.startswith(f"error: {tmp_path / 'pred.tsv'}:1: ") and "[0, 2**63)" in captured.err
        else:
            assert "classes = 3" in captured.out

    def test_tile_missing_prediction_exit_3(self, tmp_path):
        (tmp_path / "pred.tsv").write_text("a\t0\n")
        (tmp_path / "truth.tsv").write_text("a\t0\nb\t1\n")
        assert (
            run(
                "eval", "--mode", "tile", "--pred", str(tmp_path / "pred.tsv"),
                "--truth", str(tmp_path / "truth.tsv"),
            )
            == 3
        )

    def test_multilabel_mode_and_tau_override(self, tmp_path):
        (tmp_path / "scores.tsv").write_text("a\t0.9\t0.6\nb\t0.2\t0.8\n")
        (tmp_path / "truth.tsv").write_text("a\t0,1\nb\t1\n")
        report = tmp_path / "rep.json"
        assert (
            run(
                "eval", "--mode", "multilabel", "--scores", str(tmp_path / "scores.tsv"),
                "--truth", str(tmp_path / "truth.tsv"), "--report", str(report),
            )
            == 0
        )
        rep = json.loads(report.read_text())
        assert rep["OR"] == 1.0
        # at tau 0.75 the 0.6 score for label 1 stops counting
        assert (
            run(
                "eval", "--mode", "multilabel", "--scores", str(tmp_path / "scores.tsv"),
                "--truth", str(tmp_path / "truth.tsv"), "--tau", "0.75",
                "--report", str(report),
            )
            == 0
        )
        rep2 = json.loads(report.read_text())
        assert rep2["OR"] < rep["OR"]
        assert "mAP" in rep2


class TestHelp:
    def test_exit_codes_documented(self, capsys):
        with pytest.raises(SystemExit):
            run("--help")
        out = " ".join(capsys.readouterr().out.split())
        for phrase in ("2 config error", "3 data error", "4 numeric error", "5 checkpoint"):
            assert phrase in out


class TestDataRoot:
    def test_relative_paths_resolved(self, workdir, tmp_path):
        cfg = {
            "model": {"input_size": 8, "stage_channels": [2, 3, 4], "num_classes_per_task": [3]},
            "train": {"epochs": 1, "batch_size": 8, "schedule": [], "seed": 0},
            "manifests": ["tiles/manifest.tsv"],
            "out_checkpoint": "root.ckpt",
        }
        (tmp_path / "t.json").write_text(json.dumps(cfg))
        os.environ["SCENEPARSE_DATA_ROOT"] = str(workdir)
        try:
            assert run("train", "--config", str(tmp_path / "t.json")) == 0
            assert (workdir / "root.ckpt").exists()
        finally:
            del os.environ["SCENEPARSE_DATA_ROOT"]


class TestMalformedInputs:
    """Bad text inputs exit with their error's code and name the file and line."""

    @pytest.mark.parametrize(
        "raw,message",
        [
            (b"P6\n1 1\n255", "header ends without the byte before the payload"),
            (b"P6\n1_0 1\n255\n" + bytes(30), "malformed netpbm header field b'1_0'"),  # int() reads 10
            (b"P6\n+1 1\n255\n" + bytes(3), "malformed netpbm header field b'+1'"),
            (b"P6\n2 2\n255\n" + bytes(11), "P6 payload too short"),
        ],
        ids=["no-separator", "underscore", "sign", "short"],
    )
    @pytest.mark.parametrize("command", ["segment", "parse"])
    def test_malformed_raster_exit_3(self, tmp_path, capsys, command, raw, message):
        (tmp_path / "in.ppm").write_bytes(raw)
        argv = [command, "--input", str(tmp_path / "in.ppm"), "--output", str(tmp_path / "out.pgm")]
        if command == "parse":
            write_pgm(tmp_path / "truth.pgm", np.ones((1, 1), dtype=np.uint8))
            argv += ["--oracle-truth", str(tmp_path / "truth.pgm")]
        assert run(*argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out.pgm").exists()

    @pytest.mark.parametrize(
        "raw,message",
        [
            (b"P5\n2 1\n65535\n\x00\x01\x00", "P5 payload too short"),
            (b"P5\n2 1\n65535", "header ends without the byte before the payload"),
            (b"P5\n2 1\n6_5535\n" + bytes(4), "malformed netpbm header field b'6_5535'"),
        ],
        ids=["16-bit-odd", "no-separator", "underscore"],
    )
    @pytest.mark.parametrize("bad", ["pred", "truth"])
    def test_malformed_label_raster_exit_3(self, tmp_path, capsys, raw, message, bad):
        write_pgm(tmp_path / "good.pgm", np.zeros((1, 2), dtype=np.uint16), maxval=65535)
        (tmp_path / "bad.pgm").write_bytes(raw)
        files = {"pred": tmp_path / "good.pgm", "truth": tmp_path / "good.pgm", bad: tmp_path / "bad.pgm"}
        assert run("eval", "--mode", "pixel", "--pred", str(files["pred"]), "--truth", str(files["truth"])) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "mode,name,text",
        [
            ("tile", "pred", b"a\t0\nb\tx\n"),
            ("tile", "truth", b"a\t0\n\xff\t1\n"),
            ("multilabel", "scores", b"a\t0.9\t0.6\nb\tzz\t0.8\n"),
            ("multilabel", "scores", b"a\t0.9\t0.6\n\xffb\t0.2\t0.8\n"),
            ("multilabel", "truth", b"a\t0,1\nb\t1,y\n"),
            ("multilabel", "truth", b"a\t0,1\nb\t\xff\n"),
        ],
    )
    def test_eval_tsv_exit_3(self, tmp_path, capsys, mode, name, text):
        files = {
            "pred": "a\t0\nb\t1\n",
            "scores": "a\t0.9\t0.6\nb\t0.2\t0.8\n",
            "truth": "a\t0\nb\t1\n" if mode == "tile" else "a\t0,1\nb\t1\n",
        }
        for key, good in files.items():
            (tmp_path / f"{key}.tsv").write_bytes(text if key == name else good.encode())
        source = "--pred" if mode == "tile" else "--scores"
        path = tmp_path / ("pred.tsv" if mode == "tile" else "scores.tsv")
        assert run("eval", "--mode", mode, source, str(path), "--truth", str(tmp_path / "truth.tsv")) == 3
        assert f"{tmp_path / name}.tsv:2: " in capsys.readouterr().err

    def test_empty_tile_truth_exit_3(self, tmp_path, capsys):
        (tmp_path / "pred.tsv").write_text("a\t0\n")
        (tmp_path / "truth.tsv").write_text("# no rows\n")
        pred, truth = str(tmp_path / "pred.tsv"), str(tmp_path / "truth.tsv")
        assert run("eval", "--mode", "tile", "--pred", pred, "--truth", truth) == 3
        assert "no label rows" in capsys.readouterr().err

    def test_unwritable_report_exit_3(self, tmp_path, capsys):
        (tmp_path / "p.tsv").write_text("a\t0\n")
        tsv, report = str(tmp_path / "p.tsv"), str(tmp_path / "nodir" / "r.json")
        assert run("eval", "--mode", "tile", "--pred", tsv, "--truth", tsv, "--report", report) == 3
        assert f"cannot write {report}" in capsys.readouterr().err

    def test_unwritable_trace_exit_3(self, workdir, tmp_path, capsys):
        cfg = json.loads((workdir / "train.json").read_text())
        cfg["train"]["epochs"] = 1
        cfg["out_checkpoint"] = str(tmp_path / "x.ckpt")
        cfg["out_trace"] = str(tmp_path / "nodir" / "t.json")
        (tmp_path / "t.json").write_text(json.dumps(cfg))
        assert run("train", "--config", str(tmp_path / "t.json")) == 3
        assert f"cannot write {cfg['out_trace']}" in capsys.readouterr().err

    def test_non_utf8_manifest_exit_3(self, workdir, tmp_path, capsys):
        (tmp_path / "m.tsv").write_bytes(b"# tiles\n\xfft0\tt0.ppm\t0\n")
        cfg = json.loads((workdir / "train.json").read_text())
        cfg["manifests"] = [str(tmp_path / "m.tsv")]
        cfg["out_checkpoint"] = str(tmp_path / "x.ckpt")
        (tmp_path / "t.json").write_text(json.dumps(cfg))
        assert run("train", "--config", str(tmp_path / "t.json")) == 3
        assert f"{tmp_path / 'm.tsv'}:2: " in capsys.readouterr().err

    def test_label_beyond_int64_manifest_exit_3(self, workdir, tmp_path, capsys):
        tile = workdir / "tiles" / "tile_00000.ppm"
        (tmp_path / "m.tsv").write_text(f"t0\t{tile}\t0\nt1\t{tile}\t{10**23}\n")
        cfg = json.loads((workdir / "train.json").read_text())
        cfg["manifests"] = [str(tmp_path / "m.tsv")]
        cfg["out_checkpoint"] = str(tmp_path / "x.ckpt")
        (tmp_path / "t.json").write_text(json.dumps(cfg))
        assert run("train", "--config", str(tmp_path / "t.json")) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'm.tsv'}:2: ") and "[0, 2**63)" in err

    def test_non_utf8_config_exit_2(self, tmp_path):
        (tmp_path / "t.json").write_bytes(b'{"model": "\xff"}')
        assert run("train", "--config", str(tmp_path / "t.json")) == 2

    @pytest.mark.parametrize("data", ['{"model": 1}'.encode("utf-16"), b'\xef\xbb\xbf{"model": 1}'])
    def test_utf16_or_bom_config_exit_2(self, tmp_path, capsys, data):
        # json.loads would take these bytes; a config is UTF-8 without a BOM
        (tmp_path / "t.json").write_bytes(data)
        assert run("train", "--config", str(tmp_path / "t.json")) == 2
        assert "is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,key,value,message",
        [
            ("train", "schedule", [[0, 0.0]], "schedule divisors"),
            ("train", "schedule", [[1, -10.0]], "schedule divisors"),
            ("train", "lr", float("nan"), "lr, momentum, weight_decay must be finite"),
            ("train", "weight_decay", float("inf"), "lr, momentum, weight_decay must be finite"),
            ("train", "seed", -1, "seed"),
            ("train", "momentum", 10**400, "train.momentum"),
            (None, "manifests", 5, "manifests"),
            (None, "labels", [1, 2, 3], "labels[0]"),
            (None, "out_checkpoint", ["x.ckpt"], "out_checkpoint"),
        ],
    )
    def test_bad_value_exit_2(self, workdir, tmp_path, capsys, section, key, value, message):
        cfg = json.loads((workdir / "train.json").read_text())
        cfg["out_checkpoint"] = str(tmp_path / "x.ckpt")
        (cfg if section is None else cfg[section])[key] = value
        (tmp_path / "t.json").write_text(json.dumps(cfg))
        assert run("train", "--config", str(tmp_path / "t.json")) == 2
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.json"]

    def test_finetune_base_checkpoint_must_be_a_path(self, workdir, tmp_path, capsys):
        cfg = {
            "base_checkpoint": [str(workdir / "m.ckpt")],
            "num_classes_per_task": [3],
            "manifests": [str(workdir / "tiles" / "manifest.tsv")],
            "out_checkpoint": str(tmp_path / "x.ckpt"),
        }
        (tmp_path / "ft.json").write_text(json.dumps(cfg))
        assert run("finetune", "--config", str(tmp_path / "ft.json")) == 2
        assert "'base_checkpoint' must be str" in capsys.readouterr().err

    def test_keep_probs_is_not_a_parse_key(self, workdir, tmp_path, capsys):
        (tmp_path / "p.json").write_text(json.dumps({"keep_probs": True}))
        assert (
            run(
                "parse", "--input", str(workdir / "scene" / "scene.ppm"),
                "--output", str(tmp_path / "x.pgm"),
                "--oracle-truth", str(workdir / "scene" / "truth.pgm"),
                "--config", str(tmp_path / "p.json"),
            )
            == 2
        )
        assert "unknown config field 'keep_probs'" in capsys.readouterr().err

    def test_huge_input_size_exit_3(self, workdir, tmp_path, capsys):
        # the tiles are read and checked before [M, 3, s, s] is allocated
        cfg = json.loads((workdir / "train.json").read_text())
        cfg["model"]["input_size"] = 2**40
        cfg["out_checkpoint"] = str(tmp_path / "x.ckpt")
        (tmp_path / "t.json").write_text(json.dumps(cfg))
        assert run("train", "--config", str(tmp_path / "t.json")) == 3
        assert f"expected {2**40}x{2**40}" in capsys.readouterr().err

    @pytest.mark.parametrize("exponent", [20, 40])
    def test_parse_huge_checkpoint_input_size_exit_2(self, workdir, tmp_path, capsys, exponent):
        # a checkpoint's parameters do not depend on its input size; its
        # windows are refused before they are gathered
        from sceneparse import model

        base = model.load_checkpoint(str(workdir / "m.ckpt"))
        cfg = model.BackboneConfig(**{**asdict(base.config), "input_size": 2**exponent})
        model.save_checkpoint(model.Checkpoint(cfg, base.msc, base.labels, base.label_ids, base.params),
                              str(tmp_path / "huge.ckpt"))
        assert (
            run(
                "parse", "--input", str(workdir / "scene" / "scene.ppm"),
                "--output", str(tmp_path / "x.pgm"),
                "--checkpoint", str(tmp_path / "huge.ckpt"),
            )
            == 2
        )
        assert f"grid: {2**exponent}x{2**exponent}-px windows" in capsys.readouterr().err

    @pytest.mark.parametrize("size", [2**20, 2**40])
    def test_oracle_parse_huge_smallest_window_exit_2(self, workdir, tmp_path, capsys, size):
        (tmp_path / "p.json").write_text(json.dumps({"window_sizes": [size]}))
        assert (
            run(
                "parse", "--input", str(workdir / "scene" / "scene.ppm"),
                "--output", str(tmp_path / "x.pgm"),
                "--oracle-truth", str(workdir / "scene" / "truth.pgm"),
                "--config", str(tmp_path / "p.json"),
            )
            == 2
        )
        assert f"grid: {size}x{size}-px windows" in capsys.readouterr().err

    @pytest.mark.parametrize("size,code", [(2**62, 0), (2**63 - 1, 0), (2**63, 2)])
    def test_huge_window_no_traceback(self, tmp_path, size, code):
        # the window index table grows with the classifier input, not the
        # window; a size beyond int64 is a config error
        assert run("synth", "--kind", "scene", "--out-dir", str(tmp_path / "s"), "--size", "32", "--seed", "1") == 0
        (tmp_path / "p.json").write_text(json.dumps({"window_sizes": [1, size]}))
        assert (
            run(
                "parse", "--input", str(tmp_path / "s" / "scene.ppm"),
                "--output", str(tmp_path / "x.pgm"),
                "--oracle-truth", str(tmp_path / "s" / "truth.pgm"),
                "--config", str(tmp_path / "p.json"),
            )
            == code
        )

    @pytest.mark.parametrize("stride,code", [(2**63 - 1, 0), (2**63, 2), (92233720368547758070, 2)])
    def test_huge_stride_no_traceback(self, tmp_path, capsys, stride, code):
        # one cell per axis up to the int64 limit; beyond it a config error
        assert run("synth", "--kind", "scene", "--out-dir", str(tmp_path / "s"), "--size", "32", "--seed", "1") == 0
        (tmp_path / "p.json").write_text(json.dumps({"window_sizes": [8], "stride": stride}))
        assert (
            run(
                "parse", "--input", str(tmp_path / "s" / "scene.ppm"),
                "--output", str(tmp_path / "x.pgm"),
                "--oracle-truth", str(tmp_path / "s" / "truth.pgm"),
                "--config", str(tmp_path / "p.json"),
            )
            == code
        )
        if code:
            assert "fit int64" in capsys.readouterr().err


def _error_classes():
    from sceneparse import errors

    return [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.SceneParseError)]


class TestExitCodes:
    @pytest.mark.parametrize("cls", _error_classes(), ids=lambda c: c.__name__)
    def test_exit_code_matches_the_old_mapping(self, monkeypatch, capsys, cls):
        from sceneparse import errors as E

        # cli.main's mapping before each error class carried its exit code, first match wins
        old = [
            ((E.IncompatibleCheckpointError, E.FormatVersionError, E.ChecksumError), 5),
            ((E.NumericError,), 4),
            (
                (E.DataError, E.IoError, E.ParseError, E.EmptyImageError, E.ExtentMismatchError,
                 E.LengthMismatchError, E.LabelRangeError, E.EmptyError),
                3,
            ),
            ((E.ConfigError,), 2),
        ]
        want = next((code for classes, code in old if issubclass(cls, classes)), 1)
        assert cls.exit_code == want

        def fail(args):
            raise cls("boom")

        monkeypatch.setattr(cli, "cmd_segment", fail)
        assert run("segment", "--input", "in.ppm", "--output", "out.pgm") == want
        assert capsys.readouterr().err == "error: boom\n"


class _ReadDone(Exception):
    """Raised in place of the pipeline step that follows reading a config."""


def _json_values():
    from hypothesis import strategies as st

    scalars = (
        st.integers()
        | st.just(10**400)
        | st.floats(allow_nan=True, allow_infinity=True)
        | st.booleans()
        | st.text(max_size=6)
        | st.none()
    )
    return st.recursive(
        scalars, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=8,
    )


def _read_only(argv, stubs):
    """cli.main(argv) with each (module, name) in stubs raising _ReadDone:
    (exit code, stderr), where reaching a stub counts as exit 0."""
    import contextlib
    import io

    def done(*args, **kwargs):
        raise _ReadDone

    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        for module, name in stubs:
            mp.setattr(module, name, done)
        try:
            code = cli.main(list(argv))
        except _ReadDone:
            code = 0
    return code, err.getvalue()


def _named(key: str, err: str) -> bool:
    return key in err or key.replace("_", " ") in err


TRAIN_KEYS = [
    ("model", k) for k in ("input_size", "stage_channels", "stage_strides", "num_classes_per_task")
] + [
    ("train", k) for k in ("epochs", "batch_size", "lr", "momentum", "weight_decay", "schedule", "seed", "augment")
] + [("msc", k) for k in ("stream_weights", "mu_g", "mu_m")] + [(None, "labels"), (None, "label_ids")]
FINETUNE_KEYS = [(s, k) for s, k in TRAIN_KEYS if s != "model"] + [(None, "num_classes_per_task")]
PARSE_KEYS = ["window_sizes", "stride", "scale_weights", "k", "min_size", "target_count", "expected_labels"]


class TestConfigProperties:
    """Any JSON value under a documented key is read, or rejected with exit 2
    naming the key; never a traceback.  Training and parsing are stubbed out,
    so only the reading runs."""

    @staticmethod
    def _put(cfg, section, key, value):
        (cfg if section is None else cfg.setdefault(section, {}))[key] = value
        return cfg

    def test_train_config(self, workdir):
        from hypothesis import given
        from hypothesis import strategies as st

        from sceneparse import model

        @given(st.sampled_from(TRAIN_KEYS), _json_values())
        def check(where, value):
            cfg = self._put(json.loads((workdir / "train.json").read_text()), *where, value)
            (workdir / "prop_train.json").write_text(json.dumps(cfg))
            code, err = _read_only(["train", "--config", str(workdir / "prop_train.json")], [(model, "train")])
            assert code == 0 or (code == 2 and _named(where[1], err)), (where, value, code, err)

        check()

    def test_finetune_config(self, workdir):
        from hypothesis import given
        from hypothesis import strategies as st

        from sceneparse import model

        base = {
            "base_checkpoint": str(workdir / "m.ckpt"),
            "num_classes_per_task": [3],
            "manifests": [str(workdir / "tiles" / "manifest.tsv")],
            "out_checkpoint": str(workdir / "prop_ft.ckpt"),
        }

        @given(st.sampled_from(FINETUNE_KEYS), _json_values())
        def check(where, value):
            cfg = self._put(json.loads(json.dumps(base)), *where, value)
            (workdir / "prop_ft.json").write_text(json.dumps(cfg))
            code, err = _read_only(["finetune", "--config", str(workdir / "prop_ft.json")], [(model, "fine_tune")])
            assert code == 0 or (code == 2 and _named(where[1], err)), (where, value, code, err)

        check()

    def test_parse_config(self, workdir):
        from hypothesis import given
        from hypothesis import strategies as st

        from sceneparse import parser

        @given(st.sampled_from(PARSE_KEYS), _json_values())
        def check(key, value):
            (workdir / "prop_parse.json").write_text(json.dumps({key: value}))
            argv = [
                "parse", "--input", str(workdir / "scene" / "scene.ppm"),
                "--output", str(workdir / "prop_parse.pgm"),
                "--oracle-truth", str(workdir / "scene" / "truth.pgm"),
                "--config", str(workdir / "prop_parse.json"),
            ]
            code, err = _read_only(argv, [(parser, "parse_image")])
            assert code == 0 or (code == 2 and _named(key, err)), (key, value, code, err)

        check()
