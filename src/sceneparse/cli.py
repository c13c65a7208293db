"""Command-line pipeline driver.

Commands: synth, train, finetune, parse, segment, eval.  Configuration is
JSON; stdout carries human-readable logs and report files carry the
machine-readable results.

Exit codes: 0 success, 2 configuration error, 3 data/input error,
4 numeric failure (non-finite loss), 5 checkpoint or class-table
mismatch, 1 anything else.

Environment overrides (paths only):
  SCENEPARSE_DATA_ROOT  base directory for relative paths in config files
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import model, parser, segmentation, synthdata, taxonomy
from .errors import (
    ChecksumError,
    ConfigError,
    DataError,
    EmptyError,
    EmptyImageError,
    ExtentMismatchError,
    FormatVersionError,
    IncompatibleCheckpointError,
    IoError,
    LabelRangeError,
    LengthMismatchError,
    NumericError,
    ParseError,
    SceneParseError,
)
from .fusion import DEFAULT_SCALE_WEIGHTS
from .metrics import (
    accumulate_cm,
    average_accuracy,
    kappa,
    mean_average_precision,
    miou,
    multihot,
    multilabel_metrics,
    overall_accuracy,
)
from .netpbm import read_pgm, read_ppm, write_pgm, write_ppm

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_CHECKPOINT = 5

_CONFIG_ERRORS = (ConfigError,)
_DATA_ERRORS = (
    DataError,
    IoError,
    ParseError,
    EmptyImageError,
    ExtentMismatchError,
    LengthMismatchError,
    LabelRangeError,
    EmptyError,
)
_CHECKPOINT_ERRORS = (IncompatibleCheckpointError, FormatVersionError, ChecksumError)


def _exit_code(e: SceneParseError) -> int:
    if isinstance(e, _CHECKPOINT_ERRORS):
        return EXIT_CHECKPOINT
    if isinstance(e, NumericError):
        return EXIT_NUMERIC
    if isinstance(e, _DATA_ERRORS):
        return EXIT_DATA
    if isinstance(e, _CONFIG_ERRORS):
        return EXIT_CONFIG
    return 1


def _root_path(path: str) -> str:
    root = os.environ.get("SCENEPARSE_DATA_ROOT")
    if root and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


def _known_keys(cfg: dict, known: frozenset, where: str = "") -> dict:
    """cfg, if every key is one the command reads; a misspelt key would
    otherwise be ignored without a word."""
    unknown = sorted(set(cfg) - known)
    if unknown:
        names = ", ".join(repr(f"{where}{key}") for key in unknown)
        raise ConfigError(f"unknown config field {names}; known: {', '.join(sorted(known))}")
    return cfg


def _load_config(path: str, known: frozenset) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            cfg = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return _known_keys(cfg, known)


def _require(cfg: dict, field: str):
    if field not in cfg:
        raise ConfigError(f"config field {field!r} is missing")
    return cfg[field]


def _print_header(title: str, pairs: dict) -> None:
    print(f"[{title}]")
    for k, v in pairs.items():
        print(f"  {k} = {v}")


_NUMBER = (int, float)
_KIND_NAMES = {int: "an integer", _NUMBER: "a number", bool: "true or false", str: "a string"}


def _typed(value, kind, where: str):
    """value if it is of `kind`; a JSON boolean is never a number here."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise ConfigError(f"config field {where!r} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def _typed_list(value, kind, where: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"config field {where!r} must be a list, got {value!r}")
    return tuple(_typed(v, kind, f"{where}[{i}]") for i, v in enumerate(value))


def _optional(cfg: dict, key: str, check, kind):
    """cfg[key] passed through check(value, kind, key); absent or null is None."""
    value = cfg.get(key)
    return None if value is None else check(value, kind, key)


def _section(raw, name: str, known: frozenset) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"config field {name!r} must be an object, got {raw!r}")
    return _known_keys(raw, known, f"{name}.")


# the keys each config reader takes; any other key is a ConfigError
_MODEL_KEYS = frozenset({"input_size", "stage_channels", "stage_strides", "num_classes_per_task"})
_TRAIN_SECTION_KEYS = frozenset(
    {"epochs", "batch_size", "lr", "momentum", "weight_decay", "schedule", "seed", "augment"}
)
_MSC_KEYS = frozenset({"stream_weights", "mu_g", "mu_m"})
_TRAIN_KEYS = frozenset(
    {"model", "train", "msc", "manifests", "labels", "label_ids", "out_checkpoint", "out_trace"}
)
_FINETUNE_KEYS = frozenset(
    {"base_checkpoint", "num_classes_per_task", "train", "msc", "manifests", "labels", "label_ids", "out_checkpoint"}
)
_PARSE_KEYS = frozenset(
    {"window_sizes", "stride", "scale_weights", "k", "min_size", "target_count", "expected_labels"}
)


def _backbone_config(raw) -> model.BackboneConfig:
    raw = _section(raw, "model", _MODEL_KEYS)
    return model.BackboneConfig(
        input_size=_typed(_require(raw, "input_size"), int, "model.input_size"),
        stage_channels=_typed_list(raw.get("stage_channels", (8, 16, 32)), int, "model.stage_channels"),
        stage_strides=_typed_list(raw.get("stage_strides", (2, 2, 2)), int, "model.stage_strides"),
        num_classes_per_task=_typed_list(raw.get("num_classes_per_task", (8,)), int, "model.num_classes_per_task"),
    )


def _schedule(value) -> tuple:
    if not isinstance(value, (list, tuple)) or any(not isinstance(st, (list, tuple)) or len(st) != 2 for st in value):
        raise ConfigError(f"config field 'train.schedule' must be a list of [epoch, divisor] pairs, got {value!r}")
    return tuple(
        (_typed(e, int, f"train.schedule[{i}][0]"), _typed(d, _NUMBER, f"train.schedule[{i}][1]"))
        for i, (e, d) in enumerate(value)
    )


def _train_config(raw, lr_default: float = 0.01, epochs_default: int = 50) -> model.TrainConfig:
    raw = _section(raw, "train", _TRAIN_SECTION_KEYS)
    return model.TrainConfig(
        epochs=_typed(raw.get("epochs", epochs_default), int, "train.epochs"),
        batch_size=_typed(raw.get("batch_size", 32), int, "train.batch_size"),
        lr=_typed(raw.get("lr", lr_default), _NUMBER, "train.lr"),
        momentum=_typed(raw.get("momentum", 0.9), _NUMBER, "train.momentum"),
        weight_decay=_typed(raw.get("weight_decay", 0.005), _NUMBER, "train.weight_decay"),
        schedule=_schedule(raw.get("schedule", ((20, 10.0), (40, 10.0)))),
        seed=_typed(raw.get("seed", 0), int, "train.seed"),
        augment=_typed(raw.get("augment", True), bool, "train.augment"),
    )


def _msc_config(raw, n_tasks: int) -> model.MSCConfig:
    raw = _section(raw, "msc", _MSC_KEYS)
    if raw:
        return model.MSCConfig(
            stream_weights=_typed_list(raw.get("stream_weights", DEFAULT_SCALE_WEIGHTS), _NUMBER, "msc.stream_weights"),
            mu_g=_typed(raw.get("mu_g", 0.5 if n_tasks == 2 else 1.0), _NUMBER, "msc.mu_g"),
            mu_m=_typed(raw.get("mu_m", 0.5 if n_tasks == 2 else 0.0), _NUMBER, "msc.mu_m"),
        )
    if n_tasks == 2:
        return model.MSCConfig()
    return model.MSCConfig(mu_g=1.0, mu_m=0.0)


def _train_header(hyper: model.TrainConfig, msc: model.MSCConfig) -> dict:
    return {
        "epochs": hyper.epochs,
        "batch_size": hyper.batch_size,
        "lr": hyper.lr,
        "momentum": hyper.momentum,
        "weight_decay": hyper.weight_decay,
        "schedule": list(hyper.schedule),
        "seed": hyper.seed,
        "augment": hyper.augment,
        "stream_weights": list(msc.stream_weights),
        "mu_g": msc.mu_g,
        "mu_m": msc.mu_m,
    }


def _print_epoch(epoch: int, mean_loss: float) -> None:
    print(f"epoch {epoch}: mean loss {mean_loss:.6f}", flush=True)


def cmd_train(args) -> int:
    cfg = _load_config(args.config, _TRAIN_KEYS)
    bb = _backbone_config(_require(cfg, "model"))
    manifest_paths = [_root_path(p) for p in _require(cfg, "manifests")]
    manifests = [taxonomy.load_manifest(p) for p in manifest_paths]
    hyper = _train_config(cfg.get("train", {}))
    msc = _msc_config(cfg.get("msc", {}), len(manifests))
    out_path = _root_path(_require(cfg, "out_checkpoint"))
    _print_header("train", {**_train_header(hyper, msc), "manifests": manifest_paths, "out": out_path})

    ckpt, trace = model.train(
        bb, manifests, hyper, msc=msc, labels=cfg.get("labels"), label_ids=cfg.get("label_ids"), on_epoch=_print_epoch
    )
    model.save_checkpoint(ckpt, out_path)
    print(f"checkpoint written: {out_path}")
    if cfg.get("out_trace"):
        trace_path = _root_path(cfg["out_trace"])
        with open(trace_path, "w", encoding="utf-8") as f:
            json.dump({"loss_trace": trace}, f)
        print(f"loss trace written: {trace_path}")
    return EXIT_OK


def cmd_finetune(args) -> int:
    cfg = _load_config(args.config, _FINETUNE_KEYS)
    base = model.load_checkpoint(_root_path(_require(cfg, "base_checkpoint")))
    manifest_paths = [_root_path(p) for p in _require(cfg, "manifests")]
    manifests = [taxonomy.load_manifest(p) for p in manifest_paths]
    new_classes = _typed_list(_require(cfg, "num_classes_per_task"), int, "num_classes_per_task")
    hyper = _train_config(cfg.get("train", {}), lr_default=model.FINE_TUNE_LR)
    if "schedule" not in cfg.get("train", {}):
        hyper = model.TrainConfig(
            epochs=hyper.epochs,
            batch_size=hyper.batch_size,
            lr=hyper.lr,
            momentum=hyper.momentum,
            weight_decay=hyper.weight_decay,
            schedule=(),
            seed=hyper.seed,
            augment=hyper.augment,
        )
    msc = _msc_config(cfg.get("msc", {}), len(manifests))
    out_path = _root_path(_require(cfg, "out_checkpoint"))
    _print_header("finetune", {**_train_header(hyper, msc), "base": cfg["base_checkpoint"], "out": out_path})

    ckpt, _ = model.fine_tune(
        base,
        new_classes,
        manifests,
        hyper=hyper,
        msc=msc,
        labels=cfg.get("labels"),
        label_ids=cfg.get("label_ids"),
        on_epoch=_print_epoch,
    )
    model.save_checkpoint(ckpt, out_path)
    print(f"checkpoint written: {out_path}")
    return EXIT_OK


def cmd_synth(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    classes = synthdata.default_texture_classes(args.classes, noise_sigma=args.noise)
    if args.kind == "scene":
        layout = (
            synthdata.VoronoiLayout(n_points=args.points)
            if args.layout == "voronoi"
            else synthdata.GridLayout(rows=args.rows, cols=args.cols)
        )
        spec = synthdata.SceneSpec(classes=classes, layout=layout, height=args.size, width=args.size)
        _print_header(
            "synth scene",
            {"classes": args.classes, "size": args.size, "layout": args.layout, "seed": args.seed},
        )
        rgb, truth = synthdata.generate_scene_raster(spec, args.seed)
        scene_path = os.path.join(args.out_dir, "scene.ppm")
        truth_path = os.path.join(args.out_dir, "truth.pgm")
        write_ppm(scene_path, rgb)
        write_pgm(truth_path, truth.astype(np.uint8))
        print(f"scene written: {scene_path}")
        print(f"truth written: {truth_path}")
        return EXIT_OK

    counts = [args.per_class] * args.classes
    if args.long_tail_exponent is not None:
        counts = synthdata.long_tail_counts(args.classes, args.per_class * args.classes, args.long_tail_exponent)
    spec = synthdata.SceneSpec(
        classes=classes,
        layout=synthdata.GridLayout(rows=1, cols=args.classes),
        height=args.tile_size,
        width=args.tile_size * args.classes,
    )
    _print_header(
        "synth tiles",
        {"classes": args.classes, "counts": counts, "tile_size": args.tile_size, "seed": args.seed},
    )
    manifest = synthdata.generate_tile_dataset(spec, counts, args.tile_size, args.seed, args.out_dir)
    manifest_path = os.path.join(args.out_dir, "manifest.tsv")
    taxonomy.write_manifest(manifest_path, manifest)
    print(f"{len(manifest.samples)} tiles written: {args.out_dir}")
    print(f"manifest written: {manifest_path}")
    return EXIT_OK


def cmd_segment(args) -> int:
    image = read_ppm(args.input)
    _print_header(
        "segment",
        {"input": args.input, "k": args.k, "min_size": args.min_size, "target_count": args.target_count},
    )
    rm = segmentation.graph_segment(image, args.k, args.min_size)
    if args.target_count is not None:
        rm = segmentation.merge_regions(image, rm, args.target_count)
    segmentation.write_region_map(args.output, rm)
    print(f"{rm.region_count} regions written: {args.output}")
    return EXIT_OK


def cmd_parse(args) -> int:
    raster = read_ppm(args.input)
    if args.oracle_truth:
        truth = read_pgm(args.oracle_truth).astype(np.int32)
        if truth.shape != raster.shape[:2]:
            raise ExtentMismatchError(f"oracle truth {truth.shape} vs raster {raster.shape[:2]}")
        classifier = parser.OracleClassifier(truth)
    else:
        if not args.checkpoint:
            raise ConfigError("either --checkpoint or --oracle-truth is required")
        classifier = model.TileClassifier(model.load_checkpoint(_root_path(args.checkpoint)))

    cfg = {}
    if args.config:
        cfg = _load_config(args.config, _PARSE_KEYS)
    pcfg = parser.ParseConfig(
        window_sizes=_optional(cfg, "window_sizes", _typed_list, int),
        stride=_optional(cfg, "stride", _typed, int),
        scale_weights=_optional(cfg, "scale_weights", _typed_list, _NUMBER),
        k=_typed(cfg.get("k", segmentation.DEFAULT_K), _NUMBER, "k"),
        min_size=_typed(cfg.get("min_size", segmentation.DEFAULT_MIN_SIZE), int, "min_size"),
        target_count=_optional(cfg, "target_count", _typed, int),
        keep_probs=args.dump_grid is not None,
        expected_labels=_optional(cfg, "expected_labels", _typed_list, str),
    )
    spec, stride, weights = parser.resolve_windows(classifier, pcfg)
    _print_header(
        "parse",
        {
            "input": args.input,
            "windows": list(spec.sizes),
            "stride": stride,
            "scale_weights": list(weights),
            "k": pcfg.k,
            "min_size": pcfg.min_size,
            "target_count": pcfg.target_count,
            "oracle": bool(args.oracle_truth),
        },
    )

    labels, grid, regions = parser.parse_image(raster, classifier, pcfg)
    if labels.max() > 255:
        raise DataError(f"label id {labels.max()} does not fit 8-bit output")
    if args.dump_grid and grid.cell_labels.max() > 255:
        raise DataError(f"grid id {grid.cell_labels.max()} does not fit 8-bit output")
    write_pgm(args.output, labels.astype(np.uint8))
    print(f"label raster written: {args.output} ({regions.region_count} regions)")
    if args.dump_grid:
        write_pgm(args.dump_grid, grid.cell_labels.astype(np.uint8))
        meta = {
            "stride": grid.stride,
            "origin": grid.origin,
            "height": grid.height,
            "width": grid.width,
            "class_ids": grid.class_ids,
        }
        with open(args.dump_grid + ".meta", "w", encoding="utf-8") as f:
            json.dump(meta, f, sort_keys=True)
        print(f"grid map written: {args.dump_grid}")
    return EXIT_OK


def _read_label_tsv(path: str) -> dict[str, int]:
    out = {}
    try:
        with open(path, encoding="utf-8") as f:
            for ln, line in enumerate(f, start=1):
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                fields = line.split("\t")
                if len(fields) != 2:
                    raise DataError(f"{path}:{ln}: expected 'sample_id<TAB>label'")
                out[fields[0]] = int(fields[1])
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    return out


def _read_scores_tsv(path: str) -> tuple[list[str], np.ndarray]:
    ids, rows = [], []
    try:
        with open(path, encoding="utf-8") as f:
            for ln, line in enumerate(f, start=1):
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                fields = line.split("\t")
                if len(fields) < 2:
                    raise DataError(f"{path}:{ln}: expected 'sample_id<TAB>score...'")
                ids.append(fields[0])
                rows.append([float(x) for x in fields[1:]])
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    if not rows:
        raise DataError(f"{path}: no score rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DataError(f"{path}: ragged score rows")
    return ids, np.asarray(rows)


def _read_labelsets_tsv(path: str) -> dict[str, list[int]]:
    out = {}
    try:
        with open(path, encoding="utf-8") as f:
            for ln, line in enumerate(f, start=1):
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                fields = line.split("\t")
                if len(fields) != 2:
                    raise DataError(f"{path}:{ln}: expected 'sample_id<TAB>l1,l2,...'")
                out[fields[0]] = [int(x) for x in fields[1].split(",") if x != ""]
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    return out


def _write_report(path: str | None, report: dict) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(report, f, sort_keys=True, indent=2)
        print(f"report written: {path}")


def _print_metrics(report: dict) -> None:
    width = max(len(k) for k in report)
    for k, v in report.items():
        print(f"  {k:<{width}}  {v:.6f}" if isinstance(v, float) else f"  {k:<{width}}  {v}")


def cmd_eval(args) -> int:
    if args.mode == "pixel":
        pred = read_pgm(args.pred).astype(np.int64)
        truth = read_pgm(args.truth).astype(np.int64)
        if pred.shape != truth.shape:
            raise ExtentMismatchError(f"prediction {pred.shape} vs truth {truth.shape}")
        n = int(max(pred.max(), truth.max())) + 1
        _print_header("eval pixel", {"pred": args.pred, "truth": args.truth, "void": args.void, "classes": n})
        cm = accumulate_cm(pred.ravel(), truth.ravel(), n, void_id=args.void)
        report = {
            "OA": overall_accuracy(cm),
            "AA": average_accuracy(cm),
            "Kappa": kappa(cm),
            "mIoU": miou(cm),
        }
    elif args.mode == "tile":
        pred = _read_label_tsv(args.pred)
        truth = _read_label_tsv(args.truth)
        missing = sorted(set(truth) - set(pred))
        if missing:
            raise DataError(f"{len(missing)} samples missing predictions (first: {missing[0]})")
        ids = sorted(truth)
        p = np.asarray([pred[i] for i in ids])
        t = np.asarray([truth[i] for i in ids])
        n = int(max(p.max(), t.max())) + 1
        _print_header("eval tile", {"pred": args.pred, "truth": args.truth, "classes": n, "samples": len(ids)})
        cm = accumulate_cm(p, t, n)
        report = {"OA": overall_accuracy(cm), "AA": average_accuracy(cm), "Kappa": kappa(cm)}
    else:
        ids, scores = _read_scores_tsv(args.scores)
        labelsets = _read_labelsets_tsv(args.truth)
        missing = sorted(set(ids) - set(labelsets))
        if missing:
            raise DataError(f"{len(missing)} samples missing truth (first: {missing[0]})")
        truths = multihot([labelsets[i] for i in ids], scores.shape[1])
        _print_header(
            "eval multilabel",
            {"scores": args.scores, "truth": args.truth, "tau": args.tau, "samples": len(ids), "labels": scores.shape[1]},
        )
        report = dict(multilabel_metrics(scores, truths, tau=args.tau))
        report["mAP"] = mean_average_precision(scores, truths)

    _print_metrics(report)
    _write_report(args.report, report)
    return EXIT_OK


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sceneparse",
        description="Aerial scene parsing pipeline: synthesize data, train "
        "tile classifiers, segment rasters, and produce semantic maps.",
        epilog="Exit codes: 0 ok, 2 config error, 3 data error, 4 numeric "
        "error, 5 checkpoint/class-table mismatch.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate synthetic scenes or tile datasets")
    sp.add_argument("--kind", choices=("scene", "tiles"), required=True)
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--classes", type=int, default=4)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--noise", type=float, default=12.0)
    sp.add_argument("--size", type=int, default=512, help="scene side length")
    sp.add_argument("--layout", choices=("voronoi", "grid"), default="voronoi")
    sp.add_argument("--points", type=int, default=8, help="voronoi seed points")
    sp.add_argument("--rows", type=int, default=2)
    sp.add_argument("--cols", type=int, default=2)
    sp.add_argument("--per-class", type=int, default=200)
    sp.add_argument("--tile-size", type=int, default=32)
    sp.add_argument("--long-tail-exponent", type=float, default=None)
    sp.set_defaults(func=cmd_synth)

    tp = sub.add_parser("train", help="train a tile classifier from a JSON config")
    tp.add_argument("--config", required=True)
    tp.set_defaults(func=cmd_train)

    fp = sub.add_parser("finetune", help="fine-tune a checkpoint on new tasks (default lr 0.001)")
    fp.add_argument("--config", required=True)
    fp.set_defaults(func=cmd_finetune)

    gp = sub.add_parser("segment", help="class-agnostic over-segmentation of a P6 raster")
    gp.add_argument("--input", required=True)
    gp.add_argument("--output", required=True)
    gp.add_argument("--k", type=float, default=segmentation.DEFAULT_K)
    gp.add_argument("--min-size", type=int, default=segmentation.DEFAULT_MIN_SIZE)
    gp.add_argument("--target-count", type=int, default=None)
    gp.set_defaults(func=cmd_segment)

    pp = sub.add_parser("parse", help="parse a raster into a semantic label map")
    pp.add_argument("--input", required=True)
    pp.add_argument("--output", required=True)
    pp.add_argument("--checkpoint")
    pp.add_argument("--oracle-truth", help="use a ground-truth raster as the classifier")
    pp.add_argument("--config", help="JSON pipeline config (windows, stride, segmentation)")
    pp.add_argument("--dump-grid", help="also write the semantic grid map (P5 + .meta)")
    pp.set_defaults(func=cmd_parse)

    ep = sub.add_parser("eval", help="evaluate predictions against ground truth")
    ep.add_argument("--mode", choices=("pixel", "tile", "multilabel"), required=True)
    ep.add_argument("--pred", help="P5 raster (pixel) or TSV labels (tile)")
    ep.add_argument("--truth", required=True)
    ep.add_argument("--scores", help="TSV confidence rows (multilabel)")
    ep.add_argument("--void", type=int, default=0, help="label id excluded from pixel evaluation")
    ep.add_argument("--tau", type=float, default=0.5)
    ep.add_argument("--report", help="write metrics as JSON")
    ep.set_defaults(func=cmd_eval)
    return ap


def main(argv=None) -> int:
    ap = build_arg_parser()
    args = ap.parse_args(argv)
    if args.command == "eval":
        if args.mode in ("pixel", "tile") and not args.pred:
            ap.error("--pred is required for pixel/tile mode")
        if args.mode == "multilabel" and not args.scores:
            ap.error("--scores is required for multilabel mode")
    try:
        return args.func(args)
    except SceneParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return _exit_code(e)


if __name__ == "__main__":
    sys.exit(main())
