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
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import model, parser, segmentation, synthdata, taxonomy
from .errors import ConfigError, DataError, ExtentMismatchError, IoError, SceneParseError, check_fields
from .files import read_file, read_records, write_file
from .metrics import (
    ConfusionMatrix,
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


def _root_path(path: str) -> str:
    root = os.environ.get("SCENEPARSE_DATA_ROOT")
    if root and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


def _load_config(path: str) -> dict:
    try:
        # decoded here: json.loads of bytes would also take UTF-16/32 and a BOM
        cfg = json.loads(read_file(path).decode("utf-8"))
    except IoError as e:
        raise ConfigError(f"cannot read config {path}: {e.__cause__}") from e
    except ValueError as e:  # not UTF-8, or not JSON
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg


def _config(cls, raw, where: str, **defaults):
    """cls built from the JSON object ``raw``, the config section ``where``
    ("" for the top level).

    Its keys are the fields of cls, which checks their types itself.  An
    absent key takes ``defaults``, else the field's own default.  Errors
    name a key as ``where.key``."""
    prefix = f"{where}." if where else ""
    known = fields(cls)
    unknown = sorted(set(raw) - {f.name for f in known})
    if unknown:
        names = ", ".join(repr(prefix + key) for key in unknown)
        raise ConfigError(f"unknown config field {names}; known: {', '.join(sorted(f.name for f in known))}")
    values = {**defaults, **raw}
    for f in known:
        if f.name not in values and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"config field {prefix + f.name!r} is missing")
    try:
        return cls(**values)
    except ConfigError as e:  # check_fields names the field without its section
        raise ConfigError(str(e).replace("config field '", f"config field '{prefix}", 1)) from e


@dataclass(frozen=True)
class _TrainFile:
    """The keys of a train config; model, train and msc are sections."""

    model: dict
    manifests: tuple[str, ...]
    out_checkpoint: str
    train: dict = field(default_factory=dict)
    msc: dict = field(default_factory=dict)
    labels: tuple[str, ...] | None = None
    label_ids: tuple[int, ...] | None = None
    out_trace: str | None = None

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class _FinetuneFile:
    """The keys of a finetune config; train and msc are sections."""

    base_checkpoint: str
    num_classes_per_task: tuple[int, ...]
    manifests: tuple[str, ...]
    out_checkpoint: str
    train: dict = field(default_factory=dict)
    msc: dict = field(default_factory=dict)
    labels: tuple[str, ...] | None = None
    label_ids: tuple[int, ...] | None = None

    def __post_init__(self):
        check_fields(self)


def _write_json(path: str, obj, **dump_args) -> None:
    write_file(path, json.dumps(obj, **dump_args).encode("utf-8"))


def _print_header(title: str, pairs: dict) -> None:
    print(f"[{title}]")
    for k, v in pairs.items():
        print(f"  {k} = {list(v) if isinstance(v, tuple) else v}")


def _print_epoch(epoch: int, mean_loss: float) -> None:
    print(f"epoch {epoch}: mean loss {mean_loss:.6f}", flush=True)


def cmd_train(args) -> int:
    job = _config(_TrainFile, _load_config(args.config), "")
    bb = _config(model.BackboneConfig, job.model, "model")
    manifest_paths = [_root_path(p) for p in job.manifests]
    manifests = [taxonomy.load_manifest(p) for p in manifest_paths]
    hyper = _config(model.TrainConfig, job.train, "train")
    msc = _config(model.MSCConfig, job.msc, "msc", **model.default_task_weights(len(manifests)))
    out_path = _root_path(job.out_checkpoint)
    _print_header("train", {**asdict(bb), **asdict(hyper), **asdict(msc), "manifests": manifest_paths, "out": out_path})

    ckpt, trace = model.train(
        bb, manifests, hyper, msc=msc, labels=job.labels, label_ids=job.label_ids, on_epoch=_print_epoch
    )
    model.save_checkpoint(ckpt, out_path)
    print(f"checkpoint written: {out_path}")
    if job.out_trace:
        trace_path = _root_path(job.out_trace)
        _write_json(trace_path, {"loss_trace": trace})
        print(f"loss trace written: {trace_path}")
    return EXIT_OK


def cmd_finetune(args) -> int:
    job = _config(_FinetuneFile, _load_config(args.config), "")
    base_path = _root_path(job.base_checkpoint)
    base = model.load_checkpoint(base_path)
    manifest_paths = [_root_path(p) for p in job.manifests]
    manifests = [taxonomy.load_manifest(p) for p in manifest_paths]
    hyper = _config(model.TrainConfig, job.train, "train", lr=model.FINE_TUNE_LR, schedule=())
    msc = _config(model.MSCConfig, job.msc, "msc", **model.default_task_weights(len(manifests)))
    out_path = _root_path(job.out_checkpoint)
    heads = {"num_classes_per_task": job.num_classes_per_task}
    _print_header("finetune", {**heads, **asdict(hyper), **asdict(msc), "base": base_path, "out": out_path})

    ckpt, _ = model.fine_tune(
        base,
        job.num_classes_per_task,
        manifests,
        hyper=hyper,
        msc=msc,
        labels=job.labels,
        label_ids=job.label_ids,
        on_epoch=_print_epoch,
    )
    model.save_checkpoint(ckpt, out_path)
    print(f"checkpoint written: {out_path}")
    return EXIT_OK


def cmd_synth(args) -> int:
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as e:
        raise IoError(f"cannot create {args.out_dir}: {e}") from e
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
        write_pgm(truth_path, truth)
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

    cfg = _load_config(args.config) if args.config else {}
    pcfg = parser.resolve(classifier, _config(parser.ParseConfig, cfg, ""))
    _print_header(
        "parse",
        {
            "input": args.input,
            "windows": pcfg.window_sizes,
            "stride": pcfg.stride,
            "scale_weights": pcfg.scale_weights,
            "k": pcfg.k,
            "min_size": pcfg.min_size,
            "target_count": pcfg.target_count,
            "expected_labels": pcfg.expected_labels,
            "oracle": bool(args.oracle_truth),
        },
    )

    labels, grid, regions = parser.parse_image(raster, classifier, pcfg)
    if labels.max() > 255:
        raise DataError(f"label id {labels.max()} does not fit 8-bit output")
    if args.dump_grid and grid.cell_labels.max() > 255:
        raise DataError(f"grid id {grid.cell_labels.max()} does not fit 8-bit output")
    write_pgm(args.output, labels)
    print(f"label raster written: {args.output} ({regions.region_count} regions)")
    if args.dump_grid:
        write_pgm(args.dump_grid, grid.cell_labels)
        meta = {
            "stride": grid.stride,
            "origin": grid.origin,
            "height": grid.height,
            "width": grid.width,
            "class_ids": grid.class_ids,
        }
        _write_json(args.dump_grid + ".meta", meta, sort_keys=True)
        print(f"grid map written: {args.dump_grid}")
    return EXIT_OK


def _read_rows(path: str, layout: str, record) -> dict:
    """sample_id -> value for each (sample_id, value) = record(fields) of an
    eval TSV; ParseError naming path:line where a sample_id repeats."""
    rows = {}

    def unique(fields):
        sample_id, value = record(fields)
        if sample_id in rows:
            raise ValueError(f"sample_id {sample_id!r} repeats an earlier line")
        rows[sample_id] = value

    read_records(path, layout, unique)
    return rows


def _read_label_tsv(path: str) -> dict[str, int]:
    def record(fields):
        sample_id, label = fields
        return sample_id, taxonomy.label_id(label)

    return _read_rows(path, "sample_id<TAB>label", record)


def _read_scores_tsv(path: str) -> tuple[list[str], np.ndarray]:
    def record(fields):
        sample_id, first, *rest = fields
        scores = [float(x) for x in (first, *rest)]
        if any(np.isnan(scores)):
            raise ValueError("a score is nan")
        return sample_id, scores

    rows = _read_rows(path, "sample_id<TAB>score...", record)
    if not rows:
        raise DataError(f"{path}: no score rows")
    scores = list(rows.values())
    if any(len(r) != len(scores[0]) for r in scores):
        raise DataError(f"{path}: ragged score rows")
    return list(rows), np.asarray(scores)


def _read_labelsets_tsv(path: str) -> dict[str, list[int]]:
    def record(fields):
        sample_id, labels = fields
        return sample_id, [taxonomy.label_id(x) for x in labels.split(",") if x != ""]

    return _read_rows(path, "sample_id<TAB>l1,l2,...", record)


def _print_metrics(report: dict) -> None:
    width = max(len(k) for k in report)
    for k, v in report.items():
        print(f"  {k:<{width}}  {v:.6f}" if isinstance(v, float) else f"  {k:<{width}}  {v}")


def _id_cm(pred: np.ndarray, truth: np.ndarray) -> ConfusionMatrix:
    """Confusion matrix over the ids present in either array, in ascending
    order.  The metrics skip classes absent from both, so the matrix need not
    be sized by the largest id."""
    ids, index = np.unique(np.concatenate([pred, truth]), return_inverse=True)
    return accumulate_cm(index[: pred.size], index[pred.size :], len(ids))


def cmd_eval(args) -> int:
    if args.mode == "pixel":
        pred = read_pgm(args.pred).astype(np.int64)
        truth = read_pgm(args.truth).astype(np.int64)
        if pred.shape != truth.shape:
            raise ExtentMismatchError(f"prediction {pred.shape} vs truth {truth.shape}")
        keep = truth != args.void
        cm = _id_cm(pred[keep], truth[keep])
        _print_header("eval pixel", {"pred": args.pred, "truth": args.truth, "void": args.void, "classes": cm.n_classes})
        report = {
            "OA": overall_accuracy(cm),
            "AA": average_accuracy(cm),
            "Kappa": kappa(cm),
            "mIoU": miou(cm),
        }
    elif args.mode == "tile":
        pred = _read_label_tsv(args.pred)
        truth = _read_label_tsv(args.truth)
        if not truth:
            raise DataError(f"{args.truth}: no label rows")
        missing = sorted(set(truth) - set(pred))
        if missing:
            raise DataError(f"{len(missing)} samples missing predictions (first: {missing[0]})")
        ids = sorted(truth)
        p = np.asarray([pred[i] for i in ids])
        t = np.asarray([truth[i] for i in ids])
        cm = _id_cm(p, t)
        _print_header("eval tile", {"pred": args.pred, "truth": args.truth, "classes": cm.n_classes, "samples": len(ids)})
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
    if args.report:
        _write_json(args.report, report, sort_keys=True, indent=2)
        print(f"report written: {args.report}")
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
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
