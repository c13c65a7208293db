"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload parse-1024|merge-512|train-desk
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the package is imported from ``src/``.  The
files the program reads are written once, untimed; the set-up then runs with
tile writes held in memory, repeated until ``SETUP_SECONDS`` of it have been
timed.  With ``--trace 0`` the workload's timed call is repeated in whole
rounds until ``--seconds`` of it have been timed, and at least the
workload's ``min_rounds`` times; the end-to-end metrics are printed.
With ``--trace 1`` one set-up and one timed round run with spans around the
package's public functions, between two untraced rounds, and the per-layer
metrics are printed.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
WORKLOAD_NAMES = ("parse-1024", "merge-512", "train-desk")
SETUP_SECONDS = 3.0  # set-up repeats until this much of it is timed; setup_s is the median
STAGE_TOLERANCE_S = 0.05  # parse stages must cover the traced parse_image time to within
STAGE_TOLERANCE_SHARE = 0.01  # the larger of these two


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def limit_blas_threads() -> None:
    """At most one BLAS thread per usable core; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= cores:
            os.environ[var] = str(cores)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB


def trace_points(tracer) -> None:
    """Wrap each public function where its caller looks it up."""
    import numpy as np
    from sceneparse import model, parser, synthdata
    from sceneparse import tensor as T

    def batch(args, kwargs, result):
        base = args[1]
        while isinstance(base.base, np.ndarray):
            base = base.base
        return {"rows": int(args[1].shape[0]), "batch_bytes": int(base.nbytes)}

    tracer.point(synthdata, "generate_tile_dataset", "synthdata.tiles")
    tracer.point(synthdata, "generate_scene_raster", "synthdata.scene")
    tracer.point(model, "train", "model.train")
    tracer.point(model, "load_tiles", "model.load_tiles")
    tracer.point(model, "msc_forward", "model.msc_forward")
    tracer.point(model.TileClassifier, "probs_batch", "model.probs_batch", batch)
    tracer.point(T, "conv2d", "tensor.conv2d")
    tracer.point(T, "backward", "tensor.backward")
    tracer.point(T, "sgd_step", "tensor.sgd_step")
    tracer.point(parser, "parse_image", "parser.parse_image")
    tracer.point(parser, "build_grid_map", "parser.build_grid_map", lambda a, k, r: {"cells": int(r.cell_labels.size)})
    tracer.point(parser, "graph_segment", "segmentation.graph_segment", lambda a, k, r: {"regions": r.region_count})
    tracer.point(
        parser,
        "merge_regions",
        "segmentation.merge_regions",
        lambda a, k, r: {"regions": r.region_count, "merges": a[1].region_count - r.region_count},
    )
    tracer.point(parser, "integrate_semantics", "parser.integrate_semantics")


def layer_metrics(tracer, untraced_s: float, traced_s: float) -> dict:
    """Per-layer figures over the set-up and the traced round."""
    t = tracer
    grid_s = t.total("parser.build_grid_map")
    probs_s = t.total("model.probs_batch")
    batch_mb = max((s.attrs["batch_bytes"] for s in t.spans if s.name == "model.probs_batch"), default=0) / 1e6
    stages = ("parser.build_grid_map", "segmentation.graph_segment", "segmentation.merge_regions", "parser.integrate_semantics")
    parse_s = t.total("parser.parse_image")
    # probs_batch is only called inside build_grid_map during a parse, so its
    # time there is the classifier's share of the grid stage
    values = {
        "parser.parse_image_s": (parse_s, "s"),
        "parser.parse_self_s": (parse_s - sum(t.total(n) for n in stages), "s"),
        "parser.build_grid_map_s": (grid_s, "s"),
        "parser.gather_s": (grid_s - probs_s, "s"),
        "parser.cells": (t.attr_sum("parser.build_grid_map", "cells"), "count"),
        "parser.windows": (t.attr_sum("model.probs_batch", "rows"), "count"),
        "parser.window_batch_mb": (batch_mb, "MB"),
        "model.probs_batch_s": (probs_s, "s"),
        "model.probs_batch_calls": (t.calls("model.probs_batch"), "count"),
        "tensor.conv2d_s": (t.total("tensor.conv2d"), "s"),
        "tensor.conv2d_calls": (t.calls("tensor.conv2d"), "count"),
        "segmentation.graph_segment_s": (t.total("segmentation.graph_segment"), "s"),
        "segmentation.regions_graph": (t.attr_sum("segmentation.graph_segment", "regions"), "count"),
        "segmentation.merge_regions_s": (t.total("segmentation.merge_regions"), "s"),
        "segmentation.merges": (t.attr_sum("segmentation.merge_regions", "merges"), "count"),
        "segmentation.regions_merged": (t.attr_sum("segmentation.merge_regions", "regions"), "count"),
        "parser.integrate_semantics_s": (t.total("parser.integrate_semantics"), "s"),
        "model.train_s": (t.total("model.train"), "s"),
        "model.load_tiles_s": (t.total("model.load_tiles"), "s"),
        "model.msc_forward_s": (t.total("model.msc_forward"), "s"),
        "tensor.backward_s": (t.total("tensor.backward"), "s"),
        "tensor.sgd_step_s": (t.total("tensor.sgd_step"), "s"),
        "model.train_other_s": (t.self_time("model.train"), "s"),
        "model.train_steps": (t.calls("tensor.sgd_step"), "count"),
        "synthdata.tiles_s": (t.total("synthdata.tiles"), "s"),
        "synthdata.scene_s": (t.total("synthdata.scene"), "s"),
        "trace_overhead_s": (traced_s - untraced_s, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def stage_gap_failures(tracer) -> list[str]:
    """The traced parse stages must add up to the traced parse_image time."""
    out = []
    for i, s in enumerate(tracer.spans):
        if s.name != "parser.parse_image":
            continue
        covered = sum(c.duration for c in tracer.spans if c.parent == i)
        gap = s.duration - covered
        if gap > max(STAGE_TOLERANCE_S, STAGE_TOLERANCE_SHARE * s.duration):
            out.append(f"parse stages cover {covered:.3f} s of a {s.duration:.3f} s traced parse")
    return out


def timed_round(workload, tracer=None):
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    out = workload.run()
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    return wall, workload.evaluate(out, wall)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sceneparse", "__init__.py")):
        print(f"bench: no sceneparse package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, SRC)
    import checks
    from tracer import Tracer
    from workloads import WORKLOADS, stale_files, tile_writes_in_memory

    workload = WORKLOADS[args.workload]()
    tracer = Tracer()
    trace_points(tracer)
    rounds = []
    setup_times = []
    with tempfile.TemporaryDirectory(prefix="work-", dir=BENCH_DIR) as work_dir:
        workload.write_inputs(args.seed, work_dir)
        if args.trace:
            tracer.install()
        with tile_writes_in_memory() as held:
            while not setup_times or (not args.trace and sum(setup_times) < SETUP_SECONDS):
                t0 = time.perf_counter()
                workload.setup(args.seed, work_dir)
                setup_times.append(time.perf_counter() - t0)
        tracer.uninstall()
        stale = stale_files(held)

        if args.trace:
            # an untraced warm-up round, then a traced and an untraced round
            # back to back, so the overhead compares two warm rounds
            rounds.append(timed_round(workload))
            tracer.round = 1
            rounds.append(timed_round(workload, tracer))
            rounds.append(timed_round(workload))
        else:
            while len(rounds) < workload.min_rounds or sum(w for w, _ in rounds) < args.seconds:
                rounds.append(timed_round(workload))

    failed = 0
    for i, (wall, ev) in enumerate(rounds):
        status = "ok" if not ev.failures else "FAILED: " + "; ".join(ev.failures)
        print(
            f"round {i} ({'traced' if args.trace and i == 1 else 'untraced'}): {wall:.3f} s, "
            f"{workload.rate_name} {ev.rate:.4f} {workload.rate_unit}, kappa {ev.kappa:.4f}, {status}"
        )
        failed += bool(ev.failures)
    # outputs must not depend on the round (or on tracing): the program is deterministic
    correct = checks.outputs_agree([ev.digest for _, ev in rounds if not ev.failures])
    if not correct:
        print("no round passed, or outputs differ between rounds", file=sys.stderr)
    if stale:
        correct = False
        print(f"{len(stale)} tile files differ from the set-up's, e.g. {stale[0]}", file=sys.stderr)

    if args.trace:
        gaps = stage_gap_failures(tracer)
        if gaps and not rounds[1][1].failures:
            failed += 1
        for g in gaps:
            print(f"FAILED: {g}")
        metrics = layer_metrics(tracer, rounds[2][0], rounds[1][0])
        os.makedirs(RESULTS_DIR, exist_ok=True)
        tracer.dump(os.path.join(RESULTS_DIR, f"spans-{args.workload}-seed{args.seed}.json"))
    else:
        walls = [w for w, _ in rounds]
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "kappa": {"value": statistics.median(ev.kappa for _, ev in rounds), "unit": "1"},
        }
        print(f"{workload.rate_name}: {statistics.median(ev.rate for _, ev in rounds):.4f} {workload.rate_unit}")
    print(f"set-ups: {len(setup_times)}, operations: {len(rounds)} attempted, {failed} failed")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(rounds), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
