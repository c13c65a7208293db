"""Each benchmark check accepts a correct output and rejects a corrupted one.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

import os
import sys
import types

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH_DIR, os.path.join(os.path.dirname(BENCH_DIR), "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer  # noqa: E402

# Three 4-connected regions on a 4x8 raster: 0 left, 1 top right, 2 bottom right.
REGIONS = np.array(
    [
        [0, 0, 0, 0, 1, 1, 1, 1],
        [0, 0, 0, 0, 1, 1, 1, 1],
        [0, 0, 0, 0, 2, 2, 2, 2],
        [0, 0, 0, 0, 2, 2, 2, 2],
    ],
    dtype=np.int32,
)
# 2x2-pixel cells (stride 2): region 0 votes 3 over 4, region 1 is all 5,
# region 2 ties 5 and 3 with four pixels each.
CELLS = np.array(
    [
        [3, 3, 5, 5],
        [3, 4, 5, 3],
    ],
    dtype=np.int32,
)
STRIDE = 2


def majority_labels():
    return np.choose(REGIONS, [3, 5, 3]).astype(np.int32)


def test_kappa_matches_hand_value():
    pred = np.array([1, 1, 2, 2])
    truth = np.array([1, 2, 2, 2])
    # p_o = 3/4, p_e = (1*2 + 3*2) / 16 = 1/2
    assert checks.cohen_kappa(pred, truth) == pytest.approx(0.5)
    assert checks.cohen_kappa(truth, truth) == 1.0


def test_label_ids():
    assert checks.check_label_ids(np.array([1, 2, 8]), range(1, 9)) == []
    assert checks.check_label_ids(np.array([1, 9]), range(1, 9))


def test_partition_accepts_dense_connected_regions():
    assert checks.check_partition(REGIONS, 3) == []


def test_partition_rejects_split_region():
    split = REGIONS.copy()
    split[3, 0] = 1  # a second, detached piece of region 1
    assert checks.check_partition(split, 3)


def test_partition_rejects_diagonal_only_connection():
    diag = np.array([[0, 1], [1, 0]], dtype=np.int32)
    assert checks.check_partition(diag, 2)


def test_partition_rejects_sparse_ids():
    assert checks.check_partition(np.where(REGIONS == 2, 3, REGIONS), 3)
    assert checks.check_partition(REGIONS, 4)
    # id 1 missing while a split region 0 makes up the component count
    assert checks.check_partition(np.array([[0, 2, 0]], dtype=np.int32), 3)


def test_majority_accepts_vote_with_ties_to_lowest_id():
    assert checks.check_majority(majority_labels(), REGIONS, 3, CELLS, STRIDE) == []


def test_majority_rejects_one_flipped_region():
    flipped = majority_labels()
    flipped[REGIONS == 2] = 5  # the tie should have gone to 3
    assert checks.check_majority(flipped, REGIONS, 3, CELLS, STRIDE)


def test_majority_uses_last_cell_for_partial_rows():
    regions = np.zeros((5, 4), dtype=np.int32)  # row 4 lies in the trailing partial cell row
    cells = np.array([[1, 1], [1, 1], [2, 2]], dtype=np.int32)
    assert checks.check_majority(np.ones((5, 4), np.int32), regions, 1, cells, 2) == []
    assert checks.pixel_cells(cells, 2, (5, 4))[4, 0] == 2


def test_grid_oracle():
    truth = np.arange(1, 25, dtype=np.int32).reshape(4, 6)
    # stride 4: centres at row 2 and columns 2 and 5 (clamped from 6)
    good = np.array([[truth[2, 2], truth[2, 5]]])
    assert checks.check_grid_oracle(good, truth, 4) == []
    bad = good.copy()
    bad[0, 1] += 1
    assert checks.check_grid_oracle(bad, truth, 4)
    assert checks.check_grid_oracle(good[:, :1], truth, 4)


def test_nested_accepts_unions():
    coarse = np.where(REGIONS == 2, 1, REGIONS)
    assert checks.check_nested(REGIONS, coarse) == []


def test_nested_rejects_non_nested_merge():
    coarse = np.where(REGIONS == 2, 1, REGIONS)
    coarse[0, 0] = 1  # part of graph region 0 went to another merged region
    assert checks.check_nested(REGIONS, coarse)


def test_training_checks():
    ok = dict(losses=[3.0, 1.0], held_oa=1.0, min_oa=0.95, ckpt_bytes=b"a", resaved_bytes=b"a")
    assert checks.check_training(**ok) == []
    assert checks.check_training(**{**ok, "losses": [3.0, float("nan")]})
    assert checks.check_training(**{**ok, "losses": [1.0, 1.0]})
    assert checks.check_training(**{**ok, "held_oa": 0.9})
    assert checks.check_training(**{**ok, "resaved_bytes": b"b"})


def test_outputs_agree():
    assert checks.outputs_agree(["a", "a"])
    assert not checks.outputs_agree(["a", "b"])
    assert not checks.outputs_agree([])  # no round passed


def test_tile_writes_in_memory_hold_the_bytes_the_writer_would_write(tmp_path):
    out_dir = str(tmp_path / "tiles")
    with workloads.tile_writes_in_memory() as held:
        manifest = workloads.desk_tiles(3, 1, out_dir)
    assert len(held) == len(manifest.samples) == workloads.DESK_CLASSES
    assert not os.path.exists(out_dir) or not os.listdir(out_dir)
    assert workloads.stale_files(held) == list(held)  # nothing on disk yet
    workloads.desk_tiles(3, 1, out_dir)
    assert workloads.stale_files(held) == []
    path = manifest.samples[0].raster_path
    with open(path, "r+b") as f:
        f.seek(-1, os.SEEK_END)
        last = f.read(1)
        f.seek(-1, os.SEEK_END)
        f.write(bytes([last[0] ^ 1]))
    assert workloads.stale_files(held) == [path]


def _fake_module():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    return mod


def test_tracer_nests_spans_and_restores_functions():
    mod = _fake_module()
    original = mod.inner
    tracer = Tracer()
    tracer.point(mod, "outer", "outer")
    tracer.point(mod, "inner", "inner", lambda a, k, r: {"out": r})
    tracer.install()
    assert mod.outer(1) == 4
    tracer.uninstall()
    assert mod.inner is original
    assert [s.name for s in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1].parent == 0 and tracer.attr_sum("inner", "out") == 2
    assert tracer.self_time("outer") == pytest.approx(tracer.total("outer") - tracer.total("inner"))


def test_stage_gap_check_rejects_uncovered_parse_time():
    tracer = Tracer()
    tracer.spans = [
        Span("parser.parse_image", 0.0, 10.0, -1, 1),
        Span("parser.build_grid_map", 0.0, 4.0, 0, 1),
        Span("segmentation.graph_segment", 4.0, 9.99, 0, 1),
    ]
    assert run.stage_gap_failures(tracer) == []
    tracer.spans[2].end = 8.0
    assert run.stage_gap_failures(tracer)
