"""Correctness checks for the benchmark's outputs, computed apart from sceneparse.

Every check takes plain arrays and returns a list of failure messages; an
empty list means the check passed.  None of them calls into the package, so
a fault in the program cannot hide itself by also breaking its own check.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components


def confusion(pred: np.ndarray, truth: np.ndarray, n_ids: int) -> np.ndarray:
    """[truth id, predicted id] counts over ids 0..n_ids-1."""
    pred = np.asarray(pred).ravel().astype(np.int64)
    truth = np.asarray(truth).ravel().astype(np.int64)
    return np.bincount(truth * n_ids + pred, minlength=n_ids * n_ids).reshape(n_ids, n_ids)


def cohen_kappa(pred: np.ndarray, truth: np.ndarray) -> float:
    """Chance-corrected agreement (p_o - p_e) / (1 - p_e) of two label arrays."""
    n_ids = int(max(np.max(pred), np.max(truth))) + 1
    cm = confusion(pred, truth, n_ids).astype(np.float64)
    total = cm.sum()
    p_o = np.trace(cm) / total
    p_e = float((cm.sum(axis=0) * cm.sum(axis=1)).sum()) / (total * total)
    if p_e == 1.0:
        return 1.0 if p_o == 1.0 else 0.0
    return float((p_o - p_e) / (1.0 - p_e))


def check_label_ids(labels: np.ndarray, label_ids) -> list[str]:
    bad = np.setdiff1d(np.unique(labels), np.asarray(list(label_ids)))
    return [f"output ids {bad.tolist()} are not classifier label ids"] if bad.size else []


def four_connected_components(region_labels: np.ndarray) -> int:
    """Number of 4-connected components of equal-id pixels, by a sparse-graph
    labelling independent of the package's union-find."""
    lab = np.asarray(region_labels)
    h, w = lab.shape
    idx = np.arange(h * w).reshape(h, w)
    rows, cols = [], []
    for a, b, la, lb in (
        (idx[:, :-1], idx[:, 1:], lab[:, :-1], lab[:, 1:]),
        (idx[:-1, :], idx[1:, :], lab[:-1, :], lab[1:, :]),
    ):
        same = la == lb
        rows.append(a[same])
        cols.append(b[same])
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    graph = coo_matrix((np.ones(r.size, dtype=np.int8), (r, c)), shape=(h * w, h * w))
    return int(connected_components(graph, directed=False)[0])


def check_partition(region_labels: np.ndarray, region_count: int) -> list[str]:
    """Region ids are exactly 0..count-1 and every region is 4-connected."""
    ids = np.unique(region_labels)
    if ids.size != region_count or ids[0] != 0 or ids[-1] != region_count - 1:
        return [f"region ids are not dense 0..{region_count - 1}: {ids.size} distinct in [{ids[0]}, {ids[-1]}]"]
    components = four_connected_components(region_labels)
    if components != region_count:
        return [f"{components} 4-connected components for {region_count} regions"]
    return []


def pixel_cells(cell_labels: np.ndarray, stride: int, shape: tuple[int, int]) -> np.ndarray:
    """Per-pixel cell label: cell (gy, gx) covers rows [gy*stride, (gy+1)*stride),
    the last row and column of cells also covering any remainder."""
    gh, gw = cell_labels.shape
    cy = np.minimum(np.arange(shape[0]) // stride, gh - 1)
    cx = np.minimum(np.arange(shape[1]) // stride, gw - 1)
    return cell_labels[cy[:, None], cx[None, :]]


def check_majority(
    labels: np.ndarray, region_labels: np.ndarray, region_count: int, cell_labels: np.ndarray, stride: int
) -> list[str]:
    """Each region carries the majority cell label under its pixels, ties to the lowest id."""
    cells = pixel_cells(cell_labels, stride, region_labels.shape).ravel().astype(np.int64)
    n_ids = int(cells.max()) + 1
    votes = np.bincount(
        region_labels.ravel().astype(np.int64) * n_ids + cells, minlength=region_count * n_ids
    ).reshape(region_count, n_ids)
    expected = votes.argmax(axis=1)[region_labels]
    wrong = np.unique(region_labels[expected != labels])
    return [f"{wrong.size} regions do not carry their majority cell label"] if wrong.size else []


def cell_centres(extent: int, stride: int) -> np.ndarray:
    """Centre pixel of each cell: stride // 2 into the cell, clamped to the raster."""
    count = -(-extent // stride)
    return np.minimum(stride // 2 + stride * np.arange(count), extent - 1)


def check_grid_oracle(cell_labels: np.ndarray, truth: np.ndarray, stride: int) -> list[str]:
    """Every cell of an oracle grid equals the truth at its centre pixel."""
    cy = cell_centres(truth.shape[0], stride)
    cx = cell_centres(truth.shape[1], stride)
    if cell_labels.shape != (cy.size, cx.size):
        return [f"grid is {cell_labels.shape}, expected {(cy.size, cx.size)}"]
    wrong = int((cell_labels != truth[cy[:, None], cx[None, :]]).sum())
    return [f"{wrong} grid cells differ from the truth at their centre"] if wrong else []


def check_nested(fine: np.ndarray, coarse: np.ndarray) -> list[str]:
    """Every fine region lies inside exactly one coarse region."""
    pairs = np.unique(np.stack([fine.ravel(), coarse.ravel()]), axis=1)
    per_fine = np.bincount(pairs[0])
    split = int((per_fine > 1).sum())
    return [f"{split} graph regions are split across merged regions"] if split else []


def check_training(losses, held_oa: float, min_oa: float, ckpt_bytes: bytes, resaved_bytes: bytes) -> list[str]:
    """Finite falling loss, held-out accuracy, and a byte-stable checkpoint round trip."""
    out = []
    if not losses or not all(math.isfinite(x) for x in losses):
        out.append(f"loss trace is empty or not finite: {losses}")
    elif not losses[-1] < losses[0]:
        out.append(f"loss did not fall: first epoch {losses[0]:.4f}, last {losses[-1]:.4f}")
    if not held_oa >= min_oa:
        out.append(f"held-out OA {held_oa:.4f} below {min_oa}")
    if ckpt_bytes != resaved_bytes:
        out.append("save -> load -> save changed the checkpoint bytes")
    return out


def outputs_agree(digests: list[str]) -> bool:
    """At least one round passed its checks, and every passing round's output
    hashes the same."""
    return len(set(digests)) == 1
