"""Evaluation metrics for tile classification, pixel maps, and multi-label
prediction.

Confusion matrix orientation: counts[predicted][actual].  Per-class
accuracy therefore reads down a column (the actual instances of a class),
and classes that never occur in the ground truth are excluded from
averaged metrics rather than scored zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyError, LabelRangeError, LengthMismatchError, ShapeError

__all__ = [
    "ConfusionMatrix",
    "accumulate_cm",
    "overall_accuracy",
    "average_accuracy",
    "per_class_accuracy",
    "kappa",
    "miou",
    "multihot",
    "multilabel_metrics",
    "average_precision",
    "mean_average_precision",
]


@dataclass
class ConfusionMatrix:
    """counts[i][j] = pairs predicted as class i whose actual class is j."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ShapeError(f"confusion matrix must be square, got {c.shape}")
        if np.any(c < 0):
            raise ShapeError("negative counts")
        self.counts = c

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def accumulate_cm(preds, truths, n_classes: int, void_id: int | None = None) -> ConfusionMatrix:
    """Count (predicted, actual) pairs; pairs whose truth is void are skipped."""
    p = np.asarray(preds).reshape(-1)
    t = np.asarray(truths).reshape(-1)
    if p.size != t.size:
        raise LengthMismatchError(f"{p.size} predictions vs {t.size} truths")
    if void_id is not None:
        keep = t != void_id
        p, t = p[keep], t[keep]
    if p.size:
        if p.min() < 0 or p.max() >= n_classes:
            raise LabelRangeError(f"prediction outside [0, {n_classes})")
        if t.min() < 0 or t.max() >= n_classes:
            raise LabelRangeError(f"truth outside [0, {n_classes})")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (p.astype(np.int64), t.astype(np.int64)), 1)
    return ConfusionMatrix(counts)


def overall_accuracy(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise EmptyError("empty confusion matrix")
    return float(np.trace(cm.counts)) / cm.total


def per_class_accuracy(cm: ConfusionMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per-class accuracy diag/column_sum and the mask of classes present in truth."""
    col = cm.counts.sum(axis=0)
    present = col > 0
    acc = np.zeros(cm.n_classes)
    acc[present] = np.diag(cm.counts)[present] / col[present]
    return acc, present


def average_accuracy(cm: ConfusionMatrix) -> float:
    """Mean per-class accuracy over classes with at least one actual instance."""
    acc, present = per_class_accuracy(cm)
    if not present.any():
        raise EmptyError("no class present in truth")
    return float(acc[present].mean())


def kappa(cm: ConfusionMatrix) -> float:
    """Chance-corrected agreement (p_o - p_e) / (1 - p_e)."""
    total = cm.total
    if total == 0:
        raise EmptyError("empty confusion matrix")
    p_o = overall_accuracy(cm)
    row = cm.counts.sum(axis=1).astype(np.float64)
    col = cm.counts.sum(axis=0).astype(np.float64)
    p_e = float((row * col).sum()) / (total * total)
    if p_e == 1.0:
        return 1.0 if p_o == 1.0 else 0.0
    return (p_o - p_e) / (1.0 - p_e)


def miou(cm: ConfusionMatrix) -> float:
    """Mean IoU over classes present in prediction or truth."""
    row = cm.counts.sum(axis=1)
    col = cm.counts.sum(axis=0)
    diag = np.diag(cm.counts)
    union = row + col - diag
    present = union > 0
    if not present.any():
        raise EmptyError("empty confusion matrix")
    return float((diag[present] / union[present]).mean())


def multihot(label_sets, n_labels: int) -> np.ndarray:
    """Multi-hot truth matrix from per-image collections of label ids."""
    hot = np.zeros((len(label_sets), n_labels), dtype=bool)
    for i, labels in enumerate(label_sets):
        for l in labels:
            if not 0 <= int(l) < n_labels:
                raise LabelRangeError(f"label {l} outside [0, {n_labels})")
            hot[i, int(l)] = True
    return hot


def _as_multihot(truths, n_labels: int) -> np.ndarray:
    try:
        t = np.asarray(truths)
    except ValueError:
        return multihot(truths, n_labels)
    if t.dtype == object or t.ndim == 1:
        return multihot(truths, n_labels)
    if t.shape[1] != n_labels:
        raise ShapeError(f"truth width {t.shape[1]} vs {n_labels} labels")
    return t.astype(bool)


def multilabel_metrics(scores, truths, tau: float = 0.5) -> dict:
    """Per-class (CP/CR/CF1) and overall micro (OP/OR/OF1) metrics.

    A label is predicted positive iff its score is strictly greater than
    tau.  Per-class averages run over classes with at least one ground
    truth positive; a class with no predicted positives contributes
    precision 0.  Any F1 is 0 when P + R = 0.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2:
        raise ShapeError(f"scores must be [images, labels], got {s.shape}")
    if not 0.0 < tau < 1.0:
        raise ShapeError(f"tau must be in (0,1), got {tau}")
    hot = _as_multihot(truths, s.shape[1])
    if hot.shape != s.shape:
        raise ShapeError(f"truth shape {hot.shape} vs scores {s.shape}")
    pred = s > tau
    tp = (pred & hot).sum(axis=0).astype(np.float64)
    pp = pred.sum(axis=0).astype(np.float64)
    gp = hot.sum(axis=0).astype(np.float64)

    with_truth = gp > 0
    if not with_truth.any():
        raise EmptyError("no label has a ground-truth positive")
    prec = np.zeros_like(tp)
    np.divide(tp, pp, out=prec, where=pp > 0)
    cp = float(prec[with_truth].mean())
    cr = float((tp[with_truth] / gp[with_truth]).mean())
    cf1 = 0.0 if cp + cr == 0 else 2 * cp * cr / (cp + cr)

    tp_all, pp_all, gp_all = tp.sum(), pp.sum(), gp.sum()
    op = 0.0 if pp_all == 0 else float(tp_all / pp_all)
    orr = float(tp_all / gp_all)
    of1 = 0.0 if op + orr == 0 else 2 * op * orr / (op + orr)
    return {"CP": cp, "CR": cr, "CF1": cf1, "OP": op, "OR": orr, "OF1": of1}


def average_precision(scores_1d, positives_1d) -> float:
    """All-points AP for one label: images ranked by score descending,
    score ties kept in image-index order."""
    s = np.asarray(scores_1d, dtype=np.float64)
    pos = np.asarray(positives_1d, dtype=bool)
    n_pos = int(pos.sum())
    if n_pos == 0:
        raise EmptyError("no positives")
    order = np.argsort(-s, kind="stable")
    ranked = pos[order]
    hits = np.cumsum(ranked)
    ranks = np.arange(1, s.size + 1)
    return float((hits[ranked] / ranks[ranked]).sum() / n_pos)


def mean_average_precision(scores, truths) -> float:
    """Mean AP over labels that have at least one positive."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2:
        raise ShapeError(f"scores must be [images, labels], got {s.shape}")
    hot = _as_multihot(truths, s.shape[1])
    aps = [average_precision(s[:, j], hot[:, j]) for j in range(s.shape[1]) if hot[:, j].any()]
    if not aps:
        raise EmptyError("no label has a positive")
    return float(np.mean(aps))
