import numpy as np
import pytest

from sceneparse import metrics
from sceneparse.errors import (
    EmptyError,
    LabelRangeError,
    LengthMismatchError,
    ShapeError,
)


# ---------------------------------------------------------------- oracles


def per_class_recall(scores, truths, tau: float = 0.5) -> np.ndarray:
    """Recall per label at threshold ``tau``, over labels with positives.

    Returned in label-id order so two thresholds can be compared
    entry-by-entry.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2:
        raise ShapeError(f"scores must be [images, labels], got {s.shape}")
    if not 0.0 < tau < 1.0:
        raise ShapeError(f"tau must be in (0,1), got {tau}")
    hot = metrics._as_multihot(truths, s.shape[1])
    pred = s > tau
    tp = (pred & hot).sum(axis=0).astype(np.float64)
    gp = hot.sum(axis=0).astype(np.float64)
    with_truth = gp > 0
    if not with_truth.any():
        raise EmptyError("no label has a ground-truth positive")
    return tp[with_truth] / gp[with_truth]


def cm_loops(preds, truths, n):
    m = np.zeros((n, n), dtype=np.int64)
    for p, t in zip(preds, truths):
        m[p][t] += 1
    return m


def oa_loops(cm):
    return sum(cm[i][i] for i in range(len(cm))) / cm.sum()


def aa_loops(cm):
    accs = []
    for j in range(len(cm)):
        col = cm[:, j].sum()
        if col > 0:
            accs.append(cm[j][j] / col)
    return float(np.mean(accs))


def kappa_loops(cm):
    total = cm.sum()
    po = sum(cm[i][i] for i in range(len(cm))) / total
    pe = sum(cm[i, :].sum() * cm[:, i].sum() for i in range(len(cm))) / total**2
    if pe == 1.0:
        return 1.0 if po == 1.0 else 0.0
    return (po - pe) / (1 - pe)


def miou_loops(cm):
    ious = []
    for i in range(len(cm)):
        inter = cm[i][i]
        union = cm[i, :].sum() + cm[:, i].sum() - inter
        if union > 0:
            ious.append(inter / union)
    return float(np.mean(ious))


def multilabel_loops(scores, truth_sets, tau):
    m, n = scores.shape
    tp = np.zeros(n)
    pp = np.zeros(n)
    gp = np.zeros(n)
    for i in range(m):
        for j in range(n):
            pred = scores[i][j] > tau
            true = j in truth_sets[i]
            tp[j] += pred and true
            pp[j] += pred
            gp[j] += true
    keep = gp > 0
    prec = np.where(pp > 0, tp / np.maximum(pp, 1), 0.0)
    rec = tp / np.maximum(gp, 1)
    cp = prec[keep].mean()
    cr = rec[keep].mean()
    cf1 = 2 * cp * cr / (cp + cr) if cp + cr > 0 else 0.0
    op = tp.sum() / pp.sum() if pp.sum() > 0 else 0.0
    orr = tp.sum() / gp.sum() if gp.sum() > 0 else 0.0
    of1 = 2 * op * orr / (op + orr) if op + orr > 0 else 0.0
    return {"CP": cp, "CR": cr, "CF1": cf1, "OP": op, "OR": orr, "OF1": of1}


def ap_loops(scores, flags):
    """All-points average precision; ranking ties broken by input order."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    tp = 0
    total_pos = sum(flags)
    ap = 0.0
    for rank, i in enumerate(order, start=1):
        if flags[i]:
            tp += 1
            ap += tp / rank
    return ap / total_pos


def random_cm(rng, n=None):
    n = n or int(rng.integers(2, 7))
    cm = rng.integers(0, 30, size=(n, n)).astype(np.int64)
    if cm.sum() == 0:
        cm[0, 0] = 1
    return cm


# ---------------------------------------------------------------- tests


class TestAccumulate:
    def test_matches_loop_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 6))
            preds = rng.integers(0, n, size=200)
            truths = rng.integers(0, n, size=200)
            got = metrics.accumulate_cm(preds, truths, n)
            assert np.array_equal(got.counts, cm_loops(preds, truths, n))

    def test_void_pixels_skipped(self):
        preds = np.array([1, 2, 1])
        truths = np.array([1, 0, 2])
        cm = metrics.accumulate_cm(preds, truths, 3, void_id=0)
        assert cm.total == 2
        assert cm.counts[1][1] == 1 and cm.counts[1][2] == 1

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            metrics.accumulate_cm(np.array([0]), np.array([0, 1]), 2)

    def test_out_of_range(self):
        with pytest.raises(LabelRangeError):
            metrics.accumulate_cm(np.array([2]), np.array([0]), 2)


class TestHandExamples:
    def test_two_class_worked_example(self):
        cm = metrics.ConfusionMatrix(np.array([[2, 1], [1, 2]], dtype=np.int64))
        assert metrics.overall_accuracy(cm) == pytest.approx(2 / 3, abs=1e-12)
        assert metrics.kappa(cm) == pytest.approx(1 / 3, abs=1e-4)
        assert metrics.miou(cm) == pytest.approx(0.5, abs=1e-12)

    def test_perfect_prediction(self):
        cm = metrics.ConfusionMatrix(np.diag([5, 3, 2]).astype(np.int64))
        assert metrics.overall_accuracy(cm) == 1.0
        assert metrics.average_accuracy(cm) == 1.0
        assert metrics.kappa(cm) == 1.0
        assert metrics.miou(cm) == 1.0

    def test_single_class_degenerate_kappa(self):
        # all mass in one cell: p_e == 1
        cm = metrics.ConfusionMatrix(np.array([[7, 0], [0, 0]], dtype=np.int64))
        assert metrics.kappa(cm) == 1.0
        wrong = metrics.ConfusionMatrix(np.array([[0, 7], [0, 0]], dtype=np.int64))
        assert metrics.kappa(wrong) == 0.0

    def test_empty_cm_rejected(self):
        cm = metrics.ConfusionMatrix(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(EmptyError):
            metrics.overall_accuracy(cm)

    def test_ap_hand_example(self):
        # scores 0.9(pos) 0.8(neg) 0.7(pos): precisions 1/1, 2/3
        scores = np.array([0.9, 0.8, 0.7])
        assert metrics.average_precision(scores, np.array([1, 0, 1])) == pytest.approx(
            (1.0 + 2 / 3) / 2, abs=1e-12
        )
        assert metrics.average_precision(scores, np.array([1, 0, 1])) == pytest.approx(
            0.8333, abs=1e-4
        )


class TestAgainstOracles:
    def test_cm_metrics_thousand_cases(self, rng):
        for _ in range(1000):
            cm = metrics.ConfusionMatrix(random_cm(rng))
            assert metrics.overall_accuracy(cm) == pytest.approx(oa_loops(cm.counts), abs=1e-10)
            assert metrics.average_accuracy(cm) == pytest.approx(aa_loops(cm.counts), abs=1e-10)
            assert metrics.kappa(cm) == pytest.approx(kappa_loops(cm.counts), abs=1e-10)
            assert metrics.miou(cm) == pytest.approx(miou_loops(cm.counts), abs=1e-10)

    def test_multilabel_thousand_cases(self, rng):
        for _ in range(1000):
            m = int(rng.integers(2, 12))
            n = int(rng.integers(2, 6))
            scores = rng.random(size=(m, n))
            truth = [set(np.flatnonzero(rng.random(n) > 0.5)) for _ in range(m)]
            if not any(truth):
                truth[0] = {0}
            tau = float(rng.random() * 0.8 + 0.1)
            got = metrics.multilabel_metrics(scores, truth, tau=tau)
            want = multilabel_loops(scores, truth, tau)
            for k in want:
                assert got[k] == pytest.approx(want[k], abs=1e-10), k

    def test_ap_random_cases(self, rng):
        for _ in range(300):
            m = int(rng.integers(2, 30))
            scores = np.round(rng.random(m), 2)  # duplicates force tie handling
            flags = (rng.random(m) > 0.5).astype(int)
            if flags.sum() == 0:
                flags[0] = 1
            got = metrics.average_precision(scores, flags)
            assert got == pytest.approx(ap_loops(scores, flags), abs=1e-12)

    def test_map_mean_over_labeled_columns(self, rng):
        scores = rng.random(size=(10, 3))
        truth = [set() for _ in range(10)]
        truth[0] = {0}
        truth[1] = {0, 2}
        got = metrics.mean_average_precision(scores, truth)
        col0 = metrics.average_precision(scores[:, 0], [1 if 0 in t else 0 for t in truth])
        col2 = metrics.average_precision(scores[:, 2], [1 if 2 in t else 0 for t in truth])
        assert got == pytest.approx((col0 + col2) / 2, abs=1e-12)


class TestThresholdBehavior:
    def test_strictly_greater_than_tau(self):
        scores = np.array([[0.5, 0.6]])
        got = metrics.multilabel_metrics(scores, [{0, 1}], tau=0.5)
        # 0.5 is NOT above threshold, 0.6 is
        assert got["OR"] == pytest.approx(0.5)

    def test_tau_out_of_range(self):
        with pytest.raises(ShapeError):
            metrics.multilabel_metrics(np.array([[0.5]]), [{0}], tau=0.0)

    def test_recall_monotone_in_tau(self, rng):
        for _ in range(100):
            m = int(rng.integers(3, 15))
            n = int(rng.integers(2, 6))
            scores = rng.random(size=(m, n))
            truth = [set(np.flatnonzero(rng.random(n) > 0.4)) for _ in range(m)]
            if not any(truth):
                truth[0] = {0}
            lo = metrics.multilabel_metrics(scores, truth, tau=0.5)
            hi = metrics.multilabel_metrics(scores, truth, tau=0.75)
            assert hi["OR"] <= lo["OR"] + 1e-12
            assert hi["CR"] <= lo["CR"] + 1e-12
            rec_lo = per_class_recall(scores, truth, tau=0.5)
            rec_hi = per_class_recall(scores, truth, tau=0.75)
            assert (rec_hi <= rec_lo + 1e-12).all()

    def test_per_class_recall_matches_oracle(self, rng):
        scores = rng.random(size=(12, 4))
        truth = [set(np.flatnonzero(rng.random(4) > 0.4)) for _ in range(12)]
        truth[0] = {0, 1, 2, 3}
        got = per_class_recall(scores, truth, tau=0.3)
        want = []
        for j in range(4):
            gp = sum(1 for t in truth if j in t)
            tp = sum(1 for i, t in enumerate(truth) if j in t and scores[i][j] > 0.3)
            if gp > 0:
                want.append(tp / gp)
        assert np.allclose(got, want, atol=1e-12)
