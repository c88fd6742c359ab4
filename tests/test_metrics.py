"""Metric tests: every aggregate is recomputed from a brute-force confusion
count, AUC is checked against the rank-sum (Mann-Whitney) statistic with ties
counted one half, and report files must round-trip and be reproducible.
"""

import numpy as np
import pytest

from distillfuse.metrics import (
    MetricsReport,
    RocCurve,
    compute_metrics,
    emit_report,
    roc_auc,
)

from helpers import parse_metrics_file


def _brute_force_metrics(preds, labels):
    """Confusion-matrix recount with explicit loops; no shared code."""
    preds = list(preds)
    labels = list(labels)
    n = len(labels)
    acc = sum(1 for p, y in zip(preds, labels) if p == y) / n
    out = {"accuracy": acc, "precision": [], "recall": [], "f1": [], "support": []}
    for c in (0, 1):
        tp = sum(1 for p, y in zip(preds, labels) if p == c and y == c)
        fp = sum(1 for p, y in zip(preds, labels) if p == c and y != c)
        fn = sum(1 for p, y in zip(preds, labels) if p != c and y == c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        out["precision"].append(prec)
        out["recall"].append(rec)
        out["f1"].append(f1)
        out["support"].append(tp + fn)
    w = [s / n for s in out["support"]]
    for key in ("precision", "recall", "f1"):
        out[key + "_weighted"] = w[0] * out[key][0] + w[1] * out[key][1]
    return out


def _mann_whitney_auc(scores, labels):
    """P(score_pos > score_neg) + 0.5 P(tie), by exhaustive pairing."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestComputeMetrics:
    def test_against_brute_force_100_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]  # keep both classes present
            preds = rng.integers(0, 2, size=n)
            rep = compute_metrics(preds, labels)
            ref = _brute_force_metrics(preds, labels)
            assert abs(rep.accuracy - ref["accuracy"]) < 1e-9
            for c in (0, 1):
                assert abs(rep.precision[c] - ref["precision"][c]) < 1e-9
                assert abs(rep.recall[c] - ref["recall"][c]) < 1e-9
                assert abs(rep.f1[c] - ref["f1"][c]) < 1e-9
                assert rep.support[c] == ref["support"][c]
            assert abs(rep.precision_weighted - ref["precision_weighted"]) < 1e-9
            assert abs(rep.recall_weighted - ref["recall_weighted"]) < 1e-9
            assert abs(rep.f1_weighted - ref["f1_weighted"]) < 1e-9

    def test_f1_harmonic_identity(self):
        # wherever precision + recall > 0, F1 must equal exactly
        # 2 p r / (p + r)
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(4, 30))
            rep = compute_metrics(rng.integers(0, 2, size=n),
                                  rng.integers(0, 2, size=n))
            for c in (0, 1):
                p, r = rep.precision[c], rep.recall[c]
                if p + r > 0:
                    assert abs(rep.f1[c] - 2 * p * r / (p + r)) < 1e-12
                else:
                    assert rep.f1[c] == 0.0

    def test_perfect_predictions(self):
        labels = np.array([0, 1, 1, 0, 1])
        rep = compute_metrics(labels, labels)
        assert rep.accuracy == 1.0
        assert rep.precision == (1.0, 1.0)
        assert rep.recall == (1.0, 1.0)
        assert rep.f1 == (1.0, 1.0)
        assert rep.f1_weighted == 1.0
        assert not rep.zero_division

    def test_zero_division_flagged_and_resolved_to_zero(self):
        # model never predicts class 1: precision_1 is 0/0 -> 0, flag set
        rep = compute_metrics([0, 0, 0, 0], [0, 0, 1, 1])
        assert rep.precision[1] == 0.0
        assert rep.recall[1] == 0.0
        assert rep.f1[1] == 0.0
        assert rep.zero_division
        assert rep.accuracy == 0.5

    def test_support_weights(self):
        # 3 of class 0, 1 of class 1: weighted = 0.75 * m0 + 0.25 * m1
        preds = [0, 0, 1, 1]
        labels = [0, 0, 0, 1]
        rep = compute_metrics(preds, labels)
        assert rep.support == (3, 1)
        assert abs(rep.precision_weighted
                   - (0.75 * rep.precision[0] + 0.25 * rep.precision[1])) < 1e-15

    def test_validation(self):
        with pytest.raises(ValueError, match="0 and 1"):
            compute_metrics([0, 2], [0, 1])
        with pytest.raises(ValueError, match="lengths differ"):
            compute_metrics([0, 1, 0], [0, 1])
        with pytest.raises(ValueError, match="non-empty"):
            compute_metrics([], [])
        with pytest.raises(ValueError, match="vector"):
            compute_metrics(np.zeros((2, 2)), np.zeros((2, 2)))


class TestRocAuc:
    def test_matches_mann_whitney_on_random_instances(self):
        rng = np.random.default_rng(2)
        for trial in range(60):
            n = int(rng.integers(4, 40))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            if trial % 2 == 0:
                scores = rng.normal(size=n)  # continuous, no ties
            else:
                scores = rng.integers(0, 4, size=n).astype(float)  # heavy ties
            _, auc = roc_auc(scores, labels)
            assert abs(auc - _mann_whitney_auc(scores, labels)) < 1e-9

    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        curve, auc = roc_auc(scores, labels)
        assert auc == 1.0
        # the all-positive-before-any-negative corner is on the curve
        assert any((fpr == 0.0 and tpr == 1.0) for fpr, tpr, _ in curve.points)

    def test_reversed_scores_give_zero(self):
        _, auc = roc_auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])
        assert auc == 0.0

    def test_all_tied_scores_give_half(self):
        _, auc = roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
        assert abs(auc - 0.5) < 1e-12

    def test_curve_anchors_and_monotonicity(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=25)
        labels = rng.integers(0, 2, size=25)
        labels[0], labels[1] = 0, 1
        curve, _ = roc_auc(scores, labels)
        pts = curve.points
        assert pts[0, 0] == 0.0 and pts[0, 1] == 0.0
        assert pts[0, 2] == np.inf
        assert pts[-1, 0] == 1.0 and pts[-1, 1] == 1.0
        assert np.all(np.diff(pts[:, 0]) >= 0)
        assert np.all(np.diff(pts[:, 1]) >= 0)
        # thresholds strictly decreasing after the anchor
        assert np.all(np.diff(pts[1:, 2]) < 0)

    def test_tied_scores_grouped_into_one_point(self):
        curve, _ = roc_auc([0.7, 0.7, 0.7, 0.1], [1, 0, 1, 0])
        # anchor + one point for 0.7 + one for 0.1
        assert curve.points.shape[0] == 3

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="single class"):
            roc_auc([0.1, 0.9], [1, 1])
        with pytest.raises(ValueError, match="single class"):
            roc_auc([0.1, 0.9], [0, 0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ"):
            roc_auc([0.1, 0.9, 0.5], [0, 1])

    @pytest.mark.parametrize("scores, index", [
        ([np.nan, 0.9, 0.1, 0.4], 0),  # on a positive: used to give 0.5
        ([0.8, 0.9, np.nan, 0.4], 2),  # on a negative: used to give 1.0
        ([0.8, np.inf, 0.1, 0.4], 1),
        ([0.8, 0.9, 0.1, -np.inf], 3),
        ([0.8, np.nan, -np.inf, 0.4], 1),  # the first bad index is named
    ])
    def test_non_finite_score_rejected(self, scores, index):
        with pytest.raises(ValueError, match=f"index {index} "):
            roc_auc(scores, [1, 1, 0, 0])

    def test_curve_shape_validation(self):
        with pytest.raises(ValueError, match="points"):
            RocCurve(np.zeros((3, 2)))


class TestReportFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 2, size=30)
        labels[0], labels[1] = 0, 1
        preds = rng.integers(0, 2, size=30)
        scores = rng.uniform(size=30)
        rep = compute_metrics(preds, labels)
        curve, auc = roc_auc(scores, labels)
        rep.auc = auc
        mpath, rpath = emit_report(rep, curve, tmp_path)
        assert mpath.name == "metrics.txt"
        assert rpath.name == "roc.csv"
        back = parse_metrics_file(mpath)
        assert back["n"] == rep.n
        assert back["accuracy"] == rep.accuracy  # full precision round-trip
        assert back["f1_weighted"] == rep.f1_weighted
        assert back["auc"] == auc
        assert back["zero_division"] == rep.zero_division
        assert back["support_class0"] == rep.support[0]
        rows = rpath.read_text().strip().split("\n")
        assert rows[0] == "fpr,tpr,threshold"
        assert len(rows) == 1 + curve.points.shape[0]
        got = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
        np.testing.assert_array_equal(got, curve.points)

    def test_identical_inputs_produce_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 2, size=20)
        labels[0], labels[1] = 0, 1
        preds = rng.integers(0, 2, size=20)
        scores = rng.uniform(size=20)
        paths = []
        for sub in ("a", "b"):
            rep = compute_metrics(preds, labels)
            curve, auc = roc_auc(scores, labels)
            rep.auc = auc
            paths.append(emit_report(rep, curve, tmp_path / sub))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_no_curve_writes_no_roc(self, tmp_path):
        rep = compute_metrics([0, 1], [0, 1])
        mpath, rpath = emit_report(rep, None, tmp_path)
        assert mpath.name == "metrics.txt"
        assert rpath is None
        assert not (tmp_path / "roc.csv").exists()
        back = parse_metrics_file(mpath)
        assert "auc" not in back
        assert back["accuracy"] == 1.0

    def test_auc_line_only_when_present(self, tmp_path):
        rep = compute_metrics([0, 1], [0, 1])
        mpath, _ = emit_report(rep, None, tmp_path)
        text = mpath.read_text()
        assert "auc=" not in text
        rep.auc = 0.875
        mpath2, _ = emit_report(rep, None, tmp_path / "with_auc")
        assert "auc=0.875" in mpath2.read_text()
