"""Binary classification metrics, ROC/AUC, and report files.

Accuracy, per-class precision/recall/F1 (0/0 conventions resolve to 0 and
set a flag), support-weighted aggregates, and a threshold-sweep ROC whose
trapezoidal area equals the Mann-Whitney statistic with ties counted 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .files import atomic_write

__all__ = [
    "MetricsReport",
    "compute_metrics",
    "emit_report",
    "roc_auc",
]


@dataclass
class MetricsReport:
    n: int
    accuracy: float
    precision: tuple[float, float]
    recall: tuple[float, float]
    f1: tuple[float, float]
    support: tuple[int, int]
    precision_weighted: float
    recall_weighted: float
    f1_weighted: float
    zero_division: bool
    auc: float | None = None


def _validate_binary(values: np.ndarray, name: str) -> np.ndarray:
    values = np.asarray(values)
    if values.ndim != 1 or values.size == 0:
        raise ValueError(f"{name} must be a non-empty vector")
    if not np.all(np.isin(values, (0, 1))):
        raise ValueError(f"{name} must contain only 0 and 1")
    return values.astype(np.int64)


def compute_metrics(preds, labels) -> MetricsReport:
    preds = _validate_binary(preds, "preds")
    labels = _validate_binary(labels, "labels")
    if preds.shape != labels.shape:
        raise ValueError(f"preds and labels lengths differ: {preds.size} vs {labels.size}")
    n = labels.size
    accuracy = float(np.mean(preds == labels))
    precision, recall, f1, support = [], [], [], []
    zero_division = False
    for c in (0, 1):
        tp = int(np.sum((preds == c) & (labels == c)))
        fp = int(np.sum((preds == c) & (labels != c)))
        fn = int(np.sum((preds != c) & (labels == c)))
        if tp + fp == 0:
            p = 0.0
            zero_division = True
        else:
            p = tp / (tp + fp)
        if tp + fn == 0:
            r = 0.0
            zero_division = True
        else:
            r = tp / (tp + fn)
        if p + r == 0.0:
            f = 0.0
            zero_division = True
        else:
            f = 2.0 * p * r / (p + r)
        precision.append(p)
        recall.append(r)
        f1.append(f)
        support.append(tp + fn)
    weights = np.array(support) / n
    return MetricsReport(
        n=n,
        accuracy=accuracy,
        precision=tuple(precision),
        recall=tuple(recall),
        f1=tuple(f1),
        support=tuple(support),
        precision_weighted=float(np.dot(weights, precision)),
        recall_weighted=float(np.dot(weights, recall)),
        f1_weighted=float(np.dot(weights, f1)),
        zero_division=zero_division,
    )


def roc_auc(scores, labels) -> tuple[np.ndarray, float]:
    """Threshold-sweep ROC over the distinct scores (ties grouped) and its
    trapezoidal area. Undefined when only one class is present; a NaN or
    infinite score raises, since it has no rank. The curve's (K, 3) rows are
    (fpr, tpr, threshold), fpr non-decreasing from (0, 0) to (1, 1); a row's
    threshold is the lowest score called positive, +inf at (0, 0)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = _validate_binary(labels, "labels")
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ValueError(f"scores and labels lengths differ: {scores.shape} vs {labels.shape}")
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise ValueError(f"score at index {bad[0]} is {scores[bad[0]]}, not finite")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: labels contain a single class")
    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    l_sorted = labels[order]
    points = [(0.0, 0.0, np.inf)]
    tp = fp = 0
    i = 0
    while i < s_sorted.size:
        j = i
        while j + 1 < s_sorted.size and s_sorted[j + 1] == s_sorted[i]:
            j += 1
        tp += int(l_sorted[i : j + 1].sum())
        fp += (j - i + 1) - int(l_sorted[i : j + 1].sum())
        points.append((fp / n_neg, tp / n_pos, s_sorted[i]))
        i = j + 1
    curve = np.array(points)
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return curve, float(trapezoid(curve[:, 1], curve[:, 0]))


def _fmt(x: float) -> str:
    return repr(float(x))


def emit_report(report: MetricsReport, curve: np.ndarray | None,
                out_dir) -> tuple[Path, Path | None]:
    """Write ``metrics.txt`` (key=value lines) and ``roc.csv`` (``curve``'s rows) under out_dir;
    with no ``curve``, an earlier ``roc.csv`` there is removed.

    Float values are written with full round-trip precision; identical inputs
    produce byte-identical files.
    """
    out_dir = Path(out_dir)
    lines = [
        f"n={report.n}",
        f"accuracy={_fmt(report.accuracy)}",
        f"precision_class0={_fmt(report.precision[0])}",
        f"precision_class1={_fmt(report.precision[1])}",
        f"recall_class0={_fmt(report.recall[0])}",
        f"recall_class1={_fmt(report.recall[1])}",
        f"f1_class0={_fmt(report.f1[0])}",
        f"f1_class1={_fmt(report.f1[1])}",
        f"support_class0={report.support[0]}",
        f"support_class1={report.support[1]}",
        f"precision_weighted={_fmt(report.precision_weighted)}",
        f"recall_weighted={_fmt(report.recall_weighted)}",
        f"f1_weighted={_fmt(report.f1_weighted)}",
        f"zero_division={'true' if report.zero_division else 'false'}",
    ]
    if report.auc is not None:
        lines.append(f"auc={_fmt(report.auc)}")
    metrics_path = out_dir / "metrics.txt"
    atomic_write(metrics_path, "\n".join(lines) + "\n")
    roc_path = out_dir / "roc.csv"
    if curve is None:
        roc_path.unlink(missing_ok=True)
        return metrics_path, None
    atomic_write(roc_path, "fpr,tpr,threshold\n" + "".join(
        f"{_fmt(fpr)},{_fmt(tpr)},{_fmt(thr)}\n" for fpr, tpr, thr in curve))
    return metrics_path, roc_path
