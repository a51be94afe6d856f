"""Evaluation metrics (AUC, AUPRC, F1) and the serializable report they feed."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import NoPositives, OneClassOnly

# a score of exactly 0.5 maps to the positive label everywhere in this package
DECISION_THRESHOLD = 0.5


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing the mean rank of their group."""
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    ranks = np.empty(scores.size, dtype=np.float64)
    start = 0
    for stop in range(1, scores.size + 1):
        if stop == scores.size or sorted_scores[stop] != sorted_scores[start]:
            ranks[order[start:stop]] = 0.5 * (start + stop + 1)
            start = stop
    return ranks


def auc(scores, labels) -> float:
    """Area under the ROC curve via the rank statistic; ties get half credit."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise OneClassOnly("AUC needs both classes present")
    ranks = _average_ranks(s)
    pos_rank_sum = ranks[y == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def auprc(scores, labels) -> float:
    """Average precision with tied scores handled as one threshold group."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    n_pos = int((y == 1).sum())
    if n_pos == 0:
        raise NoPositives("AUPRC is undefined without positive labels")
    order = np.argsort(-s, kind="mergesort")
    s_sorted = s[order]
    y_sorted = y[order]
    ap = 0.0
    tp = fp = 0
    prev_tp = 0
    start = 0
    for stop in range(1, s.size + 1):
        if stop == s.size or s_sorted[stop] != s_sorted[start]:
            group = y_sorted[start:stop]
            tp += int((group == 1).sum())
            fp += int((group == 0).sum())
            precision = tp / (tp + fp)
            ap += precision * (tp - prev_tp) / n_pos
            prev_tp = tp
            start = stop
    return float(ap)


def _binary_f1(pred: np.ndarray, y: np.ndarray, positive: int) -> float:
    tp = int(((pred == positive) & (y == positive)).sum())
    fp = int(((pred == positive) & (y != positive)).sum())
    fn = int(((pred != positive) & (y == positive)).sum())
    denom = 2 * tp + fp + fn
    return 0.0 if denom == 0 else 2.0 * tp / denom


def f1(pred, labels, n_classes: int = 2) -> float:
    """F1 of class 1 for binary labels, macro one-vs-rest average otherwise.

    Degenerate cases (no predicted and no actual members of a class) score 0
    for that class.
    """
    p = np.asarray(pred, dtype=np.int64)
    y = np.asarray(labels, dtype=np.int64)
    if n_classes == 2:
        return _binary_f1(p, y, 1)
    return float(np.mean([_binary_f1(p, y, c) for c in range(n_classes)]))


def confusion(pred, labels, n_classes: int) -> np.ndarray:
    """Confusion counts; rows are true classes, columns predictions."""
    p = np.asarray(pred, dtype=np.int64)
    y = np.asarray(labels, dtype=np.int64)
    out = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(out, (y, p), 1)
    return out


@dataclass
class EvalReport:
    """Evaluation metrics for one model on one test set."""

    auc: float
    auprc: float
    f1: float
    n_test: int
    support: list[int]
    confusion: list[list[int]]
    silhouette: float | None = None

    def to_dict(self) -> dict:
        return {
            "auc": self.auc,
            "auprc": self.auprc,
            "f1": self.f1,
            "n_test": self.n_test,
            "support": list(self.support),
            "confusion": [list(row) for row in self.confusion],
            "silhouette": self.silhouette,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @staticmethod
    def csv_header() -> list[str]:
        return ["auc", "auprc", "f1", "n_test", "silhouette"]

    def csv_row(self) -> list[str]:
        sil = "" if self.silhouette is None else repr(float(self.silhouette))
        return [repr(float(self.auc)), repr(float(self.auprc)), repr(float(self.f1)),
                str(self.n_test), sil]

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        return cls(d["auc"], d["auprc"], d["f1"], d["n_test"], list(d["support"]),
                   [list(r) for r in d["confusion"]], d.get("silhouette"))


def evaluate_binary(scores, labels, silhouette: float | None = None) -> EvalReport:
    """Report for positive-class scores; labels are predicted 1 at score >= 0.5."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    pred = (s >= DECISION_THRESHOLD).astype(np.int64)
    support = [int((y == c).sum()) for c in (0, 1)]
    return EvalReport(
        auc=auc(s, y),
        auprc=auprc(s, y),
        f1=f1(pred, y, 2),
        n_test=int(y.size),
        support=support,
        confusion=confusion(pred, y, 2).tolist(),
        silhouette=silhouette,
    )


def macro_auprc(proba: np.ndarray, labels: np.ndarray, n_classes: int) -> float:
    """One-vs-rest AUPRC averaged over the classes present in `labels`."""
    y = np.asarray(labels, dtype=np.int64)
    vals = []
    for c in range(n_classes):
        mask = (y == c).astype(np.int64)
        if mask.sum() == 0:
            continue
        vals.append(auprc(proba[:, c], mask))
    if not vals:
        raise NoPositives("no class present in labels")
    return float(np.mean(vals))


def evaluate_multiclass(proba, labels, n_classes: int, silhouette: float | None = None) -> EvalReport:
    """Macro one-vs-rest report; per-class AUC/AUPRC averaged over present classes."""
    p = np.asarray(proba, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    pred = p.argmax(axis=1)
    aucs = []
    for c in range(n_classes):
        mask = (y == c).astype(np.int64)
        if 0 < mask.sum() < y.size:
            aucs.append(auc(p[:, c], mask))
    support = [int((y == c).sum()) for c in range(n_classes)]
    return EvalReport(
        auc=float(np.mean(aucs)) if aucs else 0.5,
        auprc=macro_auprc(p, y, n_classes),
        f1=f1(pred, y, n_classes),
        n_test=int(y.size),
        support=support,
        confusion=confusion(pred, y, n_classes).tolist(),
        silhouette=silhouette,
    )
