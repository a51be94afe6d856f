"""Evaluation metrics (AUC, AUPRC, F1) and the serializable report they feed."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import OneClassOnly

# a score of exactly 0.5 maps to the positive label everywhere in this package
DECISION_THRESHOLD = 0.5


def _group_ends(sorted_scores: np.ndarray) -> np.ndarray:
    """End index (exclusive) of each run of equal values in a sorted array."""
    return np.append(np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1]) + 1,
                     sorted_scores.size)


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing the mean rank of their group."""
    order = np.argsort(scores, kind="mergesort")
    ends = _group_ends(scores[order])
    starts = np.concatenate(([0], ends[:-1]))
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
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
        raise OneClassOnly("AUPRC is undefined without positive labels")
    order = np.argsort(-s, kind="mergesort")
    y_sorted = y[order]
    last = _group_ends(s[order]) - 1
    tp = np.cumsum(y_sorted == 1)[last]
    fp = np.cumsum(y_sorted == 0)[last]
    terms = tp / (tp + fp) * np.diff(tp, prepend=0) / n_pos
    # accumulate adds in sequence, one threshold group at a time; np.sum adds
    # pairwise and would round differently
    return float(np.add.accumulate(terms)[-1])


def confusion(pred, labels, n_classes: int) -> np.ndarray:
    """Confusion counts; rows are true classes, columns predictions."""
    p = np.asarray(pred, dtype=np.int64)
    y = np.asarray(labels, dtype=np.int64)
    out = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(out, (y, p), 1)
    return out


def _f1(cm: np.ndarray) -> float:
    """F1 of class 1 from a 2x2 confusion matrix, macro one-vs-rest otherwise.

    A class with no predicted and no actual members scores 0.
    """
    tp = np.diag(cm)
    denom = cm.sum(axis=0) + cm.sum(axis=1)
    per_class = np.divide(2.0 * tp, denom, out=np.zeros(tp.size), where=denom > 0)
    return float(per_class[1]) if cm.shape[0] == 2 else float(per_class.mean())


def f1(pred, labels, n_classes: int = 2) -> float:
    """F1 of class 1 for binary labels, macro one-vs-rest average otherwise.

    Predictions and labels are class indices in [0, n_classes). Degenerate
    cases (no predicted and no actual members of a class) score 0 for that
    class.
    """
    return _f1(confusion(pred, labels, n_classes))


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
        return asdict(self)


def evaluate_binary(scores, labels, silhouette: float | None = None) -> EvalReport:
    """Report for positive-class scores; labels are predicted 1 at score >= 0.5."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    cm = confusion((s >= DECISION_THRESHOLD).astype(np.int64), y, 2)
    return EvalReport(
        auc=auc(s, y),
        auprc=auprc(s, y),
        f1=_f1(cm),
        n_test=int(y.size),
        support=cm.sum(axis=1).tolist(),
        confusion=cm.tolist(),
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
        raise OneClassOnly("no class present in labels")
    return float(np.mean(vals))


def evaluate_multiclass(proba, labels, n_classes: int) -> EvalReport:
    """Macro one-vs-rest report; per-class AUC/AUPRC averaged over present classes."""
    p = np.asarray(proba, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    pred = p.argmax(axis=1)
    aucs = []
    for c in range(n_classes):
        mask = (y == c).astype(np.int64)
        if 0 < mask.sum() < y.size:
            aucs.append(auc(p[:, c], mask))
    cm = confusion(pred, y, n_classes)
    return EvalReport(
        auc=float(np.mean(aucs)) if aucs else 0.5,
        auprc=macro_auprc(p, y, n_classes),
        f1=_f1(cm),
        n_test=int(y.size),
        support=cm.sum(axis=1).tolist(),
        confusion=cm.tolist(),
    )
