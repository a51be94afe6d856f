"""Local classifiers trained per cluster."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cluster_core
from .dataset import LabeledDataset, _is_int, _is_number
from .errors import DimensionMismatch, EmptyCluster, InvalidSpec, NotBinary, OneClassOnly

KINDS = ("logreg", "ridge", "perceptron", "knn")

# probabilities are clamped into [PROB_FLOOR, 1 - PROB_FLOOR] before logs
PROB_FLOOR = 1e-7


@dataclass(frozen=True)
class ClassifierSpec:
    """Which local classifier to train and with what hyperparameters."""

    kind: str = "logreg"
    learning_rate: float = 0.1
    l2_penalty: float = 1e-4
    epochs: int = 500
    k_neighbors: int = 5
    ridge_lambda: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown classifier kind {self.kind!r}")
        for name in ("learning_rate", "l2_penalty", "ridge_lambda"):
            if not _is_number(getattr(self, name)):
                raise InvalidSpec(f"{name} must be a finite number, got {getattr(self, name)!r}")
        for name in ("epochs", "k_neighbors"):
            if not _is_int(getattr(self, name)):
                raise InvalidSpec(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.learning_rate <= 0 or self.epochs < 1 or self.k_neighbors < 1:
            raise InvalidSpec("learning_rate, epochs and k_neighbors must be positive")
        if self.l2_penalty < 0 or self.ridge_lambda < 0:
            raise InvalidSpec("penalties must be non-negative")


@dataclass
class TrainedClassifier:
    """A fitted local model. weights are (d+1,) with the bias last for linear kinds.

    `kind` "constant" marks the degenerate single-class case and always
    returns `constant_proba`.
    """

    kind: str
    weights: np.ndarray | None = None
    train_features: np.ndarray | None = None
    train_labels: np.ndarray | None = None
    k_neighbors: int = 5
    constant_proba: float | None = None
    training_log: float = math.nan


def _augment(x: np.ndarray) -> np.ndarray:
    return np.hstack([x, np.ones((x.shape[0], 1))])


def _sigmoid(t: np.ndarray, e: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-t)) from e = exp(-|t|), evaluated stably."""
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softplus(t: np.ndarray, e: np.ndarray) -> np.ndarray:
    """log(1 + exp(t)) from e = exp(-|t|), evaluated stably."""
    return np.maximum(t, 0.0) + np.log1p(e)


def logreg_loss_grad(x_aug: np.ndarray, y: np.ndarray, beta: np.ndarray,
                     l2: float) -> tuple[float, np.ndarray]:
    """Summed log-loss with an L2 penalty (bias unpenalized) and its gradient.

    Uses the identity -y*log(p) - (1-y)*log(1-p) = softplus(t) - y*t for
    t = x.beta, which stays finite for any t.
    """
    t = x_aug @ beta
    e = np.exp(-np.abs(t))
    loss = float((_softplus(t, e) - y * t).sum())
    penalty = 0.5 * l2 * float(beta[:-1] @ beta[:-1])
    grad = x_aug.T @ (_sigmoid(t, e) - y)
    grad[:-1] += l2 * beta[:-1]
    return loss + penalty, grad


def _check_binary(y: np.ndarray) -> None:
    if y.size == 0 or not np.isin(y, (0, 1)).all():
        raise NotBinary("labels must be 0/1")


def train_logreg(x: np.ndarray, y: np.ndarray, spec: ClassifierSpec) -> TrainedClassifier:
    """Full-batch gradient descent from zero weights with backtracking steps.

    The step size halves whenever a step would increase the penalized loss,
    so the recorded loss sequence is non-increasing. Deterministic.
    """
    _check_binary(y)
    xa = _augment(np.asarray(x, dtype=np.float64))
    yv = np.asarray(y, dtype=np.float64)
    beta = np.zeros(xa.shape[1])
    lr = spec.learning_rate
    loss, grad = logreg_loss_grad(xa, yv, beta, spec.l2_penalty)
    for _ in range(spec.epochs):
        stepped = False
        for _ in range(60):
            candidate = beta - lr * grad
            new_loss, new_grad = logreg_loss_grad(xa, yv, candidate, spec.l2_penalty)
            if new_loss <= loss:
                beta, loss, grad = candidate, new_loss, new_grad
                stepped = True
                break
            lr *= 0.5
        if not stepped:
            break
    return TrainedClassifier(kind="logreg", weights=beta, training_log=loss)


def train_ridge(x: np.ndarray, y: np.ndarray, spec: ClassifierSpec) -> TrainedClassifier:
    """Closed-form ridge regression on +-1 targets; the bias is unpenalized."""
    _check_binary(y)
    xa = _augment(np.asarray(x, dtype=np.float64))
    t = 2.0 * np.asarray(y, dtype=np.float64) - 1.0
    reg = spec.ridge_lambda * np.eye(xa.shape[1])
    reg[-1, -1] = 0.0
    beta = np.linalg.solve(xa.T @ xa + reg, xa.T @ t)
    resid = xa @ beta - t
    return TrainedClassifier(kind="ridge", weights=beta,
                             training_log=float((resid * resid).mean()))


def train_perceptron(x: np.ndarray, y: np.ndarray, spec: ClassifierSpec) -> TrainedClassifier:
    """Classic mistake-driven updates in fixed row order; stops at zero mistakes."""
    _check_binary(y)
    xa = _augment(np.asarray(x, dtype=np.float64))
    t = 2.0 * np.asarray(y, dtype=np.float64) - 1.0
    w = np.zeros(xa.shape[1])
    mistakes = xa.shape[0]
    for _ in range(spec.epochs):
        mistakes = 0
        for i in range(xa.shape[0]):
            if t[i] * (xa[i] @ w) <= 0.0:
                w += spec.learning_rate * t[i] * xa[i]
                mistakes += 1
        if mistakes == 0:
            break
    return TrainedClassifier(kind="perceptron", weights=w, training_log=float(mistakes))


def train_knn(x: np.ndarray, y: np.ndarray, spec: ClassifierSpec) -> TrainedClassifier:
    """Memorize the training rows; scoring is the positive vote fraction."""
    _check_binary(y)
    return TrainedClassifier(kind="knn",
                             train_features=np.array(x, dtype=np.float64, copy=True),
                             train_labels=np.array(y, dtype=np.int64, copy=True),
                             k_neighbors=spec.k_neighbors,
                             training_log=0.0)


_TRAINERS = {
    "logreg": train_logreg,
    "ridge": train_ridge,
    "perceptron": train_perceptron,
    "knn": train_knn,
}


def train_classifier(x: np.ndarray, y: np.ndarray, spec: ClassifierSpec) -> TrainedClassifier:
    """Dispatch on spec.kind."""
    return _TRAINERS[spec.kind](x, y, spec)


def constant_classifier(label: int) -> TrainedClassifier:
    """Used for single-class clusters; probability clamped away from 0/1."""
    p = 1.0 - PROB_FLOOR if label == 1 else PROB_FLOOR
    return TrainedClassifier(kind="constant", constant_proba=p, training_log=0.0)


def predict_proba_batch(clf: TrainedClassifier, x: np.ndarray) -> np.ndarray:
    """Positive-class probability for each row of x."""
    x = np.asarray(x, dtype=np.float64)
    if clf.kind == "constant":
        return np.full(x.shape[0], clf.constant_proba)
    expected = (clf.train_features.shape[1] if clf.kind == "knn"
                else clf.weights.shape[0] - 1)
    if x.shape[1] != expected:
        raise DimensionMismatch(f"expected {expected} features, got {x.shape[1]}")
    if clf.kind == "knn":
        # rows in blocks whose (rows, n_train, d) difference tensor stays bounded
        train = clf.train_features
        k = min(clf.k_neighbors, train.shape[0])
        step = max(1, cluster_core.ROUTE_BLOCK_ELEMENTS // max(1, train.size))
        out = np.empty(x.shape[0])
        for start in range(0, x.shape[0], step):
            diff = x[start:start + step, None, :] - train[None, :, :]
            np.multiply(diff, diff, out=diff)
            order = np.argsort(diff.sum(axis=2), axis=1, kind="stable")[:, :k]
            out[start:start + step] = clf.train_labels[order].mean(axis=1)
        return out
    t = _augment(x) @ clf.weights
    return _sigmoid(t, np.exp(-np.abs(t)))


def logloss_bounds(x: np.ndarray, y: np.ndarray, beta: np.ndarray) -> tuple[float, float, float]:
    """Sandwich the summed log-loss of a linear scorer between two affine
    functions of the projected class centroids.

    With c = max_i |x_i . beta|, N the row count and mu_pos/mu_neg the class
    mean rows, both bounds take the form `const - (N_pos/2) beta.mu_pos +
    (N_neg/2) beta.mu_neg`; the lower bound uses const = N*log(2), the upper
    uses const = N*(log(1+e^c) - c/2). Returns (lower, upper, actual). No
    bias handling: pass an augmented matrix if beta includes a bias term.
    """
    x = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.int64)
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (x.shape[1],):
        raise DimensionMismatch(f"beta shape {beta.shape} does not match {x.shape[1]} columns")
    n_pos = int((yv == 1).sum())
    n_neg = int((yv == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise OneClassOnly("both classes are required")
    t = x @ beta
    actual = float((_softplus(t, np.exp(-np.abs(t))) - yv * t).sum())
    c = float(np.abs(t).max())
    n = x.shape[0]
    mu_pos = x[yv == 1].mean(axis=0)
    mu_neg = x[yv == 0].mean(axis=0)
    centroid_term = 0.5 * (n_pos * float(beta @ mu_pos) - n_neg * float(beta @ mu_neg))
    lower = n * math.log(2.0) - centroid_term
    upper = n * (float(_softplus(c, np.exp(-c))) - c / 2.0) - centroid_term
    return lower, upper, actual


def train_per_cluster(state, ds: LabeledDataset, spec: ClassifierSpec) -> list[TrainedClassifier]:
    """One classifier per cluster of `state.assignments`.

    Single-class clusters get a constant classifier; empty clusters are an
    error (the fit never produces them).
    """
    assign = np.asarray(state.assignments)
    out = []
    for j in range(len(state.sizes)):
        rows = assign == j
        if not rows.any():
            raise EmptyCluster(f"cluster {j} has no training rows")
        yj = ds.labels[rows]
        if (yj == yj[0]).all():
            out.append(constant_classifier(int(yj[0])))
        else:
            out.append(train_classifier(ds.features[rows], yj, spec))
    return out


def classifier_to_dict(clf: TrainedClassifier) -> dict:
    """JSON-ready dict; arrays become nested lists."""
    return {
        "kind": clf.kind,
        "weights": None if clf.weights is None else clf.weights.tolist(),
        "train_features": None if clf.train_features is None else clf.train_features.tolist(),
        "train_labels": None if clf.train_labels is None else clf.train_labels.tolist(),
        "k_neighbors": clf.k_neighbors,
        "constant_proba": clf.constant_proba,
        "training_log": clf.training_log,
    }


def classifier_from_dict(d: dict) -> TrainedClassifier:
    return TrainedClassifier(
        kind=d["kind"],
        weights=None if d["weights"] is None else np.asarray(d["weights"], dtype=np.float64),
        train_features=None if d["train_features"] is None else np.asarray(d["train_features"], dtype=np.float64),
        train_labels=None if d["train_labels"] is None else np.asarray(d["train_labels"], dtype=np.int64),
        k_neighbors=int(d["k_neighbors"]),
        constant_proba=d["constant_proba"],
        training_log=float(d["training_log"]),
    )
