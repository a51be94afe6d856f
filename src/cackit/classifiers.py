"""Local classifiers trained per cluster."""

from __future__ import annotations

import math
import warnings
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


def _linear_proba(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sigmoid of x . w[:-1] + w[-1] for each row of x, where w holds one
    weight row (bias last) per row of x, or a single row for all of them.

    A row-wise product rather than a matrix product, so a row scores the
    same bits alone or in a batch of any size.
    """
    t = np.einsum("nd,nd->n", np.ascontiguousarray(x), w[:, :-1]) + w[:, -1]
    return _sigmoid(t, np.exp(-np.abs(t)))


def _softplus(t: np.ndarray, e: np.ndarray) -> np.ndarray:
    """log(1 + exp(t)) from e = exp(-|t|), evaluated stably."""
    return np.maximum(t, 0.0) + np.log1p(e)


def _check_binary(y: np.ndarray) -> None:
    if y.size == 0 or not np.isin(y, (0, 1)).all():
        raise NotBinary("labels must be 0/1")


def _train_logreg_lockstep(xa: np.ndarray, y: np.ndarray, ends: list[int],
                           spec: ClassifierSpec) -> tuple[list[TrainedClassifier], list[int]]:
    """`train_logreg` of several clusters at once, bit for bit: cluster j is
    rows ends[j]..ends[j+1] of the augmented matrix `xa`, with 0/1 labels `y`.
    Returns the classifiers and the clusters that accepted no step past the
    zero start, which keep zero weights and a loss of n*log 2.

    Each cluster runs its own backtracking descent, with its own step size,
    epoch count and stop after 60 halvings, and every unfinished cluster
    tries one candidate step per pass. Only the products whose bits depend
    on a cluster's shape run per cluster, on its own rows: x.beta (into its
    slice of one shared t), the loss sum, the penalty dot and x.T @ r.
    Every elementwise step runs once over all rows or over the (m, d+1)
    weight table, and an elementwise ufunc gives each entry the same bits
    at any array length. The gradient is computed only for accepted steps.
    """
    m, l2 = len(ends) - 1, spec.l2_penalty
    rows = [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]
    xs = [xa[r] for r in rows]
    beta, cand, grad, new_grad = (np.zeros((m, xa.shape[1])) for _ in range(4))
    step = np.full((m, 1), spec.learning_rate)
    t = np.zeros(xa.shape[0])
    loss, epochs, halvings = [math.inf] * m, [-1] * m, [0] * m
    live = list(range(m))  # the zero start is every cluster's first accepted step
    while live:
        for j in live:
            np.matmul(xs[j], cand[j], out=t[rows[j]])
        e = np.exp(-np.abs(t))
        terms = _softplus(t, e) - y * t
        took = np.zeros(m, dtype=bool)
        still = []
        for j in live:
            new_loss = float(terms[rows[j]].sum()) + 0.5 * l2 * float(cand[j, :-1] @ cand[j, :-1])
            if new_loss <= loss[j]:
                loss[j], epochs[j], halvings[j], took[j] = new_loss, epochs[j] + 1, 0, True
                if epochs[j] < spec.epochs:
                    still.append(j)
            else:
                step[j] *= 0.5
                halvings[j] += 1
                if halvings[j] < 60:
                    still.append(j)
        if took.any():
            resid = _sigmoid(t, e) - y
            for j in np.flatnonzero(took):
                np.matmul(xs[j].T, resid[rows[j]], out=new_grad[j])
            mask = took[:, None]
            np.add(new_grad[:, :-1], l2 * cand[:, :-1], out=new_grad[:, :-1], where=mask)
            np.copyto(grad, new_grad, where=mask)
            np.copyto(beta, cand, where=mask)
        live = still
        np.subtract(beta, np.multiply(grad, step, out=cand), out=cand)
    return ([TrainedClassifier(kind="logreg", weights=beta[j].copy(), training_log=loss[j])
             for j in range(m)], [j for j in range(m) if epochs[j] == 0])


def train_logreg(x: np.ndarray, y: np.ndarray, spec: ClassifierSpec) -> TrainedClassifier:
    """Full-batch gradient descent from zero weights with backtracking steps.

    The step size halves whenever a step would increase the penalized loss,
    so the recorded loss sequence is non-increasing. Deterministic.
    """
    _check_binary(y)
    xa = _augment(np.asarray(x, dtype=np.float64))
    return _train_logreg_lockstep(xa, np.asarray(y, dtype=np.float64), [0, xa.shape[0]], spec)[0][0]


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
    """Positive-class probability for each row of x: the one-cluster case of
    `_predict_proba_routed`, so a bare classifier is checked as a model's are."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D batch of rows, got shape {x.shape}")
    return _predict_proba_routed(_routed_scoring([clf], x.shape[1]), x, np.zeros(x.shape[0], dtype=np.intp))


def _knn_proba(clf: TrainedClassifier, x: np.ndarray) -> np.ndarray:
    """The positive vote fraction for each row of x, whose width is checked."""
    train = clf.train_features
    step = max(1, cluster_core.ROUTE_BLOCK_ELEMENTS // max(1, train.size))
    out = np.empty(x.shape[0])
    for start in range(0, x.shape[0], step):
        diff = x[start:start + step, None, :] - train[None, :, :]
        np.multiply(diff, diff, out=diff)
        order = np.argsort(diff.sum(axis=2), axis=1, kind="stable")[:, :clf.k_neighbors]
        out[start:start + step] = clf.train_labels[order].mean(axis=1)
    return out


def _routed_scoring(classifiers: list[TrainedClassifier], width: int) -> tuple:
    """What `_predict_proba_routed` scores from: the (k, width+1) weight table of the
    linear clusters, each constant cluster's `constant_proba` (NaN elsewhere) and the
    knn classifiers by cluster. The one check of a classifier, naming its cluster: an
    unknown kind, a constant_proba not in [0, 1], a value that is not finite or a knn label
    other than 0 and 1 is an InvalidSpec; arrays that are empty or do not fit `width` or
    each other, or a k_neighbors below 1, are a DimensionMismatch."""
    table = np.zeros((len(classifiers), width + 1))
    constant = np.full(len(classifiers), np.nan)
    knn = {}
    for j, clf in enumerate(classifiers):
        if clf.kind == "constant":
            if not (_is_number(clf.constant_proba) and 0.0 <= clf.constant_proba <= 1.0):
                raise InvalidSpec(f"cluster {j}'s constant_proba {clf.constant_proba!r} is not in [0, 1]")
            constant[j] = clf.constant_proba
            continue
        if clf.kind not in KINDS:
            raise InvalidSpec(f"cluster {j}'s classifier has unknown kind {clf.kind!r}")
        if clf.kind == "knn":
            train, labels = clf.train_features, clf.train_labels
            if (train is None or labels is None or train.ndim != 2 or labels.shape != train.shape[:1]
                    or not labels.size or clf.k_neighbors < 1):
                raise DimensionMismatch(f"cluster {j}'s knn classifier needs training rows with one label "
                                        f"each and k_neighbors >= 1, got {clf.k_neighbors}")
            if not np.isin(labels, (0, 1)).all():
                raise InvalidSpec(f"cluster {j}'s knn labels {np.unique(labels).tolist()} are not all 0 or 1")
            knn[j], expected, values = clf, train.shape[1], train
        elif clf.weights is None or clf.weights.ndim != 1:
            raise DimensionMismatch(f"cluster {j}'s {clf.kind} classifier has no weight vector")
        else:
            expected, values = clf.weights.shape[0] - 1, clf.weights
        if expected != width:
            raise DimensionMismatch(f"cluster {j}'s classifier expected {expected} features, got {width}")
        cluster_core._finite(f"cluster {j}'s {clf.kind} classifier", values)
        if clf.kind != "knn":
            table[j] = clf.weights
    return table, constant, knn


def _predict_proba_routed(scoring: tuple, x: np.ndarray, routes: np.ndarray) -> np.ndarray:
    """The positive-class probability of each row x[i] under cluster routes[i]'s classifier,
    from the classifiers' `_routed_scoring`: all linear rows in one pass, constants copied
    in, and knn clusters one at a time."""
    table, constant, knn = scoring
    out = _linear_proba(x, table[routes])
    fixed = constant[routes]
    np.copyto(out, fixed, where=~np.isnan(fixed))
    for j, clf in knn.items():
        rows = routes == j
        out[rows] = _knn_proba(clf, x[rows])
    return out


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
    out, logreg = [], []
    for j in range(len(state.sizes)):
        rows = assign == j
        if not rows.any():
            raise EmptyCluster(f"cluster {j} has no training rows")
        yj = ds.labels[rows]
        if (yj == yj[0]).all():
            out.append(constant_classifier(int(yj[0])))
        elif spec.kind == "logreg":
            _check_binary(yj)
            logreg.append(j)
            out.append(None)  # trained below, all logreg clusters in one lockstep run
        else:
            out.append(train_classifier(ds.features[rows], yj, spec))
    if logreg:
        # every logreg cluster's rows, stacked in cluster order, each in index order
        order = np.argsort(assign, kind="stable")
        order = order[np.isin(assign[order], logreg)]
        ends = np.concatenate([[0], np.cumsum(np.bincount(assign)[logreg])]).tolist()
        trained, stalled = _train_logreg_lockstep(_augment(ds.features[order]),
                                                  ds.labels[order].astype(np.float64), ends, spec)
        for j, clf in zip(logreg, trained):
            out[j] = clf
        if stalled:
            warnings.warn(f"logreg clusters {[logreg[i] for i in stalled]} accepted no step "
                          f"at learning_rate {spec.learning_rate!r}: their weights stay zero, "
                          "so they score every row 0.5", RuntimeWarning, stacklevel=2)
    return out


def classifier_to_dict(clf: TrainedClassifier) -> dict:
    """JSON-ready dict of the fields in order; arrays become nested lists."""
    return {name: v.tolist() if isinstance(v, np.ndarray) else v for name, v in vars(clf).items()}


def classifier_from_dict(d: dict) -> TrainedClassifier:
    """A `classifier_to_dict` dict read as it is; `_routed_scoring` checks it."""
    arrays = {name: None if d[name] is None else np.asarray(d[name], dtype=dtype) for name, dtype in
              (("weights", np.float64), ("train_features", np.float64), ("train_labels", np.int64))}
    return TrainedClassifier(d["kind"], **arrays, k_neighbors=int(d["k_neighbors"]),
                             constant_proba=d["constant_proba"], training_log=float(d["training_log"]))
