"""One-point move arithmetic for the tests, and a reference logreg trainer.

`_score_block` is the descent's closed form written out plainly, one block
of rows at a time: the arithmetic that `cac_fit`'s one-row and block
scorers must reproduce bit for bit, operation for operation. The wrappers below
read one row of it for one candidate cluster, with guard checks that raise
`IllegalMove`, so the tests can check the closed form against from-scratch
recomputation and replay the descent one point and one cluster at a time.
"""

import numpy as np

from cackit.cac_engine import ClusterState, _separations, can_remove
from cackit.classifiers import ClassifierSpec, TrainedClassifier, _augment, _check_binary, logreg_loss_grad
from cackit.dataset import LabeledDataset
from cackit.errors import IllegalMove


def _score_block(state: ClusterState, ds: LabeledDataset, rows: slice, sep: np.ndarray) -> np.ndarray:
    """Change in every cluster's score, (rows, k), if each point of `rows` left
    its own cluster p or joined any other, as one signed closed form in O(k*d).

    With s = -1 at p and +1 elsewhere, a cluster of n members and centroid
    mu changes its SSE by s*n/(n+s)*||x - mu||^2, and the point's class
    centroid becomes (c*own + s*x)/(c + s). Denominators are clamped at 1:
    the entry at p is only meaningful when `can_remove` holds, and an empty
    cluster scores 0.
    """
    x, y, n = ds.features[rows][:, None, :], ds.labels[rows], state.sizes
    s = np.ones((x.shape[0], state.k))
    s[np.arange(x.shape[0]), state.assignments[rows]] = -1.0
    grown = n + s
    diff = state.centroids - x
    delta_sse = s * n / np.maximum(grown, 1.0) * np.einsum("bkd,bkd->bk", diff, diff)

    own_count, other_count = state.class_counts[y], state.class_counts[1 - y]
    own_new = ((own_count[..., None] * state.class_centroids[y] + s[..., None] * x)
               / np.maximum(own_count + s, 1.0)[..., None])
    gap_new = own_new - state.class_centroids[1 - y]
    sep_new = np.where(other_count > 0, np.einsum("bkd,bkd->bk", gap_new, gap_new), 0.0)
    return delta_sse + state.alpha * (n * sep - grown * sep_new)


def _one_point(state: ClusterState, ds: LabeledDataset, j: int, i: int) -> float:
    return float(_score_block(state, ds, slice(i, i + 1), _separations(state))[0, j])


def merge_cost_change(state: ClusterState, ds: LabeledDataset, j: int, i: int) -> float:
    """Change in cluster j's score if point i joined it.

    Merging into an empty cluster scores 0 (a singleton has zero SSE and
    no separation term).
    """
    if state.assignments[i] == j:
        raise IllegalMove(f"point {i} is already in cluster {j}")
    return _one_point(state, ds, j, i)


def removal_cost_change(state: ClusterState, ds: LabeledDataset, p: int, i: int) -> float:
    """Change in cluster p's score if point i left it.

    Refuses removals that would empty the cluster or leave it one-class.
    """
    if state.assignments[i] != p:
        raise IllegalMove(f"point {i} is not in cluster {p}")
    if state.sizes[p] <= 1:
        raise IllegalMove(f"cluster {p} has a single member")
    if not can_remove(state, ds, p, i):
        raise IllegalMove(f"removing point {i} would leave cluster {p} one-class")
    return _one_point(state, ds, p, i)


def move_cost_change(state: ClusterState, ds: LabeledDataset, i: int, p: int, q: int) -> float:
    """Total-score change of moving point i from cluster p to q; 0 when p == q."""
    if p == q:
        return 0.0
    return removal_cost_change(state, ds, p, i) + merge_cost_change(state, ds, q, i)


def reference_train_logreg(x: np.ndarray, y: np.ndarray, spec: ClassifierSpec) -> TrainedClassifier:
    """`train_logreg` written out for one cluster, one `logreg_loss_grad` call
    per candidate step: the reference the lockstep trainer must match bit
    for bit. Full-batch gradient descent from zero weights with backtracking steps.

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
