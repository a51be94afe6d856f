"""One-point move arithmetic for the tests, and reference trainers and scorers.

`_score_block` is the descent's closed form written out plainly, one block
of rows at a time: the arithmetic that `cac_fit`'s one-row and block
scorers must reproduce bit for bit, operation for operation. The wrappers below
read one row of it for one candidate cluster, with guard checks that raise
`IllegalMove`, so the tests can check the closed form against from-scratch
recomputation and replay the descent one point and one cluster at a time.

The reference logreg trainer and DeepCAC's reference local-net trainer and
scorer train or score one cluster at a time, as the library did before its
lockstep loops; the lockstep loops must reproduce them bit for bit. The
reference classifier scorer applies each kind's own formula to one
classifier, as the library did before every score went through one routed
pass.
"""

import numpy as np

from cackit import metrics
from cackit.cac_engine import ClusterState, _separations, can_remove
from cackit.classifiers import (ClassifierSpec, TrainedClassifier, _augment, _check_binary, _knn_proba,
                                _linear_proba, _sigmoid, _softplus)
from cackit.cluster_core import nearest_centroids
from cackit.dataset import LabeledDataset
from cackit.errors import IllegalMove
from cackit.neural import DenseNet, init_dense


def _score_by_route(x: np.ndarray, routes: np.ndarray, score, out: np.ndarray) -> np.ndarray:
    """Fill `out` with `score(j, x[rows])` for the rows of x routed to each cluster j.

    Only the clusters present in `routes` are visited.
    """
    for j in np.unique(routes):
        rows = routes == j
        out[rows] = score(j, x[rows])
    return out


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


def reference_predict_proba(clf: TrainedClassifier, x: np.ndarray) -> np.ndarray:
    """Positive-class probability for each row of a 2-D x under one classifier,
    from its kind's own formula: the constant, the knn vote fraction, or the
    sigmoid of one weight row broadcast over all rows."""
    x = np.asarray(x, dtype=np.float64)
    if clf.kind == "constant":
        return np.full(x.shape[0], clf.constant_proba)
    if clf.kind == "knn":
        return _knn_proba(clf, x)
    return _linear_proba(x, clf.weights[None])


# --- DeepCAC's local nets, one cluster at a time ----------------------------

def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _forward(net: DenseNet, h: np.ndarray) -> tuple[np.ndarray, list]:
    caches = []
    last = len(net.weights) - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = h @ w + b
        caches.append((h, a))
        h = np.maximum(a, 0.0) if l < last else a
    return h, caches


def reference_local_proba(nets: list[DenseNet], z: np.ndarray, routes: np.ndarray,
                          n_classes: int) -> np.ndarray:
    """Class probabilities of each row under the net of its route, one cluster's
    rows at a time, each in one matrix product per layer."""
    return _score_by_route(z, routes, lambda j, zj: _softmax(_forward(nets[j], zj)[0]),
                           np.empty((z.shape[0], n_classes)))


def reference_train_local_nets(encoder: DenseNet, centroids: np.ndarray, z_train: np.ndarray,
                               y_train: np.ndarray, ds_val: LabeledDataset, n_classes: int,
                               rng: np.random.Generator, hidden: int, epochs: int, lr: float,
                               batch_size: int, patience: int
                               ) -> tuple[list[DenseNet], np.ndarray, list[float]]:
    """`neural._train_local_nets` one net at a time: every epoch trains cluster 0's
    net on all its batches, then cluster 1's, and so on, each step a forward pass,
    softmax and backward pass of that net alone, then one SGD step per array."""
    keep, routes = np.unique(nearest_centroids(z_train, centroids), return_inverse=True)
    centroids = centroids[keep]
    latent = centroids.shape[1]
    nets = [init_dense([latent, hidden, n_classes], rng) for _ in range(centroids.shape[0])]
    cluster_rows = [np.flatnonzero(routes == j) for j in range(centroids.shape[0])]
    z_val = _forward(encoder, ds_val.features)[0]
    val_routes = nearest_centroids(z_val, centroids)

    def val_score() -> float:
        probs = reference_local_proba(nets, z_val, val_routes, n_classes)
        if n_classes == 2:
            return metrics.auprc(probs[:, 1], ds_val.labels)
        return metrics.macro_auprc(probs, ds_val.labels, n_classes)

    best_score, best_nets, stale, trace = -np.inf, [net.copy() for net in nets], 0, []
    for _ in range(epochs):
        for net, rows in zip(nets, cluster_rows):
            yj, zj = y_train[rows], z_train[rows]
            perm = rng.permutation(rows.size)
            for start in range(0, rows.size, batch_size):
                idx = perm[start:start + batch_size]
                logits, caches = _forward(net, zj[idx])
                grad = _softmax(logits)
                grad[np.arange(idx.size), yj[idx]] -= 1.0
                grad = grad / idx.size
                for l in range(len(net.weights) - 1, -1, -1):
                    h, a = caches[l]
                    da = grad if l == len(net.weights) - 1 else grad * (a > 0.0)
                    dw, db, grad = h.T @ da, da.sum(axis=0), da @ net.weights[l].T
                    net.weights[l] -= lr * dw
                    net.biases[l] -= lr * db
        score = val_score()
        trace.append(score)
        if score > best_score + 1e-12:
            best_score, best_nets, stale = score, [net.copy() for net in nets], 0
        else:
            stale += 1
            if stale >= patience:
                break
    return best_nets, centroids, trace
