"""Separation-augmented k-means via greedy point reassignment.

Each cluster is scored by its within-cluster SSE minus ``alpha * size *
||mu_pos - mu_neg||^2``, where mu_pos/mu_neg are the centroids of the
positive- and negative-labelled members. Points are swept in index order
and moved to whichever cluster lowers the total score the most; moves that
would empty a cluster or strip it of one class are never considered.
Clusters holding a single class score a separation term of zero until they
gain the missing class. One signed closed form scores a block of
consecutive points against all k clusters at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import classifiers as _clf
from .cluster_core import _score_by_route, kmeanspp_init, lloyd, nearest_centroids
from .dataset import LabeledDataset
from .errors import (EmptyCluster, IllegalMove, InfeasibleInit, NotBinary, SchemaMismatch,
                     UntrainedModel)
from .metrics import DECISION_THRESHOLD

DEFAULT_MAX_ROUNDS = 100
# a move must beat this margin; guards the strict-descent property against roundoff
MOVE_TOL = 1e-9
BLOCK_ELEMENTS = 2**14  # rows * k * d entries screened at once: memory does not grow with n


@dataclass
class ClusterState:
    """Incremental bookkeeping for one clustering of a binary dataset.

    Member counts and centroids per cluster, and per-class counts (2, k) and
    centroids (2, k, d) indexed by label, so row 1 holds the positives and
    row 0 the negatives. An absent class keeps a zero row and a zero count so
    incremental updates stay uniform.
    """

    assignments: np.ndarray
    sizes: np.ndarray
    class_counts: np.ndarray
    centroids: np.ndarray
    class_centroids: np.ndarray
    alpha: float

    @classmethod
    def from_assignments(cls, ds: LabeledDataset, assignments, k: int, alpha: float) -> "ClusterState":
        """Build all counts and centroids from scratch for a given assignment."""
        assign = np.array(assignments, dtype=np.int64, copy=True)
        x, y = ds.features, ds.labels
        sizes = np.bincount(assign, minlength=k)
        class_counts = np.stack([np.bincount(assign[y == c], minlength=k) for c in (0, 1)])
        centroids = np.zeros((k, ds.n_features))
        class_centroids = np.zeros((2, k, ds.n_features))
        for j in range(k):
            members = assign == j
            if sizes[j] > 0:
                centroids[j] = x[members].mean(axis=0)
            for c in (0, 1):
                if class_counts[c, j] > 0:
                    class_centroids[c, j] = x[members & (y == c)].mean(axis=0)
        return cls(assign, sizes, class_counts, centroids, class_centroids, float(alpha))

    @property
    def k(self) -> int:
        return self.sizes.shape[0]

    def separation_sq(self, j: int) -> float:
        """Squared distance between the class centroids; 0 if a class is absent."""
        if not self.class_counts[:, j].all():
            return 0.0
        diff = self.class_centroids[1, j] - self.class_centroids[0, j]
        return float(diff @ diff)


def cluster_cost(state: ClusterState, ds: LabeledDataset, j: int) -> float:
    """Recomputed-from-scratch score of one cluster: SSE minus the separation reward."""
    if state.sizes[j] == 0:
        raise EmptyCluster(f"cluster {j} is empty")
    members = state.assignments == j
    diffs = ds.features[members] - state.centroids[j]
    sse = float((diffs * diffs).sum())
    return sse - state.alpha * float(state.sizes[j]) * state.separation_sq(j)


def total_cost(state: ClusterState, ds: LabeledDataset) -> float:
    """Sum of cluster costs over the non-empty clusters."""
    return float(sum(cluster_cost(state, ds, j) for j in range(state.k) if state.sizes[j] > 0))


def _separations(state: ClusterState) -> np.ndarray:
    """`separation_sq` of every cluster, as one vector."""
    gap = state.class_centroids[1] - state.class_centroids[0]
    return np.where(state.class_counts.all(axis=0), np.einsum("kd,kd->k", gap, gap), 0.0)


def _guard(counts: np.ndarray, y, p):
    """`can_remove` for label(s) y leaving cluster(s) p, given class counts (2, k)."""
    return (counts[y, p] >= 2) & (counts[1 - y, p] >= 1)


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


def _best_moves(state: ClusterState, ds: LabeledDataset, rows: slice, sep: np.ndarray) -> tuple:
    """For each point of `rows` against the current state: whether it passes
    the class guard, its best target cluster and that move's total change."""
    deltas = _score_block(state, ds, rows, sep)
    at = np.arange(deltas.shape[0])
    p = state.assignments[rows]
    # moving to q changes the total by the merge at q plus the removal at p
    deltas += deltas[at, p][:, None]
    deltas[at, p] = np.inf
    q = deltas.argmin(axis=1)
    return _guard(state.class_counts, ds.labels[rows], p), q, deltas[at, q]


def can_remove(state: ClusterState, ds: LabeledDataset, p: int, i: int) -> bool:
    """True when removing point i leaves cluster p non-empty with both classes."""
    return bool(_guard(state.class_counts, ds.labels[i], p))


def apply_move(state: ClusterState, ds: LabeledDataset, i: int, p: int, q: int) -> ClusterState:
    """Move point i from cluster p to q, updating all bookkeeping in O(d)."""
    if state.assignments[i] != p:
        raise IllegalMove(f"point {i} is not in cluster {p}")
    if p == q:
        raise IllegalMove("source and target cluster coincide")
    if not can_remove(state, ds, p, i):
        raise IllegalMove(f"removing point {i} would break cluster {p}'s class guard")
    x, y = ds.features[i], ds.labels[i]
    for j, s in ((p, -1), (q, 1)):
        for counts, cents in ((state.sizes, state.centroids),
                              (state.class_counts[y], state.class_centroids[y])):
            c = float(counts[j])
            cents[j] = (c * cents[j] + s * x) / (c + s)
            counts[j] += s
    state.assignments[i] = q
    return state


@dataclass
class CacRun:
    """Everything a fit produced: final state plus per-round descent history.

    `ops_per_round` counts the candidate evaluations of each round in
    feature entries: every point that passes the class guard is scored
    against all k clusters (one removal plus k - 1 merges), d entries each,
    so k * d per such point and per time it is scored. The descent scores
    blocks of consecutive points, and the points after a move in its block
    are scored again from the moved state, so they count once more.
    """

    state: ClusterState
    cost_trace: list[float]
    rounds: int
    moves_per_round: list[int]
    ops_per_round: list[int]
    init_assignments: np.ndarray


def cac_fit(ds: LabeledDataset, k: int, alpha: float, max_rounds: int = DEFAULT_MAX_ROUNDS,
            seed: int = 0, init_assignments=None,
            on_move: Callable[[ClusterState, int, int, int, float], None] | None = None) -> CacRun:
    """Greedy descent on the separation-augmented k-means score.

    Starts from a k-means clustering (k-means++ seeding followed by Lloyd,
    both driven by `seed`) unless `init_assignments` is given. Each round
    sweeps the points in index order; a point moves to the cluster with the
    most negative score change, provided the change clears a small negative
    margin and its source cluster keeps both classes. Stops after a sweep
    with no moves or at `max_rounds`. The returned state is rebuilt from
    scratch so accumulated float drift does not leak out.

    `on_move(state, i, p, q, delta)` fires after every applied move.
    """
    y = ds.labels
    if ds.n_classes != 2 or not ((y == 0).any() and (y == 1).any()):
        raise NotBinary("fit requires 0/1 labels with both classes present")
    n, d = ds.n_samples, ds.n_features
    if not 1 <= k <= n:
        raise InfeasibleInit(f"k={k} outside [1, {n}]")

    if init_assignments is None:
        km = lloyd(ds.features, kmeanspp_init(ds.features, k, seed))
        init = km.assignments
    else:
        init = np.asarray(init_assignments, dtype=np.int64)
        if init.shape != (n,) or init.min() < 0 or init.max() >= k:
            raise InfeasibleInit("init_assignments must map every point to [0, k)")

    state = ClusterState.from_assignments(ds, init, k, alpha)
    if (state.sizes == 0).any():
        raise InfeasibleInit("initial clustering has an empty cluster")

    trace = [total_cost(state, ds)]
    moves_per_round: list[int] = []
    ops_per_round: list[int] = []
    rounds = 0
    max_block = max(1, BLOCK_ELEMENTS // (k * d))
    for _ in range(max_rounds):
        ops = moves = 0
        sep = _separations(state)
        i, block = 0, min(4, max_block)
        while i < n:
            rows = slice(i, min(i + block, n))
            guarded, targets, best = _best_moves(state, ds, rows, sep)
            ops += int(guarded.sum()) * k * d
            # every row before the first improving guarded one is a non-move
            hit = np.flatnonzero(guarded & (best < -MOVE_TOL))
            if hit.size == 0:
                i, block = rows.stop, min(2 * block, max_block)
                continue
            h = int(hit[0])
            i, p, q = i + h, int(state.assignments[i + h]), int(targets[h])
            apply_move(state, ds, i, p, q)
            sep = _separations(state)
            moves += 1
            if on_move is not None:
                on_move(state, i, p, q, float(best[h]))
            i, block = i + 1, min(4, max_block)
        rounds += 1
        moves_per_round.append(moves)
        ops_per_round.append(ops)
        trace.append(total_cost(state, ds))
        if moves == 0:
            break

    final = ClusterState.from_assignments(ds, state.assignments, k, alpha)
    return CacRun(final, trace, rounds, moves_per_round, ops_per_round, init)


@dataclass
class CacModel:
    """Fitted cluster centroids plus one trained classifier per cluster."""

    centroids: np.ndarray
    classifiers: list
    alpha: float
    trace: list[float]

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


def cac_predict(model: CacModel, x: np.ndarray) -> tuple[int, float]:
    """Route to the nearest centroid, score there; label 1 iff score >= DECISION_THRESHOLD."""
    if not model.classifiers:
        raise UntrainedModel("model has no per-cluster classifiers")
    x = np.asarray(x, dtype=np.float64)
    # nearest_centroids rejects a point that is not 1-D of the centroids' width
    j = nearest_centroids(x[None], model.centroids)[0]
    score = _clf.predict_proba_batch(model.classifiers[j], x[None])[0]
    return (1 if score >= DECISION_THRESHOLD else 0, float(score))


def cac_predict_batch(model: CacModel, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized routing and scoring for a feature matrix."""
    if not model.classifiers:
        raise UntrainedModel("model has no per-cluster classifiers")
    x = np.asarray(features, dtype=np.float64)
    routes = nearest_centroids(x, model.centroids)
    scores = _score_by_route(x, routes, lambda j, xj: _clf.predict_proba_batch(model.classifiers[j], xj),
                             np.empty(x.shape[0]))
    labels = (scores >= DECISION_THRESHOLD).astype(np.int64)
    return labels, scores


def cac_model_to_json(model: CacModel) -> str:
    """Serialize to versioned JSON; floats round-trip exactly."""
    payload = {
        "schema": 1,
        "kind": "cac",
        "alpha": model.alpha,
        "centroids": model.centroids.tolist(),
        "classifiers": [_clf.classifier_to_dict(c) for c in model.classifiers],
        "trace": list(model.trace),
    }
    return json.dumps(payload, indent=2)


def cac_model_from_json(text: str) -> CacModel:
    d = json.loads(text)
    if d.get("schema") != 1 or d.get("kind") != "cac":
        raise SchemaMismatch(f"unsupported model payload: {d.get('kind')}/{d.get('schema')}")
    return CacModel(
        centroids=np.asarray(d["centroids"], dtype=np.float64),
        classifiers=[_clf.classifier_from_dict(c) for c in d["classifiers"]],
        alpha=float(d["alpha"]),
        trace=[float(v) for v in d["trace"]],
    )
