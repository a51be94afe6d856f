"""Separation-augmented k-means via greedy point reassignment.

Each cluster is scored by its within-cluster SSE minus ``alpha * size *
||mu_pos - mu_neg||^2``, where mu_pos/mu_neg are the centroids of the
positive- and negative-labelled members. Points are swept in index order
and moved to whichever cluster lowers the total score the most, scoring
all k clusters at once with one signed closed form; moves that would
empty a cluster or strip it of one class are never considered. Clusters
holding a single class score a separation term of zero until they gain
the missing class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import classifiers as _clf
from .cluster_core import kmeanspp_init, lloyd, nearest_centroids
from .dataset import LabeledDataset
from .errors import (
    DimensionMismatch,
    EmptyCluster,
    IllegalMove,
    InfeasibleInit,
    NotBinary,
    PointAlreadyInCluster,
    UntrainedModel,
    WouldCreateOneClassCluster,
    WouldEmptyCluster,
)

DEFAULT_MAX_ROUNDS = 100
# a move must beat this margin; guards the strict-descent property against roundoff
MOVE_TOL = 1e-9


@dataclass
class ClusterState:
    """Incremental bookkeeping for one clustering of a binary dataset.

    Arrays indexed by cluster: member counts, per-class member counts and
    the corresponding centroids. Class centroids of an absent class are
    stored as zero rows with a zero count so incremental updates stay
    uniform.
    """

    assignments: np.ndarray
    sizes: np.ndarray
    pos_counts: np.ndarray
    neg_counts: np.ndarray
    centroids: np.ndarray
    pos_centroids: np.ndarray
    neg_centroids: np.ndarray
    alpha: float

    @classmethod
    def from_assignments(cls, ds: LabeledDataset, assignments, k: int, alpha: float) -> "ClusterState":
        """Build all counts and centroids from scratch for a given assignment."""
        assign = np.array(assignments, dtype=np.int64, copy=True)
        x, y = ds.features, ds.labels
        d = ds.n_features
        sizes = np.bincount(assign, minlength=k)
        pos_counts = np.bincount(assign[y == 1], minlength=k)
        neg_counts = sizes - pos_counts
        centroids = np.zeros((k, d))
        pos_centroids = np.zeros((k, d))
        neg_centroids = np.zeros((k, d))
        for j in range(k):
            members = assign == j
            if sizes[j] > 0:
                centroids[j] = x[members].mean(axis=0)
            if pos_counts[j] > 0:
                pos_centroids[j] = x[members & (y == 1)].mean(axis=0)
            if neg_counts[j] > 0:
                neg_centroids[j] = x[members & (y == 0)].mean(axis=0)
        return cls(assign, sizes, pos_counts, neg_counts,
                   centroids, pos_centroids, neg_centroids, float(alpha))

    @property
    def k(self) -> int:
        return self.sizes.shape[0]

    def separation_sq(self, j: int) -> float:
        """Squared distance between the class centroids; 0 if a class is absent."""
        if self.pos_counts[j] == 0 or self.neg_counts[j] == 0:
            return 0.0
        diff = self.pos_centroids[j] - self.neg_centroids[j]
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


def _score_changes(state: ClusterState, ds: LabeledDataset, i: int) -> np.ndarray:
    """Change in every cluster's score if point i left its own cluster p or
    joined any other, as one signed closed form over all k clusters in O(k*d).

    With s = -1 at p and +1 elsewhere, a cluster of n members and centroid
    mu changes its SSE by s*n/(n+s)*||x - mu||^2, and i's class centroid
    becomes (c*own + s*x)/(c + s). Denominators are clamped at 1: the entry
    at p is only meaningful when `can_remove` holds, and an empty cluster
    scores 0.
    """
    x = ds.features[i]
    n = state.sizes
    s = np.ones(state.k)
    s[state.assignments[i]] = -1.0
    grown = n + s
    diff = state.centroids - x
    delta_sse = s * n / np.maximum(grown, 1.0) * np.einsum("kd,kd->k", diff, diff)

    pos, neg = state.pos_counts, state.neg_counts
    if ds.labels[i] == 1:
        own_count, own, other_count, other = pos, state.pos_centroids, neg, state.neg_centroids
    else:
        own_count, own, other_count, other = neg, state.neg_centroids, pos, state.pos_centroids
    own_new = (own_count[:, None] * own + s[:, None] * x) / np.maximum(own_count + s, 1.0)[:, None]
    gap_old = state.pos_centroids - state.neg_centroids
    sep_old = np.where((pos > 0) & (neg > 0), np.einsum("kd,kd->k", gap_old, gap_old), 0.0)
    gap_new = own_new - other
    sep_new = np.where(other_count > 0, np.einsum("kd,kd->k", gap_new, gap_new), 0.0)
    return delta_sse + state.alpha * (n * sep_old - grown * sep_new)


def merge_cost_change(state: ClusterState, ds: LabeledDataset, j: int, i: int) -> float:
    """Change in cluster j's score if point i joined it, in O(k*d).

    Merging into an empty cluster scores 0 (a singleton has zero SSE and
    no separation term).
    """
    if state.assignments[i] == j:
        raise PointAlreadyInCluster(f"point {i} is already in cluster {j}")
    return float(_score_changes(state, ds, i)[j])


def can_remove(state: ClusterState, ds: LabeledDataset, p: int, i: int) -> bool:
    """True when removing point i leaves cluster p non-empty with both classes."""
    if state.sizes[p] <= 1:
        return False
    if ds.labels[i] == 1:
        return state.pos_counts[p] >= 2 and state.neg_counts[p] >= 1
    return state.neg_counts[p] >= 2 and state.pos_counts[p] >= 1


def removal_cost_change(state: ClusterState, ds: LabeledDataset, p: int, i: int) -> float:
    """Change in cluster p's score if point i left it, in O(k*d).

    Refuses removals that would empty the cluster or leave it one-class.
    """
    if state.assignments[i] != p:
        raise IllegalMove(f"point {i} is not in cluster {p}")
    if state.sizes[p] <= 1:
        raise WouldEmptyCluster(f"cluster {p} has a single member")
    if not can_remove(state, ds, p, i):
        raise WouldCreateOneClassCluster(f"removing point {i} would leave cluster {p} one-class")
    return float(_score_changes(state, ds, i)[p])


def move_cost_change(state: ClusterState, ds: LabeledDataset, i: int, p: int, q: int) -> float:
    """Total-score change of moving point i from cluster p to q; 0 when p == q."""
    if p == q:
        return 0.0
    return removal_cost_change(state, ds, p, i) + merge_cost_change(state, ds, q, i)


def apply_move(state: ClusterState, ds: LabeledDataset, i: int, p: int, q: int) -> ClusterState:
    """Move point i from cluster p to q, updating all bookkeeping in O(d)."""
    if state.assignments[i] != p:
        raise IllegalMove(f"point {i} is not in cluster {p}")
    if p == q:
        raise IllegalMove("source and target cluster coincide")
    if not can_remove(state, ds, p, i):
        raise IllegalMove(f"removing point {i} would break cluster {p}'s class guard")
    x = ds.features[i]
    if ds.labels[i] == 1:
        own = (state.pos_counts, state.pos_centroids)
    else:
        own = (state.neg_counts, state.neg_centroids)
    for j, s in ((p, -1), (q, 1)):
        for counts, cents in ((state.sizes, state.centroids), own):
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
    so k * d per such point.
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
    for _ in range(max_rounds):
        ops = 0
        moves = 0
        for i in range(n):
            p = int(state.assignments[i])
            if not can_remove(state, ds, p, i):
                continue
            ops += k * d
            # moving to q changes the total by the merge at q plus the removal at p
            deltas = _score_changes(state, ds, i)
            deltas += deltas[p]
            deltas[p] = np.inf
            q = int(np.argmin(deltas))
            if deltas[q] < -MOVE_TOL:
                apply_move(state, ds, i, p, q)
                moves += 1
                if on_move is not None:
                    on_move(state, i, p, q, float(deltas[q]))
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


def assign_cluster(model: CacModel, x: np.ndarray) -> int:
    """Nearest-centroid routing; ties break to the lowest cluster index."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.centroids.shape[1],):
        raise DimensionMismatch(f"point shape {x.shape} vs centroid dim {model.centroids.shape[1]}")
    return int(nearest_centroids(x[None, :], model.centroids)[0])


def cac_predict(model: CacModel, x: np.ndarray) -> tuple[int, float]:
    """Route to the nearest centroid, score there; label 1 iff score >= 0.5."""
    if not model.classifiers:
        raise UntrainedModel("model has no per-cluster classifiers")
    j = assign_cluster(model, x)
    score = _clf.predict_proba(model.classifiers[j], np.asarray(x, dtype=np.float64))
    return (1 if score >= 0.5 else 0, float(score))


def cac_predict_batch(model: CacModel, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized routing and scoring for a feature matrix."""
    if not model.classifiers:
        raise UntrainedModel("model has no per-cluster classifiers")
    x = np.asarray(features, dtype=np.float64)
    routes = nearest_centroids(x, model.centroids)
    scores = np.empty(x.shape[0])
    for j in np.unique(routes):
        rows = routes == j
        scores[rows] = _clf.predict_proba_batch(model.classifiers[j], x[rows])
    labels = (scores >= 0.5).astype(np.int64)
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
        raise ValueError(f"unsupported model payload: {d.get('kind')}/{d.get('schema')}")
    return CacModel(
        centroids=np.asarray(d["centroids"], dtype=np.float64),
        classifiers=[_clf.classifier_from_dict(c) for c in d["classifiers"]],
        alpha=float(d["alpha"]),
        trace=[float(v) for v in d["trace"]],
    )
