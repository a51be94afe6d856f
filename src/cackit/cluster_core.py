"""Plain k-means (k-means++ init, Lloyd iteration), nearest-centroid routing
and the silhouette score."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InfeasibleInit, OneCluster

LLOYD_MAX_ITER = 300
LLOYD_TOL = 1e-6
# largest block nearest_centroids (rows, k, d differences), silhouette (rows, n
# distances) or kNN scoring (rows, n_train, d differences) builds at once: 8 MB
# of float64
ROUTE_BLOCK_ELEMENTS = 1 << 20


@dataclass
class KmeansResult:
    """Centroids, hard assignments, final SSE and iteration count."""

    centroids: np.ndarray
    assignments: np.ndarray
    sse: float
    iterations: int


def _sq_dists(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Squared euclidean distances, shape (len(x), len(c)), clipped at 0."""
    d2 = x @ c.T
    d2 *= -2.0
    d2 += (x * x).sum(axis=1)[:, None]
    d2 += (c * c).sum(axis=1)
    return np.maximum(d2, 0.0, out=d2)


def nearest_centroids(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the closest centroid for each row of x; ties break to the lowest index.

    Distances use the difference form, which stays exact at any feature
    offset. Rows go in chunks whose (rows, k, d) difference block holds at
    most ROUTE_BLOCK_ELEMENTS entries, so memory is bounded at any n.
    """
    x = np.asarray(x, dtype=np.float64)
    c = np.asarray(centroids, dtype=np.float64)
    if x.ndim != 2 or c.ndim != 2 or x.shape[1] != c.shape[1]:
        raise DimensionMismatch(f"points of shape {x.shape} vs centroids of shape {c.shape}")
    step = max(1, ROUTE_BLOCK_ELEMENTS // max(1, c.size))
    routes = np.empty(x.shape[0], dtype=np.int64)
    for start in range(0, x.shape[0], step):
        diff = x[start:start + step, None, :] - c[None, :, :]
        np.multiply(diff, diff, out=diff)
        routes[start:start + step] = diff.sum(axis=2).argmin(axis=1)
    return routes


def _score_by_route(x: np.ndarray, routes: np.ndarray, score, out: np.ndarray) -> np.ndarray:
    """Fill `out` with `score(j, x[rows])` for the rows of x routed to each cluster j.

    Only the clusters present in `routes` are visited.
    """
    for j in np.unique(routes):
        rows = routes == j
        out[rows] = score(j, x[rows])
    return out


def kmeanspp_init(features: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """Squared-distance-weighted seeding over data rows.

    The first centroid is drawn uniformly; each further one is drawn with
    probability proportional to the squared distance to the closest chosen
    centroid. Rows at distance zero from every chosen centroid (duplicates)
    are only picked once all remaining mass is zero, in which case the next
    centroid is drawn uniformly from the unchosen rows.
    """
    x = np.asarray(features, dtype=np.float64)
    n = x.shape[0]
    if not 1 <= k <= n:
        raise InfeasibleInit(f"k={k} outside [1, {n}]")
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(n))]
    d2 = ((x - x[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(k - 1):
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            remaining = np.setdiff1d(np.arange(n), np.asarray(chosen))
            idx = int(rng.choice(remaining))
        chosen.append(idx)
        d2 = np.minimum(d2, ((x - x[idx]) ** 2).sum(axis=1))
    return x[chosen].copy()


def _repair_empty(assign: np.ndarray, dist_to_own: np.ndarray, sizes: np.ndarray) -> None:
    """Give each empty cluster the point farthest from its own centroid.

    Donor points are only taken from clusters of size >= 2; ties break to
    the lowest point index. Mutates `assign` and `sizes` in place.
    """
    for j in np.flatnonzero(sizes == 0):
        donors = sizes[assign] >= 2
        cand = np.where(donors, dist_to_own, -np.inf)
        i = int(np.argmax(cand))
        sizes[assign[i]] -= 1
        assign[i] = j
        sizes[j] += 1
        dist_to_own[i] = 0.0


def lloyd(features: np.ndarray, init: np.ndarray, max_iter: int = LLOYD_MAX_ITER,
          tol: float = LLOYD_TOL) -> KmeansResult:
    """Batch k-means from the given initial centroids.

    Stops when the assignment no longer changes, when the relative SSE
    improvement over one iteration falls below `tol`, or at `max_iter`.
    Empty clusters are repaired each pass by seizing the point farthest
    from its current centroid. SSE is asserted non-increasing internally.
    """
    x = np.asarray(features, dtype=np.float64)
    c = np.array(init, dtype=np.float64, copy=True)
    if c.ndim != 2 or c.shape[1] != x.shape[1]:
        raise DimensionMismatch(f"init shape {c.shape} does not match data dim {x.shape[1]}")
    k = c.shape[0]
    if k > x.shape[0]:
        raise InfeasibleInit(f"k={k} exceeds N={x.shape[0]}")

    prev_assign: np.ndarray | None = None
    sse = np.inf
    updates = 0
    for _ in range(max_iter):
        d2 = _sq_dists(x, c)
        assign = d2.argmin(axis=1)
        sizes = np.bincount(assign, minlength=k)
        if (sizes == 0).any():
            _repair_empty(assign, d2[np.arange(x.shape[0]), assign], sizes)
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        for j in range(k):
            c[j] = x[assign == j].mean(axis=0)
        new_sse = float(((x - c[assign]) ** 2).sum())
        if np.isfinite(sse) and new_sse > sse + 1e-9 * (1.0 + sse):
            raise AssertionError(f"SSE increased from {sse} to {new_sse}")
        improvement = sse - new_sse
        sse = new_sse
        prev_assign = assign
        updates += 1
        if np.isfinite(improvement) and improvement < tol * max(abs(sse), 1e-12):
            break
    return KmeansResult(c, prev_assign, sse, updates)


def silhouette(features: np.ndarray, assignments: np.ndarray) -> float:
    """Mean silhouette coefficient over all points.

    Points in singleton clusters contribute 0, as do points whose intra-
    and inter-cluster mean distances are both zero.
    """
    x = np.asarray(features, dtype=np.float64)
    assign = np.asarray(assignments, dtype=np.int64)
    n = x.shape[0]
    present, own_col, sizes = np.unique(assign, return_inverse=True, return_counts=True)
    if present.size < 2:
        raise OneCluster("silhouette needs at least two non-empty clusters")
    members = [assign == j for j in present]
    step = max(1, ROUTE_BLOCK_ELEMENTS // n)
    # mean distance from every point to every cluster, one block of rows at a time
    cluster_mean = np.empty((n, present.size))
    for start in range(0, n, step):
        dist = _sq_dists(x[start:start + step], x)
        np.sqrt(dist, out=dist)
        for col, rows in enumerate(members):
            cluster_mean[start:start + step, col] = dist[:, rows].mean(axis=1)
    m = sizes[own_col]
    at_own = (np.arange(n), own_col)
    a = cluster_mean[at_own] * m / np.maximum(m - 1, 1)  # exclude the zero self-distance
    cluster_mean[at_own] = np.inf
    b = cluster_mean.min(axis=1)
    denom = np.maximum(a, b)
    scores = np.where(m == 1, 0.0, (b - a) / np.where(denom == 0.0, 1.0, denom))
    return float(scores.mean())
