"""Plain k-means (k-means++ init, Lloyd iteration), nearest-centroid routing, the
silhouette score, and the saved-model reader and writer both routed model kinds share."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InfeasibleInit, OneCluster, SchemaMismatch

LLOYD_MAX_ITER = 300
LLOYD_TOL = 1e-6
# largest block nearest_centroids (rows, k, d differences; the screen's (k, rows)
# distances) or kNN scoring (rows, n_train, d differences) builds at once: 0.5 MB
# of float64. Each row's distances are summed on their own, so the block size
# cannot change a route or a vote.
ROUTE_BLOCK_ELEMENTS = 1 << 16
# smallest x (rows * k * d entries) nearest_centroids screens with the expanded form.
# Below it the screen's fixed numpy calls cost more than the difference block
# they save: measured, the screen won on every probed shape at 2**14 entries
# and lost on most at 2**13. Below ROUTE_BLOCK_ELEMENTS, so a smaller x fits one block.
ROUTE_SCREEN_ELEMENTS = 1 << 14
# largest (rows, n) distance block silhouette builds at once: 0.5 MB of float64.
# On real-valued features its BLAS products round differently at other block shapes.
SILHOUETTE_BLOCK_ELEMENTS = 1 << 16
# the "schema" field of every saved model file
MODEL_SCHEMA = 1


@dataclass
class KmeansResult:
    """Centroids, hard assignments, final SSE and iteration count."""

    centroids: np.ndarray
    assignments: np.ndarray
    sse: float
    iterations: int


def nearest_centroids(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the closest centroid for each row of x; ties break to the lowest index.

    Each route is the argmin of the row's difference-form squared distances,
    sum((x - c) ** 2), which stay exact at any feature offset. An x whose
    (rows, k, d) difference block holds fewer than ROUTE_SCREEN_ELEMENTS
    entries, such as one row, is routed in that one block. A larger x is
    first screened with expanded-form distances from one matrix product, in
    chunks whose (k, rows) arrays hold at most ROUTE_BLOCK_ELEMENTS entries;
    a row is settled there only when a rounding bound on both forms leaves
    one centroid that can be nearest. Every other row (ties, near ties, NaN
    and inf rows, values near overflow, large offsets) takes the difference
    form in chunks of at most ROUTE_BLOCK_ELEMENTS entries, so memory is
    bounded at any n and routes are bit for bit the difference form's.
    """
    x = np.asarray(x, dtype=np.float64)
    c = np.asarray(centroids, dtype=np.float64)
    if x.ndim != 2 or c.ndim != 2 or x.shape[1] != c.shape[1]:
        raise DimensionMismatch(f"points of shape {x.shape} vs centroids of shape {c.shape}")
    if x.shape[0] * c.size < ROUTE_SCREEN_ELEMENTS:
        return _difference_routes(x, c)
    routes = np.empty(x.shape[0], dtype=np.int64)
    c_neg2 = c * -2.0
    c_sq = np.einsum("kd,kd->k", c, c)
    step = max(1, ROUTE_BLOCK_ELEMENTS // c.shape[0])
    for start in range(0, x.shape[0], step):
        routes[start:start + step] = _screened_routes(x[start:start + step], c, c_neg2, c_sq)
    return routes


def _difference_routes(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Argmin over centroids of sum((x - c) ** 2), from one (rows, k, d) block."""
    diff = x[:, None, :] - c[None, :, :]
    np.multiply(diff, diff, out=diff)
    return diff.sum(axis=2).argmin(axis=1)


def _screened_routes(x: np.ndarray, c: np.ndarray, c_neg2: np.ndarray,
                     c_sq: np.ndarray) -> np.ndarray:
    """_difference_routes(x, c), with the rows one centroid provably wins taken
    from the expanded form |x|^2 - 2 x.c + |c|^2; `c_neg2` is -2c, `c_sq` is |c|^2.
    The other rows take the difference form in chunks of at most
    ROUTE_BLOCK_ELEMENTS (rows, k, d) entries.

    Both forms are within gamma_{d+2} (|x| + |c|)^2 of the exact squared
    distance, so they differ by at most 4 gamma_{d+2} (|x|^2 + |c|^2). The
    slack s = 8(d+4) eps (|x|^2 + max |c|^2) + 8(d+4) 2^-1074 is more than
    twice that, which also covers underflow and the screen's own rounding.
    A row whose expanded distances put one centroid alone within 2s of their
    minimum therefore has that centroid as the strict argmin of its
    difference form too.
    """
    # (k, rows) layout: the reductions over k run across rows, which is faster.
    # Rows that overflow here fall back, and warn there as they always did.
    with np.errstate(over="ignore", invalid="ignore"):
        approx = c_neg2 @ x.T
        x_sq = np.einsum("nd,nd->n", x, x)
        approx += x_sq
        approx += c_sq[:, None]
        scale = x_sq + c_sq.max()
        coef = 16.0 * (x.shape[1] + 4)  # limit = min + 2s
        limit = approx.min(axis=0)
        limit += coef * np.finfo(np.float64).eps * scale + coef * 2.0**-1074
        # below 2^1021 no sum in either form overflows; NaN and inf rows fail here
        settled = ((approx <= limit).sum(axis=0) == 1) & (scale < 2.0**1021)
    routes = approx.argmin(axis=0)
    rest = np.flatnonzero(~settled)
    step = max(1, ROUTE_BLOCK_ELEMENTS // max(1, c.size))
    for start in range(0, rest.size, step):
        rows = rest[start:start + step]
        routes[rows] = _difference_routes(x[rows], c)
    return routes


def _score_by_route(x: np.ndarray, routes: np.ndarray, score, out: np.ndarray) -> np.ndarray:
    """Fill `out` with `score(j, x[rows])` for the rows of x routed to each cluster j.

    Only the clusters present in `routes` are visited.
    """
    for j in np.unique(routes):
        rows = routes == j
        out[rows] = score(j, x[rows])
    return out


def _dump_model(kind: str, fields: dict) -> str:
    """A saved `kind` model: the schema and kind, then `fields` in their order."""
    return json.dumps({"schema": MODEL_SCHEMA, "kind": kind, **fields}, indent=2)


def _load_model(text: str, kind: str, build):
    """`build` applied to the JSON object of a saved `kind` model, schema MODEL_SCHEMA.

    Text that is not such an object, or an object `build` cannot read (a
    missing field, a value of the wrong type or shape), is a SchemaMismatch
    that names the fault.
    """
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaMismatch(f"model payload is not JSON: {e}") from None
    if not isinstance(d, dict):
        raise SchemaMismatch(f"model payload is a JSON {type(d).__name__}, not an object")
    if d.get("schema") != MODEL_SCHEMA or d.get("kind") != kind:
        raise SchemaMismatch(f"unsupported model payload: {d.get('kind')}/{d.get('schema')}")
    try:
        return build(d)
    except KeyError as e:
        raise SchemaMismatch(f"{kind} model payload has no field {e.args[0]!r}") from None
    except (TypeError, ValueError, DimensionMismatch) as e:
        raise SchemaMismatch(f"{kind} model payload is malformed: {e}") from None


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

    Rows are assigned with nearest_centroids, so the assignments stay exact at
    any feature offset. Stops when the assignment no longer changes, when the
    relative SSE improvement over one iteration falls below `tol`, or at
    `max_iter`. Empty clusters are repaired each pass by seizing the point
    farthest from its current centroid. SSE is asserted non-increasing
    internally.
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
        assign = nearest_centroids(x, c)
        sizes = np.bincount(assign, minlength=k)
        if (sizes == 0).any():
            _repair_empty(assign, ((x - c[assign]) ** 2).sum(axis=1), sizes)
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
        if np.isfinite(improvement) and improvement < tol * sse:
            break
    return KmeansResult(c, prev_assign, sse, updates)


def silhouette(features: np.ndarray, assignments: np.ndarray) -> float | list[float]:
    """Mean silhouette coefficient over all points.

    `assignments` holds one cluster label per row of `features`, which gives
    one float, or a stack of such labellings, which gives one score per
    labelling from one pass over the pairwise distances, each equal bit for
    bit to scoring that labelling alone. Points in singleton clusters
    contribute 0, as do points whose intra- and inter-cluster mean distances
    are both zero.

    Distances come from the expanded form on the features minus their first
    row, so a common offset cancels exactly, in blocks of at most
    SILHOUETTE_BLOCK_ELEMENTS entries; a point's distance to itself is
    exactly 0. Each row's per-cluster sums are reduced on their own, so on
    integer-valued features every block shape gives the same bits.
    """
    x = np.asarray(features, dtype=np.float64)
    labellings = np.asarray(assignments, dtype=np.int64)
    n = x.shape[0]
    groups = []
    for assign in np.atleast_2d(labellings):
        _, own, sizes = np.unique(assign, return_inverse=True, return_counts=True)
        if sizes.size < 2:
            raise OneCluster("silhouette needs at least two non-empty clusters")
        # columns in cluster order, so one reduceat gives a row's sum per cluster
        order = np.argsort(own, kind="stable")
        starts = np.cumsum(sizes) - sizes
        groups.append((own, sizes, order, starts, np.empty((n, sizes.size))))
    xs = x - x[0]
    sq = np.einsum("nd,nd->n", xs, xs)
    step = max(1, SILHOUETTE_BLOCK_ELEMENTS // n)
    for start in range(0, n, step):
        dist = (xs[start:start + step] * -2.0) @ xs.T
        dist += sq[start:start + step, None]
        dist += sq
        np.maximum(dist, 0.0, out=dist)
        dist.reshape(-1)[start::n + 1] = 0.0  # each row's distance to itself
        np.sqrt(dist, out=dist)
        for _, _, order, starts, sums in groups:
            sums[start:start + step] = np.add.reduceat(dist[:, order], starts, axis=1)
    scores = []
    for own, sizes, _, _, sums in groups:
        m = sizes[own]
        at_own = (np.arange(n), own)
        a = sums[at_own] / np.maximum(m - 1, 1)  # the zero self-distance is not a neighbour
        sums /= sizes
        sums[at_own] = np.inf
        b = sums.min(axis=1)
        denom = np.maximum(a, b)
        score = np.where(m == 1, 0.0, (b - a) / np.where(denom == 0.0, 1.0, denom))
        scores.append(float(score.mean()))
    return scores[0] if labellings.ndim == 1 else scores
