"""Dense autoencoder with a margin-based class-separation head and latent clustering.

The training loss over a batch is

    sum_i ||x_i - D(E(x_i))||^2
  + sum_i beta * ||E(x_i) - M[s_i]||^2 / (n_{s_i} - 1 + delta)
  + sum_i (alpha / n_{s_i}) * CE_i

where M holds latent centroids, s_i is point i's cluster, n_j counts the
batch members of cluster j, and CE_i is the cross-entropy of a scaled
cosine head that subtracts a margin from the true-class logit (features
and class weight rows are L2-normalized). All gradients are exact,
including the normalization Jacobians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics as _metrics
from .cluster_core import _dump_model, _finite, _load_model, kmeanspp_init, lloyd, nearest_centroids
from .dataset import LabeledDataset
from .errors import (DimensionMismatch, InvalidSpec, NotBinary, OneClassOnly, TrainingDiverged,
                     UntrainedModel)

NORM_FLOOR = 1e-12  # guards L2 normalization of near-zero vectors

DEFAULT_SCALE = 30.0
DEFAULT_MARGIN = 0.35


# --- plain dense networks -------------------------------------------------

@dataclass
class DenseNet:
    """Fully connected layers, ReLU on hidden layers, identity output."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def copy(self) -> "DenseNet":
        return DenseNet([w.copy() for w in self.weights], [b.copy() for b in self.biases])


def init_dense(sizes: list[int], rng: np.random.Generator) -> DenseNet:
    """Glorot-uniform weights, zero biases."""
    weights, biases = [], []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        limit = math.sqrt(6.0 / (n_in + n_out))
        weights.append(rng.uniform(-limit, limit, size=(n_in, n_out)))
        biases.append(np.zeros(n_out))
    return DenseNet(weights, biases)


def _pack(nets: list[DenseNet], extra: list[np.ndarray] = (), copy: bool = True
          ) -> tuple[np.ndarray, list[DenseNet], list[np.ndarray]]:
    """(buffer, nets, extra): each net's weights then biases, then each array of `extra`,
    as views of one new flat buffer in that order. The views hold the arrays' values
    when `copy` is set and are left unset otherwise, as for gradients.

    Parameters and their gradients packed alike take an SGD step as one update,
    `theta -= lr * grad`, with each entry's bits as if stepped array by array.
    """
    arrays = [a for net in nets for a in (*net.weights, *net.biases)] + list(extra)
    buf = (np.concatenate([a.ravel() for a in arrays]) if copy
           else np.empty(sum(a.size for a in arrays)))
    views, start = [], 0
    for a in arrays:
        views.append(buf[start:start + a.size].reshape(a.shape))
        start += a.size
    packed = []
    for net in nets:
        n = len(net.weights)
        packed.append(DenseNet(views[:n], views[n:2 * n]))
        views = views[2 * n:]
    return buf, packed, views


def _forward_runs(nets: list[DenseNet], h: np.ndarray, runs: list[tuple[int, slice]]
                  ) -> tuple[np.ndarray, list]:
    """`net_forward` of nets[j] on the rows h[run] of each (j, run) of `runs`, in one pass.

    The nets share their layer widths, and the runs cover the rows of h. Each
    layer's matrix product runs per run, into that run's rows of the layer's
    output, and the run's bias is added there in place, so a run gets the bits
    that nets[j] gives h[run] on its own: a BLAS product's bits can depend on
    its row count. ReLU runs once over all rows.
    """
    caches = []
    last = len(nets[0].weights) - 1
    for l in range(last + 1):
        a = np.empty((h.shape[0], nets[0].weights[l].shape[1]))
        for j, run in runs:
            np.matmul(h[run], nets[j].weights[l], out=a[run])
            a[run] += nets[j].biases[l]
        caches.append((h, a))
        h = np.maximum(a, 0.0) if l < last else a
    return h, caches


def _backward_runs(nets: list[DenseNet], caches: list, grad: np.ndarray,
                   runs: list[tuple[int, slice]], grads: list[DenseNet],
                   input_grad: bool) -> np.ndarray | None:
    """Backprop `grad`, the gradient w.r.t. the output of `_forward_runs(nets, _, runs)`,
    into the weight and bias arrays of grads[j] for each run's net j.

    The products and the bias-gradient sums run per run; the ReLU mask once over
    all rows. Returns the gradient w.r.t. the input, or None without `input_grad`,
    which skips layer 0's input product.
    """
    last = len(caches) - 1
    for l in range(last, -1, -1):
        h, a = caches[l]
        da = grad if l == last else grad * (a > 0.0)
        grad = np.empty(h.shape) if l or input_grad else None
        for j, run in runs:
            np.matmul(h[run].T, da[run], out=grads[j].weights[l])
            da[run].sum(axis=0, out=grads[j].biases[l])
            if grad is not None:
                np.matmul(da[run], nets[j].weights[l].T, out=grad[run])
    return grad


def _rows(net: DenseNet, x: np.ndarray) -> np.ndarray:
    """x as a float64 batch of rows as wide as net's input, else a DimensionMismatch."""
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != net.weights[0].shape[0]:
        raise DimensionMismatch(f"input shape {h.shape} vs layer dim {net.weights[0].shape[0]}")
    return h


def net_forward(net: DenseNet, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Forward pass returning the output and per-layer caches for backprop."""
    return _forward_runs([net], _rows(net, x), [(0, slice(None))])


def _infer(net: DenseNet, x: np.ndarray) -> np.ndarray:
    """`net_forward(net, x)[0]` bit for bit, for inference: per layer the same product, bias
    sum in place and ReLU, without the caches backprop needs."""
    h, last = _rows(net, x), len(net.weights) - 1
    for l in range(last + 1):
        h = h @ net.weights[l]
        h += net.biases[l]
        if l < last:
            np.maximum(h, 0.0, out=h)
    return h


def net_backward(net: DenseNet, caches: list, grad_out: np.ndarray) -> tuple[tuple[list, list], np.ndarray]:
    """Backprop through the cached forward pass.

    Returns ((weight grads, bias grads), gradient w.r.t. the input). The grads
    are views of one buffer that belongs to this call alone.
    """
    _, (grads,), _ = _pack([net], copy=False)
    grad = _backward_runs([net], caches, grad_out, [(0, slice(None))], [grads], True)
    return (grads.weights, grads.biases), grad


@dataclass
class NetParams:
    """Encoder/decoder pair of an autoencoder."""

    encoder: DenseNet
    decoder: DenseNet

    def copy(self) -> "NetParams":
        return NetParams(self.encoder.copy(), self.decoder.copy())


def init_params(n_features: int, hidden: int, latent: int, seed: int = 0) -> NetParams:
    rng = np.random.default_rng(seed)
    encoder = init_dense([n_features, hidden, latent], rng)
    decoder = init_dense([latent, hidden, n_features], rng)
    return NetParams(encoder, decoder)


def encode(params: NetParams, x: np.ndarray) -> np.ndarray:
    return _infer(params.encoder, x)


# --- margin head ----------------------------------------------------------

@dataclass
class AmsHead:
    """Scaled-cosine classification head with an additive margin.

    Rows of `weight` are per-class directions. Logits are
    `scale * (what . zhat)` with `scale * margin` subtracted from the true
    class, where hats denote L2 normalization.
    """

    weight: np.ndarray
    scale: float = DEFAULT_SCALE
    margin: float = DEFAULT_MARGIN

    def copy(self) -> "AmsHead":
        return AmsHead(self.weight.copy(), self.scale, self.margin)

    @property
    def n_classes(self) -> int:
        return self.weight.shape[0]


def init_head(n_classes: int, latent: int, seed: int = 0,
              scale: float = DEFAULT_SCALE, margin: float = DEFAULT_MARGIN) -> AmsHead:
    rng = np.random.default_rng(seed)
    limit = math.sqrt(6.0 / (n_classes + latent))
    return AmsHead(rng.uniform(-limit, limit, size=(n_classes, latent)), scale, margin)


def _normalize_rows(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.maximum(np.linalg.norm(v, axis=1, keepdims=True), NORM_FLOOR)
    return v / norms, norms


def _unnormalize_grad(grad_hat: np.ndarray, v_hat: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. v/||v|| back to v: project out the radial part."""
    radial = (grad_hat * v_hat).sum(axis=1, keepdims=True)
    return (grad_hat - radial * v_hat) / norms


def ams_forward_backward(head: AmsHead, z: np.ndarray, y: np.ndarray,
                         point_weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-point cross-entropies plus gradients of the weighted sum.

    Returns (ce, dz, d_head_weight) where ce is unweighted and the gradients
    are of ``sum_i point_weights[i] * ce[i]`` w.r.t. the raw z rows and the
    raw head weight.
    """
    z = np.asarray(z, dtype=np.float64)
    yv = np.asarray(y, dtype=np.int64)
    if z.shape[1] != head.weight.shape[1]:
        raise DimensionMismatch(f"latent dim {z.shape[1]} vs head dim {head.weight.shape[1]}")
    zn, z_norms = _normalize_rows(z)
    wn, w_norms = _normalize_rows(head.weight)
    logits = head.scale * (zn @ wn.T)
    rows = np.arange(z.shape[0])
    logits[rows, yv] -= head.scale * head.margin

    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    log_z = np.log(exp.sum(axis=1)) + logits.max(axis=1)
    ce = log_z - logits[rows, yv]

    g = probs.copy()
    g[rows, yv] -= 1.0
    g *= np.asarray(point_weights, dtype=np.float64)[:, None]
    dzn = head.scale * (g @ wn)
    dwn = head.scale * (g.T @ zn)
    dz = _unnormalize_grad(dzn, zn, z_norms)
    dw = _unnormalize_grad(dwn, wn, w_norms)
    return ce, dz, dw


@dataclass
class AmsBounds:
    """Affine centroid bounds on the summed margin cross-entropy."""

    lower: float
    upper: float | None
    actual: float


def ams_bounds(z: np.ndarray, y: np.ndarray, head: AmsHead) -> AmsBounds:
    """Bound the binary margin loss by affine functions of the normalized
    class centroids.

    With gamma the difference of the normalized class weight rows and T =
    s*(N_pos * gamma.mu_pos - N_neg * gamma.mu_neg) over normalized
    embeddings, the loss is at least N*(log 2 + s*m/2) - T/2 (tangent of
    softplus at zero). When every per-point margin exponent is positive the
    linear overestimate softplus(t) <= 1 + t gives the upper bound
    N*(1 + s*m) - T; otherwise the upper bound is reported as None.
    """
    if head.n_classes != 2:
        raise NotBinary("bounds are defined for the binary head")
    yv = np.asarray(y, dtype=np.int64)
    n_pos = int((yv == 1).sum())
    n_neg = int((yv == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise OneClassOnly("both classes are required")
    zn, _ = _normalize_rows(np.asarray(z, dtype=np.float64))
    wn, _ = _normalize_rows(head.weight)
    gamma = wn[1] - wn[0]
    proj = zn @ gamma
    s, m = head.scale, head.margin
    exponents = np.where(yv == 1, s * m - s * proj, s * m + s * proj)
    actual = float((np.maximum(exponents, 0.0) + np.log1p(np.exp(-np.abs(exponents)))).sum())
    mu_pos = zn[yv == 1].mean(axis=0)
    mu_neg = zn[yv == 0].mean(axis=0)
    t = s * (n_pos * float(gamma @ mu_pos) - n_neg * float(gamma @ mu_neg))
    n = yv.size
    lower = n * (math.log(2.0) + s * m / 2.0) - t / 2.0
    upper = n * (1.0 + s * m) - t if float(exponents.min()) > 0.0 else None
    return AmsBounds(lower, upper, actual)


# --- combined loss --------------------------------------------------------

@dataclass
class LossParts:
    """Breakdown of the batch loss; `margin_raw` is the unweighted CE sum."""

    reconstruction: float
    clustering: float
    margin_raw: float
    margin_weighted: float

    @property
    def total(self) -> float:
        return self.reconstruction + self.clustering + self.margin_weighted


def _reconstruction_step(params: NetParams, x: np.ndarray, dec_grads: DenseNet
                         ) -> tuple[np.ndarray, float, np.ndarray, list]:
    """Autoencode x and backprop the summed squared reconstruction error through the
    decoder into `dec_grads`: (z, the error, its gradient w.r.t. z, the encoder caches)."""
    z, enc_caches = net_forward(params.encoder, x)
    x_hat, dec_caches = net_forward(params.decoder, z)
    resid = x_hat - x
    dz = _backward_runs([params.decoder], dec_caches, 2.0 * resid, [(0, slice(None))],
                        [dec_grads], True)
    return z, float((resid * resid).sum()), dz, enc_caches


def forward_backward(params: NetParams, head: AmsHead, x: np.ndarray, y: np.ndarray,
                     assignments: np.ndarray, centroids: np.ndarray,
                     alpha: float, beta: float, delta: float) -> tuple[LossParts, dict]:
    """Evaluate the batch loss and its exact gradients.

    Cluster sizes entering the weights are counted within the batch.
    Centroids are treated as constants. Returns (LossParts, grads) where
    grads holds "encoder"/"decoder" (weight list, bias list) pairs and
    "head" for the head weight matrix. Every grad is a view of one buffer
    that belongs to this call alone, laid out as `_pack([encoder, decoder],
    [head weight])` lays out the parameters, so a step can update them all
    at once from ``grads["head"].base``.
    """
    x = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.int64)
    assign = np.asarray(assignments, dtype=np.int64)
    cent = np.asarray(centroids, dtype=np.float64)
    if x.shape[0] != yv.shape[0] or x.shape[0] != assign.shape[0]:
        raise DimensionMismatch("x, y and assignments must agree on the batch size")

    _, (enc_grads, dec_grads), (head_grad,) = _pack([params.encoder, params.decoder],
                                                    [head.weight], copy=False)
    z, recon, dz_recon, enc_caches = _reconstruction_step(params, x, dec_grads)
    if z.shape[1] != cent.shape[1]:
        raise DimensionMismatch(f"latent dim {z.shape[1]} vs centroid dim {cent.shape[1]}")

    counts = np.bincount(assign, minlength=cent.shape[0])
    n_pt = counts[assign].astype(np.float64)
    if beta != 0.0:
        denom = n_pt - 1.0 + delta
        if (denom <= 0.0).any():
            raise InvalidSpec("n_j - 1 + delta must stay positive; raise delta")
        w_cluster = beta / denom
    else:
        w_cluster = np.zeros_like(n_pt)
    diffs = z - cent[assign]
    clustering = float((w_cluster * (diffs * diffs).sum(axis=1)).sum())
    dz_cluster = (2.0 * w_cluster)[:, None] * diffs

    u = alpha / n_pt
    ce, dz_margin, d_head = ams_forward_backward(head, z, yv, u)
    head_grad[...] = d_head
    parts = LossParts(
        reconstruction=recon,
        clustering=clustering,
        margin_raw=float(ce.sum()),
        margin_weighted=float((u * ce).sum()),
    )
    _backward_runs([params.encoder], enc_caches, dz_recon + dz_cluster + dz_margin,
                   [(0, slice(None))], [enc_grads], False)
    return parts, {"encoder": (enc_grads.weights, enc_grads.biases),
                   "decoder": (dec_grads.weights, dec_grads.biases), "head": head_grad}


# --- training stages ------------------------------------------------------

def _diverging() -> np.errstate:
    """Let a diverging stage overflow quietly; its loss and output checks raise TrainingDiverged."""
    return np.errstate(over="ignore", invalid="ignore")


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start:start + batch_size]


def pretrain(ds: LabeledDataset, params: NetParams, epochs: int, lr: float,
             seed: int = 0, batch_size: int = 128) -> tuple[NetParams, list[float]]:
    """Minibatch SGD on the reconstruction term alone.

    Updates are scaled by 1/batch so the learning rate is batch-size
    agnostic. Returns a trained copy of the parameters and the mean
    per-point reconstruction loss per epoch; raises TrainingDiverged at
    the first epoch whose loss is non-finite.
    """
    theta, nets, _ = _pack([params.encoder, params.decoder])
    params = NetParams(*nets)
    grad, (enc_grads, dec_grads), _ = _pack(nets, copy=False)
    rng = np.random.default_rng(seed)
    x = ds.features
    history = []
    with _diverging():
        for epoch in range(1, epochs + 1):
            epoch_loss = 0.0
            for idx in _batches(ds.n_samples, batch_size, rng):
                _, recon, dz, enc_caches = _reconstruction_step(params, x[idx], dec_grads)
                epoch_loss += recon
                _backward_runs([params.encoder], enc_caches, dz, [(0, slice(None))],
                               [enc_grads], False)
                theta -= (lr * (1.0 / idx.size)) * grad
            if not math.isfinite(epoch_loss):
                raise TrainingDiverged("pretrain", epoch)
            history.append(epoch_loss / ds.n_samples)
    return params, history


@dataclass
class LatentClusterState:
    """Latent centroids with hard assignments and online-update counters."""

    centroids: np.ndarray
    assignments: np.ndarray
    counts: np.ndarray


def init_latent_clusters(params: NetParams, ds: LabeledDataset, k: int,
                         seed: int = 0) -> LatentClusterState:
    """k-means on the current embedding; counters start at the cluster sizes."""
    z = encode(params, ds.features)
    km = lloyd(z, kmeanspp_init(z, k, seed))
    counts = np.bincount(km.assignments, minlength=k)
    return LatentClusterState(km.centroids, km.assignments, counts)


def update_assignments(state: LatentClusterState, z_batch: np.ndarray,
                       indices: np.ndarray) -> LatentClusterState:
    """Reassign the batch points to their nearest centroid (lowest index on ties)."""
    state.assignments[np.asarray(indices)] = nearest_centroids(z_batch, state.centroids)
    return state


def update_centroids_online(state: LatentClusterState, z_batch: np.ndarray,
                            indices: np.ndarray) -> LatentClusterState:
    """Streaming centroid update for a whole batch, in closed form.

    The streaming rule moves a cluster's centroid by (z - centroid) / count
    for each of its points in batch order, using the pre-increment counter,
    then bumps the counter. With the batch's assignments fixed, T rows
    summing to S land a cluster with counter N at

        ((N - 1) * centroid + S) / (N - 1 + T),

    and the counter becomes N + T. This equals the per-point rule in real
    arithmetic and differs from it in floating point only by roundoff. A
    counter of 1 still puts the centroid exactly on a lone point, and a
    cluster with no batch rows keeps its centroid bit for bit. Counters
    must be at least 1.
    """
    z = np.asarray(z_batch, dtype=np.float64)
    k, d = state.centroids.shape
    assign = state.assignments[np.asarray(indices)]
    if z.shape != (assign.size, d):
        raise DimensionMismatch(f"batch shape {z.shape} vs {assign.size} indices and latent dim {d}")
    hits = np.bincount(assign, minlength=k)
    # per-cluster row sums, each accumulated in batch order
    cells = (assign[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(cells, weights=z.ravel(), minlength=k * d).reshape(k, d)
    moved = np.flatnonzero(hits)
    prior = (state.counts[moved] - 1.0)[:, None]
    state.centroids[moved] = ((prior * state.centroids[moved] + sums[moved])
                              / (prior + hits[moved, None]))
    state.counts += hits
    return state


# --- the full model -------------------------------------------------------

@dataclass
class DeepCacModel:
    """Frozen encoder, latent centroids and one local softmax net per cluster."""

    encoder: DenseNet
    centroids: np.ndarray
    local_nets: list[DenseNet]
    alpha: float
    beta: float
    delta: float
    head: AmsHead
    n_classes: int
    history: dict = field(default_factory=dict)

    def __post_init__(self):
        """Check once that the parts fit and are finite: the encoder's layers chain, the centroids
        match its output width, and the head and one local net per centroid fit it and n_classes."""
        latent = _net_widths(self.encoder, "encoder")[1]
        if self.centroids.ndim != 2 or self.centroids.shape[1] != latent:
            raise DimensionMismatch(f"centroids of shape {self.centroids.shape} vs encoder output width {latent}")
        _finite("centroids", self.centroids)
        n, k = len(self.local_nets), self.k
        if n and n != k:
            raise DimensionMismatch(f"cluster {n} has no local net" if n < k else f"local net {k} has no cluster")
        if self.head.weight.shape != (self.n_classes, latent):
            raise DimensionMismatch(f"head of shape {self.head.weight.shape} is not ({self.n_classes}, {latent})")
        _finite("head weight", self.head.weight)
        for j, net in enumerate(self.local_nets):
            if _net_widths(net, f"local net {j}") != (latent, self.n_classes):
                raise DimensionMismatch(f"local net {j} does not map {latent} inputs to {self.n_classes} classes")

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


def _net_widths(net: DenseNet, part: str) -> tuple[int, int]:
    """The input and output widths of `net`, whose layers must chain and be finite."""
    if not net.weights or len(net.weights) != len(net.biases):
        raise DimensionMismatch(f"{part} has {len(net.weights)} weight matrices and {len(net.biases)} biases")
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        if w.ndim != 2 or b.shape != w.shape[1:] or (l and w.shape[0] != net.weights[l - 1].shape[1]):
            raise DimensionMismatch(f"{part} layer {l}: weights {w.shape} and bias {b.shape} do not chain")
        _finite(f"{part} layer {l}", w, b)
    return net.weights[0].shape[0], net.weights[-1].shape[1]


def _softmax(logits: np.ndarray) -> np.ndarray:
    e = logits - logits.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def _route_runs(routes: np.ndarray, k: int) -> list[tuple[int, slice]]:
    """(j, run) for each cluster j < k that has rows, `run` slicing its rows once the
    rows are sorted by route with a stable sort, which keeps each cluster's rows in
    their order as one contiguous run."""
    runs, start = [], 0
    for j, n in enumerate(np.bincount(routes, minlength=k).tolist()):
        if n:
            runs.append((j, slice(start, start + n)))
            start += n
    return runs


def _routed_proba(nets: list[DenseNet], z_sorted: np.ndarray, order: np.ndarray,
                  runs: list[tuple[int, slice]]) -> np.ndarray:
    """Class probabilities of the rows `z_sorted`, sorted by `order` into `runs`, each
    row under its run's net, returned in the rows' order before the sort."""
    probs = _softmax(_forward_runs(nets, z_sorted, runs)[0])
    out = np.empty_like(probs)
    out[order] = probs
    return out


def _local_proba(local_nets: list[DenseNet], z: np.ndarray, routes: np.ndarray) -> np.ndarray:
    """Each row's class probabilities under the local net of its route, every net in one pass."""
    runs = _route_runs(routes, len(local_nets))
    if len(runs) == 1:  # one cluster: the rows are already in sorted order
        return _softmax(_forward_runs(local_nets, z, runs)[0])
    order = np.argsort(routes, kind="stable")
    return _routed_proba(local_nets, z[order], order, runs)


def _class_cosine(z: np.ndarray, y: np.ndarray) -> float | None:
    """Cosine between the mean normalized embeddings of the two classes."""
    if not ((y == 0).any() and (y == 1).any()):
        return None
    zn, _ = _normalize_rows(z)
    mu_pos = zn[y == 1].mean(axis=0)
    mu_neg = zn[y == 0].mean(axis=0)
    denom = max(np.linalg.norm(mu_pos) * np.linalg.norm(mu_neg), NORM_FLOOR)
    return float(mu_pos @ mu_neg / denom)


def _train_local_nets(encoder: DenseNet, centroids: np.ndarray, z_train: np.ndarray,
                      y_train: np.ndarray, ds_val: LabeledDataset, n_classes: int,
                      rng: np.random.Generator, hidden: int, epochs: int, lr: float,
                      batch_size: int, patience: int
                      ) -> tuple[list[DenseNet], np.ndarray, list[float]]:
    """Train per-cluster softmax nets on the frozen encoder's training embedding `z_train`.

    Empty clusters are pruned first and their would-be members rerouted.
    Training stops early once the validation AUPRC has not improved for
    `patience` consecutive epochs; the best snapshot is returned together
    with the pruned centroids and the validation trace.
    """
    # an empty cluster won no row, not even a tie, so dropping it reroutes nothing
    keep, routes = np.unique(nearest_centroids(z_train, centroids), return_inverse=True)
    centroids = centroids[keep]
    k, latent = centroids.shape
    nets = [init_dense([latent, hidden, n_classes], rng) for _ in range(k)]

    # All nets train in lockstep, bit for bit as one at a time: each epoch permutes
    # every cluster's rows in cluster order, and then step b trains every net that
    # has a b-th batch, on the rows of those batches laid out cluster by cluster.
    order, runs = np.argsort(routes, kind="stable"), _route_runs(routes, k)
    sizes = [run.stop - run.start for _, run in runs]
    n_batches = [-(-n // batch_size) for n in sizes]
    # parameters and gradients packed with the nets of most batches first, so the
    # nets that step at any b are a prefix of each buffer, updated as one
    first = sorted(range(k), key=lambda j: -n_batches[j])
    theta, packed, _ = _pack([nets[j] for j in first])
    grad, packed_grads, _ = _pack(packed, copy=False)
    grads = [None] * k
    for p, j in enumerate(first):
        nets[j], grads[j] = packed[p], packed_grads[p]
    steps, start = [], 0
    for b in range(max(n_batches)):
        live = [(j, min(batch_size, n - b * batch_size)) for j, n in enumerate(sizes)
                if n > b * batch_size]
        step_runs, rows = [], 0
        for j, m in live:
            step_runs.append((j, slice(rows, rows + m)))
            rows += m
        # each row's gradient is scaled by 1/(its net's batch size)
        scale = np.repeat([float(m) for _, m in live], [m for _, m in live])[:, None]
        steps.append((slice(start, start + rows), step_runs, scale, np.arange(rows),
                      theta.size // k * len(live)))
        start += rows
    # moves a permuted cluster-major order of the rows to the steps' batch-major one
    layout = np.argsort(np.concatenate([np.arange(n) // batch_size for n in sizes]), kind="stable")
    z_sorted, y_sorted = z_train[order], y_train[order]

    z_val = _infer(encoder, ds_val.features)
    val_routes = nearest_centroids(z_val, centroids)
    val_order, val_runs = np.argsort(val_routes, kind="stable"), _route_runs(val_routes, k)
    z_val_sorted = z_val[val_order]

    def val_score() -> float:
        probs = _routed_proba(nets, z_val_sorted, val_order, val_runs)
        if n_classes == 2:
            return _metrics.auprc(probs[:, 1], ds_val.labels)
        return _metrics.macro_auprc(probs, ds_val.labels, n_classes)

    best_score = -np.inf
    best_nets = [net.copy() for net in nets]
    stale = 0
    trace = []
    for _ in range(epochs):
        pos = np.concatenate([run.start + rng.permutation(n)
                              for (_, run), n in zip(runs, sizes)])[layout]
        z_epoch, y_epoch = z_sorted[pos], y_sorted[pos]
        for rows, step_runs, scale, row_ids, end in steps:
            logits, caches = _forward_runs(nets, z_epoch[rows], step_runs)
            probs = _softmax(logits)
            probs[row_ids, y_epoch[rows]] -= 1.0
            probs /= scale
            _backward_runs(nets, caches, probs, step_runs, grads, False)
            theta[:end] -= lr * grad[:end]
        score = val_score()
        trace.append(score)
        if score > best_score + 1e-12:
            best_score = score
            best_nets = [net.copy() for net in nets]
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                break
    return best_nets, centroids, trace


def _checked_embedding(params: NetParams, x: np.ndarray, stage: str, epoch: int) -> np.ndarray:
    """The embedding of x that `stage` ends with; raises TrainingDiverged unless every
    row's squared norm, and so every entry, is finite."""
    with _diverging():
        z = encode(params, x)
        finite = np.isfinite(np.einsum("ij,ij->i", z, z)).all()
    if not finite:
        raise TrainingDiverged(stage, epoch)
    return z


def deepcac_fit(ds_train: LabeledDataset, ds_val: LabeledDataset, k: int,
                alpha: float = 5.0, beta: float = 20.0, delta: float = 1.0,
                epochs: int = 20, lr: float = 2e-3, seed: int = 0, *,
                hidden: int = 64, latent: int = 32, local_hidden: int = 30,
                batch_size: int = 128, pretrain_epochs: int = 50,
                local_epochs: int = 200, local_lr: float = 0.05,
                patience: int = 10, scale: float = DEFAULT_SCALE,
                margin: float = DEFAULT_MARGIN) -> DeepCacModel:
    """Three-stage training: pretrain, cluster-aware finetuning, local nets.

    Stage 1 pretrains the autoencoder on reconstruction only. Stage 2 runs
    `epochs` epochs of minibatch SGD on the combined loss; after each
    parameter step the batch is re-embedded, reassigned to the nearest
    centroid, and the centroids take streaming updates. Stage 3 freezes the
    encoder, prunes empty clusters and trains one softmax net per cluster
    with early stopping on validation AUPRC. A non-finite epoch loss in
    stage 1 or 2, or a non-finite embedding at the end of either, raises
    TrainingDiverged naming the stage and epoch.
    """
    sub = np.random.SeedSequence(seed).generate_state(5)
    params = init_params(ds_train.n_features, hidden, latent, seed=int(sub[0]))
    params, pre_history = pretrain(ds_train, params, pretrain_epochs, lr,
                                   seed=int(sub[1]), batch_size=batch_size)

    history: dict = {"pretrain_recon": pre_history}
    z_all = _checked_embedding(params, ds_train.features, "pretrain", pretrain_epochs)
    history["class_cosine_pretrain"] = _class_cosine(z_all, ds_train.labels)

    state = init_latent_clusters(params, ds_train, k, seed=int(sub[2]))
    head = init_head(ds_train.n_classes, latent, seed=int(sub[0]), scale=scale, margin=margin)

    # the parameters laid out as forward_backward lays out its grads
    theta, (encoder, decoder), (head_weight,) = _pack([params.encoder, params.decoder],
                                                      [head.weight])
    params, head.weight = NetParams(encoder, decoder), head_weight
    rng = np.random.default_rng(int(sub[3]))
    x = ds_train.features
    stage2_loss = []
    with _diverging():
        for epoch in range(1, epochs + 1):
            epoch_total = 0.0
            for idx in _batches(ds_train.n_samples, batch_size, rng):
                xb = x[idx]
                parts, grads = forward_backward(params, head, xb, ds_train.labels[idx],
                                                state.assignments[idx], state.centroids,
                                                alpha, beta, delta)
                epoch_total += parts.total
                theta -= (lr / idx.size) * grads["head"].base
                zb = encode(params, xb)
                update_assignments(state, zb, idx)
                update_centroids_online(state, zb, idx)
            if not math.isfinite(epoch_total):
                raise TrainingDiverged("stage-2", epoch)
            stage2_loss.append(epoch_total)
    history["stage2_loss"] = stage2_loss

    z_all = _checked_embedding(params, ds_train.features, "stage-2", epochs)
    history["class_cosine_final"] = _class_cosine(z_all, ds_train.labels)
    if ds_train.n_classes == 2 and epochs > 0:
        bounds = ams_bounds(z_all, ds_train.labels, head)
        history["margin_bounds"] = {"lower": bounds.lower, "upper": bounds.upper,
                                    "actual": bounds.actual}

    rng3 = np.random.default_rng(int(sub[4]))
    nets, centroids, val_trace = _train_local_nets(
        params.encoder, state.centroids, z_all, ds_train.labels, ds_val, ds_train.n_classes,
        rng3, local_hidden, local_epochs, local_lr, batch_size, patience)
    history["val_auprc"] = val_trace
    history["clusters_kept"] = centroids.shape[0]

    return DeepCacModel(params.encoder, centroids, nets, alpha, beta, delta,
                        head, ds_train.n_classes, history)


def kmz_fit(ds_train: LabeledDataset, ds_val: LabeledDataset, k: int,
            lr: float = 2e-3, seed: int = 0, **kwargs) -> DeepCacModel:
    """Baseline: pretrain, k-means on the embeddings, local nets; no finetuning.

    Shares every stage with :func:`deepcac_fit` except the combined-loss
    epochs, so a matching seed yields the identical pretrained autoencoder.
    """
    return deepcac_fit(ds_train, ds_val, k, alpha=0.0, beta=0.0, delta=1.0,
                       epochs=0, lr=lr, seed=seed, **kwargs)


def deepcac_predict_batch(model: DeepCacModel, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels and class probabilities for a feature matrix."""
    if not model.local_nets:
        raise UntrainedModel("model has no trained local networks")
    z = _infer(model.encoder, features)
    routes = nearest_centroids(z, model.centroids)
    probs = _local_proba(model.local_nets, z, routes)
    if model.n_classes == 2:
        return (probs[:, 1] >= _metrics.DECISION_THRESHOLD).astype(np.int64), probs
    return probs.argmax(axis=1), probs


def deepcac_predict(model: DeepCacModel, x: np.ndarray) -> tuple[int, np.ndarray]:
    """Single-point prediction: (label, class probabilities), bit for bit the batch of one
    x[None, :]. The row is encoded, routed and scored by its route's local net alone."""
    if not model.local_nets:
        raise UntrainedModel("model has no trained local networks")
    z = _infer(model.encoder, np.asarray(x, dtype=np.float64)[None, :])
    probs = _softmax(_infer(model.local_nets[nearest_centroids(z, model.centroids)[0]], z))[0]
    label = probs[1] >= _metrics.DECISION_THRESHOLD if model.n_classes == 2 else probs.argmax()
    return int(label), probs


# --- serialization --------------------------------------------------------

def _net_to_dict(net: DenseNet) -> dict:
    return {"weights": [w.tolist() for w in net.weights],
            "biases": [b.tolist() for b in net.biases]}


def _net_from_dict(d: dict) -> DenseNet:
    return DenseNet([np.asarray(w, dtype=np.float64) for w in d["weights"]],
                    [np.asarray(b, dtype=np.float64) for b in d["biases"]])


def deepcac_model_to_json(model: DeepCacModel) -> str:
    return _dump_model("deepcac", {
        "alpha": model.alpha,
        "beta": model.beta,
        "delta": model.delta,
        "n_classes": model.n_classes,
        "encoder": _net_to_dict(model.encoder),
        "centroids": model.centroids.tolist(),
        "local_nets": [_net_to_dict(n) for n in model.local_nets],
        "head": {"weight": model.head.weight.tolist(), "scale": model.head.scale,
                 "margin": model.head.margin},
        "history": model.history,
    })


def deepcac_model_from_json(text: str) -> DeepCacModel:
    return _load_model(text, "deepcac", lambda d: DeepCacModel(
        encoder=_net_from_dict(d["encoder"]),
        centroids=np.asarray(d["centroids"], dtype=np.float64),
        local_nets=[_net_from_dict(n) for n in d["local_nets"]],
        alpha=float(d["alpha"]),
        beta=float(d["beta"]),
        delta=float(d["delta"]),
        head=AmsHead(np.asarray(d["head"]["weight"], dtype=np.float64),
                     float(d["head"]["scale"]), float(d["head"]["margin"])),
        n_classes=int(d["n_classes"]),
        history=d.get("history", {}),
    ))
