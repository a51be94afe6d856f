"""Dataset ingestion, standardization, splitting and synthetic benchmark generation."""

from __future__ import annotations

import csv
import math
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidDataset, InvalidSpec, ParseError

# features whose population std falls below this are treated as constant
CONSTANT_FEATURE_STD = 1e-12


def _is_int(value) -> bool:
    """An integer, numpy integers included, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A real number that is not a bool and that a float holds finitely."""
    if _is_int(value):
        return -sys.float_info.max <= value <= sys.float_info.max
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with integer class labels.

    Rows are samples, columns are named features. Labels are contiguous
    integers in ``[0, n_classes)``. The arrays are marked read-only after
    construction, so instances are safe to share across workers.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    n_classes: int

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise InvalidDataset(f"need a non-empty 2-D feature matrix, got shape {feats.shape}")
        if labels.shape != (feats.shape[0],):
            raise InvalidDataset("labels must be a vector with one entry per row")
        if not np.isfinite(feats).all():
            raise InvalidDataset("feature matrix contains non-finite entries")
        if self.n_classes < 2:
            raise InvalidDataset("n_classes must be at least 2")
        if labels.min() < 0 or labels.max() >= self.n_classes:
            raise InvalidDataset("labels must lie in [0, n_classes)")
        names = tuple(str(n) for n in self.feature_names)
        if len(names) != feats.shape[1]:
            raise InvalidDataset("feature_names length must match the feature count")
        feats.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", names)

    @classmethod
    def from_arrays(cls, features, labels, feature_names=None, n_classes=None) -> "LabeledDataset":
        """Build a dataset, inferring names and class count when omitted."""
        feats = np.asarray(features, dtype=np.float64)
        labs = np.asarray(labels, dtype=np.int64)
        if feature_names is None:
            feature_names = tuple(f"x{j}" for j in range(feats.shape[1] if feats.ndim == 2 else 0))
        if n_classes is None:
            n_classes = int(labs.max()) + 1 if labs.size else 0
        return cls(feats, labs, tuple(feature_names), int(n_classes))

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "LabeledDataset":
        """Dataset restricted to the given row indices, order preserved."""
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.features[idx], self.labels[idx], self.feature_names, self.n_classes)


def load_csv(path, label_column: str, has_header: bool = True) -> LabeledDataset:
    """Load an RFC-4180-style CSV file into a :class:`LabeledDataset`.

    Label values may be arbitrary strings and are re-encoded to contiguous
    integers in order of first appearance. Every other column must parse as
    a finite real. Without a header, columns are named ``x0..x{d}`` and
    ``label_column`` must refer to one of those synthetic names.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ParseError(0, 0, "empty file")
    if has_header:
        header = [h.strip() for h in rows[0]]
        data_rows = rows[1:]
    else:
        header = [f"x{j}" for j in range(len(rows[0]))]
        data_rows = rows
    if label_column not in header:
        raise InvalidDataset(f"label column {label_column!r} not in {header}")
    label_idx = header.index(label_column)
    feature_names = tuple(h for j, h in enumerate(header) if j != label_idx)
    if not feature_names:
        raise InvalidDataset("no feature columns besides the label")
    if not data_rows:
        raise InvalidDataset("no data rows")

    n, d = len(data_rows), len(feature_names)
    feats = np.empty((n, d), dtype=np.float64)
    codes = np.empty(n, dtype=np.int64)
    label_code: dict[str, int] = {}
    for r, row in enumerate(data_rows):
        if len(row) != len(header):
            raise ParseError(r, len(row), f"expected {len(header)} cells, got {len(row)}")
        c = 0
        for j, cell in enumerate(row):
            if j == label_idx:
                key = cell.strip()
                codes[r] = label_code.setdefault(key, len(label_code))
                continue
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(r, j) from None
            if not math.isfinite(value):
                raise ParseError(r, j, "non-finite value")
            feats[r, c] = value
            c += 1
    if len(label_code) < 2:
        raise InvalidDataset("need at least two distinct label values")
    return LabeledDataset(feats, codes, feature_names, len(label_code))


def save_csv(ds: LabeledDataset, path, label_column: str = "y") -> None:
    """Write the dataset as CSV with a header row; labels go in `label_column`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.feature_names) + [label_column])
        for row, label in zip(ds.features, ds.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def standardize(ds: LabeledDataset) -> tuple[LabeledDataset, np.ndarray, np.ndarray]:
    """Center each feature to zero mean and scale to unit population variance.

    Near-constant features (std below 1e-12) are centered only and reported
    with std 1.0 so held-out data can be transformed identically. Returns
    the transformed dataset along with the per-feature means and stds.
    """
    if ds.n_samples < 2:
        raise InvalidDataset("standardize needs at least 2 rows")
    mean = ds.features.mean(axis=0)
    std = ds.features.std(axis=0)
    std = np.where(std < CONSTANT_FEATURE_STD, 1.0, std)
    feats = (ds.features - mean) / std
    return LabeledDataset(feats, ds.labels, ds.feature_names, ds.n_classes), mean, std


def apply_standardization(ds: LabeledDataset, mean: np.ndarray, std: np.ndarray) -> LabeledDataset:
    """Apply previously fitted standardization parameters to another dataset."""
    feats = (ds.features - np.asarray(mean, float)) / np.asarray(std, float)
    return LabeledDataset(feats, ds.labels, ds.feature_names, ds.n_classes)


@dataclass(frozen=True)
class SplitSpec:
    """Three-way split fractions with a seed; fractions must sum to 1."""

    train_frac: float = 0.57
    val_frac: float = 0.18
    test_frac: float = 0.25
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        for name in ("train_frac", "val_frac", "test_frac"):
            f = getattr(self, name)
            if not (_is_number(f) and 0.0 < f < 1.0):
                raise InvalidSpec(f"{name} must lie strictly between 0 and 1, got {f!r}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise InvalidSpec(f"seed must be an integer >= 0, got {self.seed!r}")
        if not isinstance(self.stratified, (bool, np.bool_)):
            raise InvalidSpec(f"stratified must be a bool, got {self.stratified!r}")
        total = self.train_frac + self.val_frac + self.test_frac
        if abs(total - 1.0) > 1e-9:
            raise InvalidSpec(f"split fractions must sum to 1, got {total}")


# guards the floor rule against binary-fraction roundoff (100 * 0.57 is
# 56.999... in floats and must still cut at 57)
_FLOOR_EPS = 1e-9


def _cut_counts(n: int, spec: SplitSpec) -> tuple[int, int, int]:
    n_train = int(math.floor(n * spec.train_frac + _FLOOR_EPS))
    n_val = int(math.floor(n * spec.val_frac + _FLOOR_EPS))
    return n_train, n_val, n - n_train - n_val


def _allocate(pool_sizes: np.ndarray, frac: float, total: int, taken: np.ndarray) -> np.ndarray:
    """Give each class floor(pool * frac) rows, then hand out the remaining
    rows up to `total` by largest fractional remainder, never exceeding what
    a class still has available."""
    ideal = pool_sizes * frac
    counts = np.floor(ideal + _FLOOR_EPS).astype(np.int64)
    counts = np.minimum(counts, pool_sizes - taken)
    order = np.argsort(-(ideal - counts), kind="stable")
    for c in order:
        if counts.sum() >= total:
            break
        if taken[c] + counts[c] < pool_sizes[c]:
            counts[c] += 1
    return counts


def split(ds: LabeledDataset, spec: SplitSpec) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """Seeded train/validation/test split.

    Overall sizes follow the floor rule: ``n_train = floor(N * train_frac)``,
    ``n_val = floor(N * val_frac)``, the remainder is test. With
    ``stratified=True`` the same totals are divided across classes in
    proportion to class frequency (largest-remainder rounding), so each
    class lands within one sample of its expected share per split. Row
    order inside each part follows the original dataset (indices are
    sorted).
    """
    rng = np.random.default_rng(spec.seed)
    parts: list[list[np.ndarray]] = [[], [], []]
    n_train, n_val, _ = _cut_counts(ds.n_samples, spec)
    if spec.stratified:
        pools = [np.flatnonzero(ds.labels == c) for c in range(ds.n_classes)]
        pool_sizes = np.array([p.size for p in pools], dtype=np.int64)
        taken = np.zeros(ds.n_classes, dtype=np.int64)
        train_c = _allocate(pool_sizes, spec.train_frac, n_train, taken)
        taken += train_c
        val_c = _allocate(pool_sizes, spec.val_frac, n_val, taken)
        for c, pool in enumerate(pools):
            perm = pool[rng.permutation(pool.size)]
            a, b = int(train_c[c]), int(train_c[c] + val_c[c])
            parts[0].append(perm[:a])
            parts[1].append(perm[a:b])
            parts[2].append(perm[b:])
    else:
        perm = rng.permutation(ds.n_samples)
        parts[0].append(perm[:n_train])
        parts[1].append(perm[n_train:n_train + n_val])
        parts[2].append(perm[n_train + n_val:])
    out = []
    for name, chunks in zip(("train", "validation", "test"), parts):
        idx = np.sort(np.concatenate(chunks))
        if idx.size == 0:
            raise InvalidDataset(f"{name} split would be empty for N={ds.n_samples}")
        out.append(ds.subset(idx))
    return out[0], out[1], out[2]


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for the clustered binary benchmark generator.

    ``ics`` is the distance between the two class centroids inside each
    cluster; ``ocs`` is the pairwise distance between cluster centroids.
    ``warp`` optionally applies a fixed smooth coordinate-mixing
    nonlinearity ("sin") to the sampled features.
    """

    n_samples: int
    n_features: int
    n_clusters: int
    ics: float
    ocs: float
    seed: int = 0
    warp: str = "none"

    def __post_init__(self):
        for name in ("n_samples", "n_features", "n_clusters", "seed"):
            if not _is_int(getattr(self, name)):
                raise InvalidSpec(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("ics", "ocs"):
            if not _is_number(getattr(self, name)):
                raise InvalidSpec(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if self.n_samples < 1 or self.n_features < 1 or self.n_clusters < 1:
            raise InvalidSpec("n_samples, n_features and n_clusters must be positive")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be >= 0, got {self.seed}")
        if 4 * self.n_clusters > self.n_samples:
            raise InvalidSpec(f"need n_samples >= 4 * n_clusters, got {self.n_samples} and {self.n_clusters}")
        if self.ics < 0 or self.ocs < 0:
            raise InvalidSpec("ics and ocs must be non-negative")
        if self.warp not in ("none", "sin"):
            raise InvalidSpec(f"unknown warp {self.warp!r}")


def _random_rotation(d: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    # fix signs so the factorization (and hence the rotation) is unique
    return q * np.sign(np.diag(r))


def _cluster_frame(k: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """k unit-norm center directions in R^d, pairwise equidistant when k-1 <= d.

    Uses the vertices of a regular simplex (circumradius 1) embedded in the
    first k-1 coordinates, then a random rotation; scaled by the caller,
    this puts two clusters at +/-ocs and keeps all pairwise center
    distances equal for larger k. With more clusters than a simplex fits,
    falls back to random unit directions.
    """
    if k == 1:
        return np.zeros((1, d))
    if k - 1 <= d:
        corners = np.eye(k) - 1.0 / k
        u, s, _ = np.linalg.svd(corners, full_matrices=False)
        coords = (u[:, :k - 1] * s[:k - 1]) / math.sqrt((k - 1.0) / k)
        frame = np.zeros((k, d))
        frame[:, :k - 1] = coords
    else:
        frame = rng.standard_normal((k, d))
        frame /= np.linalg.norm(frame, axis=1, keepdims=True)
    return frame @ _random_rotation(d, rng)


def make_classification_with_clusters(spec: SyntheticSpec) -> tuple[LabeledDataset, np.ndarray]:
    """Generate the benchmark and also return ground-truth cluster ids."""
    rng = np.random.default_rng(spec.seed)
    n, d, k = spec.n_samples, spec.n_features, spec.n_clusters

    centers = spec.ocs * _cluster_frame(k, d, rng)
    directions = rng.standard_normal((k, d))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)

    counts = np.full(k, n // k, dtype=np.int64)
    counts[: n % k] += 1

    feats = np.empty((n, d))
    labels = np.empty(n, dtype=np.int64)
    cluster_ids = np.empty(n, dtype=np.int64)
    row = 0
    for c in range(k):
        n_pos = (counts[c] + 1) // 2
        n_neg = counts[c] - n_pos
        offset = 0.5 * spec.ics * directions[c]
        for label, m, sign in ((1, n_pos, 1.0), (0, n_neg, -1.0)):
            block = rng.standard_normal((m, d)) + centers[c] + sign * offset
            feats[row:row + m] = block
            labels[row:row + m] = label
            cluster_ids[row:row + m] = c
            row += m

    if spec.warp == "sin":
        feats = feats + 0.5 * np.sin(2.0 * np.roll(feats, 1, axis=1))

    perm = rng.permutation(n)
    ds = LabeledDataset(feats[perm], labels[perm], tuple(f"f{j}" for j in range(d)), 2)
    return ds, cluster_ids[perm]


def make_classification(spec: SyntheticSpec) -> LabeledDataset:
    """Clustered binary classification benchmark, deterministic under seed."""
    ds, _ = make_classification_with_clusters(spec)
    return ds
