"""Tests for CSV loading, standardization, splitting and the synthetic
clustered-benchmark generator."""

import itertools

import numpy as np
import pytest

from cackit.cluster_core import kmeanspp_init, lloyd
from cackit.dataset import (
    LabeledDataset,
    SplitSpec,
    SyntheticSpec,
    apply_standardization,
    load_csv,
    make_classification,
    make_classification_with_clusters,
    save_csv,
    split,
    standardize,
)
from cackit.errors import (
    EmptySplit,
    InvalidSpec,
    MissingColumn,
    NonFiniteValue,
    TooFewRows,
)


class TestLoadCsv:
    def test_labels_encoded_by_first_appearance(self, tmp_path):
        p = tmp_path / "pets.csv"
        p.write_text("a,b,y\n1.0,2.0,cat\n3.0,4.0,dog\n5.0,6.0,cat\n")
        ds = load_csv(p, "y")
        assert ds.n_samples == 3
        assert ds.n_features == 2
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.feature_names == ("a", "b")

    def test_nan_feature_cell_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,y\nNaN,0\n1.0,1\n")
        with pytest.raises(NonFiniteValue) as exc:
            load_csv(p, "y")
        assert exc.value.row == 0

    def test_label_only_file_rejected(self, tmp_path):
        p = tmp_path / "thin.csv"
        p.write_text("y\n0\n1\n")
        with pytest.raises(Exception):
            load_csv(p, "y")

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "no_label.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(MissingColumn):
            load_csv(p, "weird")

    def test_round_trip_preserves_values(self, tmp_path):
        rng = np.random.default_rng(7)
        ds = LabeledDataset.from_arrays(rng.normal(size=(20, 3)),
                                        rng.integers(0, 2, size=20))
        p = tmp_path / "round.csv"
        save_csv(ds, p)
        back = load_csv(p, "y")
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)


class TestStandardize:
    def test_two_point_column(self):
        ds = LabeledDataset.from_arrays(np.array([[1.0], [3.0]]), np.array([0, 1]))
        out, mean, std = standardize(ds)
        np.testing.assert_allclose(out.features[:, 0], [-1.0, 1.0])
        assert mean[0] == 2.0
        assert std[0] == 1.0  # population std of {1, 3}

    def test_constant_column_centered_with_unit_std(self):
        feats = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        ds = LabeledDataset.from_arrays(feats, np.array([0, 1, 0]))
        out, _, std = standardize(ds)
        np.testing.assert_array_equal(out.features[:, 0], [0.0, 0.0, 0.0])
        assert std[0] == 1.0

    def test_output_moments(self):
        rng = np.random.default_rng(3)
        ds = LabeledDataset.from_arrays(rng.normal(2.0, 5.0, size=(100, 4)),
                                        rng.integers(0, 2, size=100))
        out, _, _ = standardize(ds)
        assert np.abs(out.features.mean(axis=0)).max() < 1e-10
        assert np.abs(out.features.std(axis=0) - 1.0).max() < 1e-10

    def test_round_trip_inverse(self):
        rng = np.random.default_rng(4)
        ds = LabeledDataset.from_arrays(rng.normal(1.0, 3.0, size=(50, 3)),
                                        rng.integers(0, 2, size=50))
        out, mean, std = standardize(ds)
        restored = out.features * std + mean
        np.testing.assert_allclose(restored, ds.features, rtol=1e-9)

    def test_single_row_rejected(self):
        ds = LabeledDataset.from_arrays(np.array([[1.0, 2.0]]), np.array([0]), n_classes=2)
        with pytest.raises(TooFewRows):
            standardize(ds)

    def test_apply_standardization_matches_train_transform(self):
        rng = np.random.default_rng(5)
        ds = LabeledDataset.from_arrays(rng.normal(size=(30, 2)), rng.integers(0, 2, size=30))
        out, mean, std = standardize(ds)
        again = apply_standardization(ds, mean, std)
        np.testing.assert_array_equal(again.features, out.features)


class TestSplit:
    @pytest.fixture
    def hundred(self):
        rng = np.random.default_rng(11)
        labels = np.r_[np.zeros(50, dtype=int), np.ones(50, dtype=int)]
        return LabeledDataset.from_arrays(rng.normal(size=(100, 3)), labels)

    def test_sizes_follow_floor_rule(self, hundred):
        tr, va, te = split(hundred, SplitSpec(0.57, 0.18, 0.25, seed=9))
        assert (tr.n_samples, va.n_samples, te.n_samples) == (57, 18, 25)

    def test_deterministic_under_seed(self, hundred):
        a = split(hundred, SplitSpec(seed=123))
        b = split(hundred, SplitSpec(seed=123))
        for part_a, part_b in zip(a, b):
            np.testing.assert_array_equal(part_a.features, part_b.features)

    def test_parts_partition_the_rows(self, hundred):
        tr, va, te = split(hundred, SplitSpec(seed=2))
        # every original row appears exactly once across the three parts
        rows = np.vstack([tr.features, va.features, te.features])
        key = np.lexsort(rows.T)
        orig_key = np.lexsort(hundred.features.T)
        np.testing.assert_array_equal(rows[key], hundred.features[orig_key])

    def test_stratified_class_counts(self):
        rng = np.random.default_rng(13)
        labels = np.r_[np.zeros(80, dtype=int), np.ones(20, dtype=int)]
        ds = LabeledDataset.from_arrays(rng.normal(size=(100, 2)), labels)
        _, _, te = split(ds, SplitSpec(0.57, 0.18, 0.25, seed=5))
        n0 = int((te.labels == 0).sum())
        n1 = int((te.labels == 1).sum())
        assert abs(n0 - 20) <= 1
        assert abs(n1 - 5) <= 1

    def test_empty_split_raises(self):
        ds = LabeledDataset.from_arrays(np.random.default_rng(0).normal(size=(4, 2)),
                                        np.array([0, 1, 0, 1]))
        with pytest.raises(EmptySplit):
            split(ds, SplitSpec(0.9, 0.05, 0.05, seed=0))

    def test_bad_fractions_rejected(self):
        with pytest.raises(InvalidSpec):
            SplitSpec(0.5, 0.2, 0.2)
        with pytest.raises(InvalidSpec):
            SplitSpec(1.0, 0.0, 0.0)


class TestSyntheticGenerator:
    def test_zero_ics_class_centroids_coincide(self):
        spec = SyntheticSpec(n_samples=4000, n_features=6, n_clusters=1, ics=0.0, ocs=2.0, seed=0)
        ds = make_classification(spec)
        mu_pos = ds.features[ds.labels == 1].mean(axis=0)
        mu_neg = ds.features[ds.labels == 0].mean(axis=0)
        # sampling error of a Gaussian centroid difference is ~ sqrt(d / n_class)
        cap = 3.0 * np.sqrt(ds.n_features / (ds.n_samples / 2))
        assert np.linalg.norm(mu_pos - mu_neg) < cap

    def test_ics_two_centroid_distance(self):
        spec = SyntheticSpec(n_samples=2000, n_features=2, n_clusters=1, ics=2.0, ocs=2.0, seed=1)
        ds = make_classification(spec)
        mu_pos = ds.features[ds.labels == 1].mean(axis=0)
        mu_neg = ds.features[ds.labels == 0].mean(axis=0)
        assert 1.8 <= np.linalg.norm(mu_pos - mu_neg) <= 2.2

    def test_lloyd_recovers_separated_clusters(self):
        spec = SyntheticSpec(n_samples=1200, n_features=8, n_clusters=3, ics=0.5, ocs=2.0, seed=2)
        ds, true_ids = make_classification_with_clusters(spec)
        km = lloyd(ds.features, kmeanspp_init(ds.features, 3, seed=0))
        best = max(
            (km.assignments == np.array(perm)[true_ids]).mean()
            for perm in itertools.permutations(range(3))
        )
        assert best >= 0.9

    def test_bitwise_reproducible(self):
        spec = SyntheticSpec(n_samples=500, n_features=5, n_clusters=2, ics=1.0, ocs=2.0, seed=42)
        a = make_classification(spec)
        b = make_classification(spec)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_classes_balanced_within_clusters(self):
        spec = SyntheticSpec(n_samples=1001, n_features=4, n_clusters=3, ics=1.0, ocs=2.0, seed=3)
        ds, ids = make_classification_with_clusters(spec)
        for c in range(3):
            y = ds.labels[ids == c]
            assert abs(int((y == 1).sum()) - int((y == 0).sum())) <= 1

    def test_ics_grid_weakly_increases_class_gap(self):
        grid = [0.0, 0.2, 0.5, 1.0, 1.5, 2.0]
        means = []
        for ics in grid:
            gaps = []
            for seed in range(5):
                spec = SyntheticSpec(n_samples=1000, n_features=6, n_clusters=2,
                                     ics=ics, ocs=2.0, seed=seed)
                ds, ids = make_classification_with_clusters(spec)
                for c in range(2):
                    sel = ids == c
                    gap = (ds.features[sel & (ds.labels == 1)].mean(axis=0)
                           - ds.features[sel & (ds.labels == 0)].mean(axis=0))
                    gaps.append(np.linalg.norm(gap))
            means.append(np.mean(gaps))
        assert all(b > a - 0.05 for a, b in zip(means, means[1:]))

    def test_warp_changes_features_not_labels(self):
        base = SyntheticSpec(n_samples=400, n_features=5, n_clusters=2, ics=1.0, ocs=2.0, seed=6)
        warped = SyntheticSpec(n_samples=400, n_features=5, n_clusters=2, ics=1.0, ocs=2.0,
                               seed=6, warp="sin")
        a = make_classification(base)
        b = make_classification(warped)
        assert not np.array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_spec_validation(self):
        with pytest.raises(InvalidSpec):
            SyntheticSpec(n_samples=10, n_features=3, n_clusters=4, ics=1.0, ocs=1.0)
        with pytest.raises(InvalidSpec):
            SyntheticSpec(n_samples=100, n_features=3, n_clusters=2, ics=-1.0, ocs=1.0)
        with pytest.raises(InvalidSpec):
            SyntheticSpec(n_samples=100, n_features=3, n_clusters=2, ics=1.0, ocs=1.0,
                          warp="cube")

    def test_numpy_scalars_accepted(self):
        spec = SyntheticSpec(n_samples=np.int64(100), n_features=np.int32(3),
                             n_clusters=np.int64(2), ics=np.float64(1.0), ocs=2, seed=np.int64(5))
        plain = SyntheticSpec(n_samples=100, n_features=3, n_clusters=2, ics=1.0, ocs=2.0, seed=5)
        ds = make_classification(spec)
        np.testing.assert_array_equal(ds.features, make_classification(plain).features)
        parts = split(ds, SplitSpec(np.float64(0.57), 0.18, 0.25, seed=np.int64(9),
                                    stratified=np.bool_(True)))
        for got, want in zip(parts, split(ds, SplitSpec(0.57, 0.18, 0.25, seed=9))):
            np.testing.assert_array_equal(got.features, want.features)


def test_dataset_arrays_are_read_only():
    ds = LabeledDataset.from_arrays(np.zeros((4, 2)), np.array([0, 1, 0, 1]))
    with pytest.raises(ValueError):
        ds.features[0, 0] = 1.0
