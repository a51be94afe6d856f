"""Local classifiers and their diagnostics.

Covers the four from-scratch kinds (logistic regression, ridge, perceptron,
k-nearest neighbours), the per-cluster training helper, the log-loss sandwich
bound, the cluster-then-classify (km) baseline and serialization.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cackit import cluster_core
from cackit.classifiers import (
    ClassifierSpec,
    TrainedClassifier,
    _sigmoid,
    _softplus,
    _train_logreg_lockstep,
    classifier_from_dict,
    classifier_to_dict,
    constant_classifier,
    logloss_bounds,
    predict_proba_batch,
    train_classifier,
    train_logreg,
    train_per_cluster,
    train_perceptron,
    train_ridge,
)
from cackit.cluster_core import kmeanspp_init, lloyd, silhouette
from cackit.config import validate_config
from cackit.dataset import LabeledDataset, SyntheticSpec, make_classification
from cackit.errors import (
    DimensionMismatch,
    EmptyCluster,
    InvalidSpec,
    NotBinary,
    OneClassOnly,
)
from cackit.experiments import prepare_data, run_baseline
from cackit.metrics import auc, evaluate_binary

from conftest import central_difference, rel_err
from oracles import logreg_loss_grad, reference_predict_proba, reference_train_logreg


def _augmented(x):
    return np.hstack([x, np.ones((x.shape[0], 1))])


def binary_blobs(rng, n=80, d=3, gap=4.0):
    half = n // 2
    feats = np.vstack([rng.normal(size=(half, d)),
                       rng.normal(size=(n - half, d)) + gap])
    labels = np.array([0] * half + [1] * (n - half))
    return feats, labels


class TestLogreg:
    def test_zero_weights_give_n_log_two(self, rng):
        feats, labels = binary_blobs(rng, n=30)
        loss, _ = logreg_loss_grad(_augmented(feats), labels.astype(float),
                                   np.zeros(feats.shape[1] + 1), 0.0)
        assert loss == pytest.approx(30 * math.log(2.0), rel=1e-12)

    def test_separable_pair_is_driven_to_zero_loss(self):
        x = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        clf = train_logreg(x, y, ClassifierSpec(kind="logreg", l2_penalty=0.0,
                                                epochs=2000))
        probs = predict_proba_batch(clf, x)
        assert ((probs >= 0.5).astype(int) == y).all()
        assert clf.training_log < 0.01

    def test_gradient_matches_central_differences(self, rng):
        feats, labels = binary_blobs(rng, n=25, d=4)
        xa = _augmented(feats)
        yv = labels.astype(float)
        for _ in range(20):
            beta = rng.normal(size=5)
            l2 = float(rng.uniform(0, 0.5))
            _, grad = logreg_loss_grad(xa, yv, beta, l2)
            fd = central_difference(lambda b: logreg_loss_grad(xa, yv, b, l2)[0],
                                    beta, h=1e-6)
            assert rel_err(grad, fd) < 1e-6

    @staticmethod
    def _two_exp_sigmoid_softplus(t):
        """The masked sigmoid and the separate softplus that one exp(-|t|) replaced."""
        sig = np.empty_like(t)
        pos = t >= 0
        sig[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
        e = np.exp(t[~pos])
        sig[~pos] = e / (1.0 + e)
        return sig, np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))

    def test_shared_exp_matches_the_two_exp_form(self, rng):
        t = np.array([0.0, -0.0, 1e-300, -1e-300, 36.8, -36.8, 709.9, -709.9,
                      710.5, -710.5, 745.2, -745.2, 1e4, -1e4])
        e = np.exp(-np.abs(t))
        sig, softplus = self._two_exp_sigmoid_softplus(t)
        np.testing.assert_array_equal(_sigmoid(t, e), sig)
        np.testing.assert_array_equal(_softplus(t, e), softplus)
        for scale in (1e-3, 1.0, 1e3):
            for _ in range(30):
                n, d = int(rng.integers(1, 60)), int(rng.integers(1, 8))
                xa = _augmented(rng.normal(size=(n, d)) * scale)
                yv = rng.integers(0, 2, size=n).astype(float)
                beta = rng.normal(size=d + 1)
                l2 = float(rng.uniform(0, 0.5))
                t = xa @ beta
                sig, softplus = self._two_exp_sigmoid_softplus(t)
                want_grad = xa.T @ (sig - yv)
                want_grad[:-1] += l2 * beta[:-1]
                want_loss = (float((softplus - yv * t).sum())
                             + 0.5 * l2 * float(beta[:-1] @ beta[:-1]))
                loss, grad = logreg_loss_grad(xa, yv, beta, l2)
                assert loss == want_loss
                np.testing.assert_array_equal(grad, want_grad)

    def test_more_epochs_never_hurt_training_loss(self, rng):
        feats, labels = binary_blobs(rng, n=60, d=2, gap=1.0)
        losses = [train_logreg(feats, labels,
                               ClassifierSpec(kind="logreg", epochs=e)).training_log
                  for e in (2, 20, 200)]
        assert losses[0] >= losses[1] >= losses[2]

    def test_final_loss_beats_initialization(self, rng):
        feats, labels = binary_blobs(rng, n=40, gap=0.5)
        clf = train_logreg(feats, labels, ClassifierSpec(kind="logreg"))
        assert clf.training_log <= 40 * math.log(2.0) + 1e-12

    def test_rejects_non_binary(self):
        with pytest.raises(NotBinary):
            train_logreg(np.zeros((3, 1)), np.array([0, 1, 2]),
                         ClassifierSpec(kind="logreg"))


class TestPredictProba:
    def test_zero_weights_give_half(self):
        clf = train_logreg(np.array([[0.0], [0.0]]), np.array([0, 1]),
                           ClassifierSpec(kind="logreg", epochs=1,
                                          learning_rate=1e-12))
        assert predict_proba_batch(clf, np.array([[7.0]]))[0] == pytest.approx(0.5, abs=1e-6)

    def test_saturates_toward_one(self):
        clf = TrainedClassifier(kind="logreg", weights=np.array([100.0, 0.0]))
        assert predict_proba_batch(clf, np.array([[5.0]]))[0] > 1.0 - 1e-12

    def test_hand_computed_sigmoid(self):
        # score 1*2 + (-1)*1 = 1 on the bias-augmented input [2, 1]
        clf = TrainedClassifier(kind="logreg", weights=np.array([1.0, -1.0]))
        want = 1.0 / (1.0 + math.exp(-1.0))
        assert predict_proba_batch(clf, np.array([[2.0]]))[0] == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(0.7311, abs=5e-5)

    def test_knn_k1_reproduces_training_labels(self, rng):
        feats, labels = binary_blobs(rng, n=30, d=2)
        clf = train_classifier(feats, labels, ClassifierSpec(kind="knn", k_neighbors=1))
        probs = predict_proba_batch(clf, feats)
        np.testing.assert_array_equal(probs, labels.astype(float))

    def test_knn_vote_fraction(self):
        feats = np.array([[0.0], [0.1], [0.2], [9.0]])
        labels = np.array([1, 1, 0, 0])
        clf = train_classifier(feats, labels, ClassifierSpec(kind="knn", k_neighbors=3))
        assert predict_proba_batch(clf, np.array([[0.05]]))[0] == pytest.approx(2.0 / 3.0)

    def test_knn_blocks_match_one_block(self, monkeypatch):
        # two training rows sit at the origin with opposite labels and four
        # more at distance 1, so a query at the origin ties both at the top
        # and at the k-th neighbour; those queries straddle a block boundary
        rng = np.random.default_rng(11)
        feats = np.vstack([[[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [-1.0, 0.0],
                            [0.0, 1.0], [0.0, -1.0]],
                           rng.integers(-3, 4, size=(14, 2))]).astype(float)
        labels = np.array([0, 1, 1, 0, 0, 1] + list(rng.integers(0, 2, size=14)))
        query = rng.integers(-3, 4, size=(10, 2)).astype(float)
        query[2] = query[3] = query[4] = 0.0
        clf = train_classifier(feats, labels, ClassifierSpec(kind="knn", k_neighbors=3))
        monkeypatch.setattr(cluster_core, "ROUTE_BLOCK_ELEMENTS", 3 * feats.size)
        got = predict_proba_batch(clf, query)  # blocks of 3 rows: 0-2, 3-5, 6-8, 9

        d2 = ((query[:, None, :] - feats[None, :, :]) ** 2).sum(axis=2)
        want = np.array([labels[np.argsort(row, kind="stable")[:3]].mean() for row in d2])
        np.testing.assert_array_equal(got, want)
        assert got[2] == got[3] == got[4] == pytest.approx(2.0 / 3.0)

    def test_dimension_mismatch(self, rng):
        feats, labels = binary_blobs(rng, n=20, d=3)
        clf = train_logreg(feats, labels, ClassifierSpec(kind="logreg", epochs=2))
        with pytest.raises(DimensionMismatch):
            predict_proba_batch(clf, np.zeros((1, 5)))


class TestOneScoringPath:
    @pytest.mark.parametrize("d", [1, 10, 65])
    @pytest.mark.parametrize("kind", ["logreg", "ridge", "perceptron", "knn", "constant"])
    def test_scores_equal_the_per_kind_formula(self, kind, d):
        # the one-cluster routed pass gives each kind's own formula, bit for bit
        rng = np.random.default_rng(d)
        feats, labels = binary_blobs(rng, n=60, d=d, gap=1.0)
        clf = (constant_classifier(1) if kind == "constant" else
               train_classifier(feats, labels, ClassifierSpec(kind=kind, epochs=20, k_neighbors=3)))
        for n in (0, 1, 7, 300):
            x = 2.0 * rng.normal(size=(n, d))
            got, want = predict_proba_batch(clf, x), reference_predict_proba(clf, x)
            assert got.dtype == want.dtype and got.shape == (n,)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["logreg", "ridge", "perceptron", "knn", "constant"])
    def test_one_dimensional_row_rejected(self, kind, rng):
        feats, labels = binary_blobs(rng, n=20, d=3)
        clf = (constant_classifier(0) if kind == "constant" else
               train_classifier(feats, labels, ClassifierSpec(kind=kind, epochs=5)))
        with pytest.raises(DimensionMismatch, match=r"^expected a 2-D batch of rows, got shape \(3,\)$"):
            predict_proba_batch(clf, np.zeros(3))

    @pytest.mark.parametrize("clf, error, message", [
        (TrainedClassifier("svm", weights=np.zeros(4)), InvalidSpec, "classifier has unknown kind 'svm'"),
        (TrainedClassifier("constant", constant_proba=1.5), InvalidSpec, "constant_proba 1.5 is not in"),
        (TrainedClassifier("constant", constant_proba=math.nan), InvalidSpec, "constant_proba nan is not in"),
        (TrainedClassifier("constant"), InvalidSpec, "constant_proba None is not in"),
        (TrainedClassifier("ridge"), DimensionMismatch, "ridge classifier has no weight vector"),
        (TrainedClassifier("logreg", weights=np.zeros((1, 4))), DimensionMismatch,
         "logreg classifier has no weight vector"),
        (TrainedClassifier("perceptron", weights=np.zeros(3)), DimensionMismatch,
         "classifier expected 2 features, got 3"),
        (TrainedClassifier("knn", train_features=np.zeros((4, 3)), train_labels=np.zeros(3, dtype=np.int64)),
         DimensionMismatch, "knn classifier needs training rows with one label each"),
        (TrainedClassifier("knn", train_features=np.zeros((0, 3)), train_labels=np.zeros(0, dtype=np.int64)),
         DimensionMismatch, "knn classifier needs training rows"),
        (TrainedClassifier("knn", train_features=np.zeros((4, 3)), train_labels=np.zeros(4, dtype=np.int64),
                           k_neighbors=0), DimensionMismatch, "knn classifier needs .* got 0$"),
        (TrainedClassifier("knn", train_features=np.zeros((4, 2)), train_labels=np.zeros(4, dtype=np.int64)),
         DimensionMismatch, "classifier expected 2 features, got 3"),
        (TrainedClassifier("logreg", weights=np.array([0.0, np.nan, 0.0, 0.0])), InvalidSpec,
         "logreg classifier holds a value that is not finite$"),
        (TrainedClassifier("ridge", weights=np.array([0.0, 0.0, 0.0, -np.inf])), InvalidSpec,
         "ridge classifier holds a value that is not finite$"),
        (TrainedClassifier("knn", train_features=np.array([[0.0, 0.0, np.inf]] * 4),
                           train_labels=np.array([0, 1, 0, 1])), InvalidSpec,
         "knn classifier holds a value that is not finite$"),
        (TrainedClassifier("knn", train_features=np.zeros((4, 3)), train_labels=np.array([0, 1, 2, 1])),
         InvalidSpec, r"knn labels \[0, 1, 2\] are not all 0 or 1$"),
    ], ids=["unknown-kind", "proba-above-one", "proba-nan", "proba-none", "no-weights", "weight-matrix",
            "narrow-weights", "knn-labels", "knn-no-rows", "knn-k-zero", "knn-narrow", "nan-weight",
            "inf-weight", "knn-inf-row", "knn-label-two"])
    def test_malformed_classifier_refused(self, clf, error, message):
        with pytest.raises(error, match=f"^cluster 0's {message}"):
            predict_proba_batch(clf, np.zeros((2, 3)))


class TestLoglossBounds:
    def test_collapse_at_zero_weights(self, rng):
        feats, labels = binary_blobs(rng, n=20)
        lower, upper, actual = logloss_bounds(feats, labels, np.zeros(feats.shape[1]))
        want = 20 * math.log(2.0)
        assert lower == pytest.approx(want, rel=1e-12)
        assert upper == pytest.approx(want, rel=1e-12)
        assert actual == pytest.approx(want, rel=1e-12)

    def test_sandwich_on_random_trials(self, rng):
        for _ in range(200):
            n = int(rng.integers(4, 40))
            d = int(rng.integers(1, 6))
            feats = rng.normal(size=(n, d)) * rng.uniform(0.1, 3.0)
            labels = rng.integers(0, 2, size=n)
            labels[:2] = [0, 1]
            beta = rng.normal(size=d) * rng.uniform(0.1, 3.0)
            lower, upper, actual = logloss_bounds(feats, labels, beta)
            assert lower - 1e-9 <= actual <= upper + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_sandwich_property(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(4, 30))
        d = int(r.integers(1, 5))
        feats = r.normal(size=(n, d))
        labels = r.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        beta = r.normal(size=d) * 2.0
        lower, upper, actual = logloss_bounds(feats, labels, beta)
        assert lower - 1e-9 <= actual <= upper + 1e-9

    def test_gap_formula_on_fitted_weights(self):
        ds = make_classification(SyntheticSpec(n_samples=200, n_features=4,
                                               n_clusters=2, ics=2.0, ocs=1.0,
                                               seed=3))
        clf = train_logreg(ds.features, ds.labels, ClassifierSpec(kind="logreg"))
        xa = _augmented(ds.features)
        lower, upper, actual = logloss_bounds(xa, ds.labels, clf.weights)
        assert lower - 1e-9 <= actual <= upper + 1e-9
        c = float(np.abs(xa @ clf.weights).max())
        n = ds.n_samples
        want_gap = n * (math.log(1.0 + math.exp(c)) - c / 2.0 - math.log(2.0))
        assert want_gap >= 0.0
        assert upper - lower == pytest.approx(want_gap, rel=1e-9)

    def test_one_class_rejected(self):
        with pytest.raises(OneClassOnly):
            logloss_bounds(np.zeros((3, 2)), np.ones(3, dtype=int), np.zeros(2))


class TestRidge:
    def test_normal_equations_hold(self, rng):
        feats, labels = binary_blobs(rng, n=50, d=3, gap=1.0)
        spec = ClassifierSpec(kind="ridge", ridge_lambda=0.7)
        clf = train_ridge(feats, labels, spec)
        xa = _augmented(feats)
        t = 2.0 * labels - 1.0
        grad = xa.T @ (xa @ clf.weights - t)
        grad[:-1] += spec.ridge_lambda * clf.weights[:-1]
        assert np.abs(grad).max() < 1e-8

    def test_separable_accuracy(self, rng):
        feats, labels = binary_blobs(rng, n=60, d=2, gap=6.0)
        clf = train_ridge(feats, labels, ClassifierSpec(kind="ridge"))
        probs = predict_proba_batch(clf, feats)
        assert (((probs >= 0.5).astype(int)) == labels).all()


class TestPerceptron:
    def test_converges_on_separable_data(self, rng):
        feats, labels = binary_blobs(rng, n=40, d=2, gap=5.0)
        clf = train_perceptron(feats, labels, ClassifierSpec(kind="perceptron",
                                                             epochs=200))
        assert clf.training_log == 0.0
        probs = predict_proba_batch(clf, feats)
        assert (((probs >= 0.5).astype(int)) == labels).all()


class TestLockstepLogreg:
    """All clusters' logreg descents run in one loop, and each must give the
    bits of the one-cluster reference loop in `tests/oracles.py`."""

    @pytest.mark.parametrize("d", [1, 3, 10, 64])
    @pytest.mark.parametrize("learning_rate", [0.1, 50.0, 1e30])
    def test_matches_the_one_cluster_reference(self, d, learning_rate):
        # clusters of 1 to 40 rows fall on both sides of every SIMD width; at
        # learning_rate 50 steps backtrack, so with few epochs the clusters
        # stop at different passes; at 1e30 no step is ever accepted
        rng = np.random.default_rng(d)
        sizes = rng.permutation(np.arange(1, 41))
        clusters = [(rng.normal(size=(m, d)) * rng.uniform(0.1, 5.0), rng.integers(0, 2, size=m))
                    for m in sizes]
        spec = ClassifierSpec(kind="logreg", learning_rate=learning_rate, epochs=6)
        got, stalled = _train_logreg_lockstep(
            _augmented(np.vstack([x for x, _ in clusters])),
            np.concatenate([y for _, y in clusters]).astype(np.float64),
            np.concatenate([[0], np.cumsum(sizes)]).tolist(), spec)
        for (x, y), clf in zip(clusters, got):
            want = reference_train_logreg(x, y, spec)
            np.testing.assert_array_equal(clf.weights, want.weights)
            assert clf.training_log == want.training_log
        if learning_rate == 1e30:
            assert not any(clf.weights.any() for clf in got)
            assert stalled == list(range(len(sizes)))
        elif learning_rate == 0.1:
            assert stalled == []

    def test_train_per_cluster_matches_the_reference_cluster_by_cluster(self):
        ds = make_classification(SyntheticSpec(n_samples=600, n_features=5, n_clusters=3,
                                               ics=1.0, ocs=2.0, seed=3))

        class S:  # interleaved clusters of unequal sizes
            assignments = np.random.default_rng(3).integers(0, 7, size=600)
            sizes = np.bincount(assignments, minlength=7)

        spec = ClassifierSpec(kind="logreg", learning_rate=5.0, epochs=40)
        local = train_per_cluster(S(), ds, spec)
        for j, clf in enumerate(local):
            rows = S.assignments == j
            want = reference_train_logreg(ds.features[rows], ds.labels[rows], spec)
            np.testing.assert_array_equal(clf.weights, want.weights)
            assert clf.training_log == want.training_log


class TestTrainPerCluster:
    class OneClusterState:
        def __init__(self, n):
            self.assignments = np.zeros(n, dtype=int)
            self.sizes = np.array([n])

    def test_k_one_equals_full_data_training(self, rng):
        feats, labels = binary_blobs(rng, n=40)
        ds = LabeledDataset.from_arrays(feats, labels)
        spec = ClassifierSpec(kind="logreg", epochs=50)
        local = train_per_cluster(self.OneClusterState(40), ds, spec)
        full = train_logreg(feats, labels, spec)
        assert len(local) == 1
        np.testing.assert_array_equal(local[0].weights, full.weights)

    def test_single_class_cluster_gets_clamped_constant(self):
        feats = np.array([[0.0], [0.1], [5.0], [5.1]])
        ds = LabeledDataset.from_arrays(feats, np.array([1, 1, 0, 1]))

        class S:
            assignments = np.array([0, 0, 1, 1])
            sizes = np.array([2, 2])

        local = train_per_cluster(S(), ds, ClassifierSpec(kind="logreg"))
        assert local[0].kind == "constant"
        assert local[0].constant_proba == pytest.approx(1.0 - 1e-7)
        assert local[1].kind == "logreg"

    def test_two_pure_separable_clusters(self, rng):
        a = np.vstack([rng.normal(size=(10, 2)) * 0.1,
                       rng.normal(size=(10, 2)) * 0.1 + [3, 0]])
        b = a + [0, 4]
        feats = np.vstack([a, b])
        labels = np.array(([0] * 10 + [1] * 10) * 2)
        ds = LabeledDataset.from_arrays(feats, labels)

        class S:
            assignments = np.array([0] * 20 + [1] * 20)
            sizes = np.array([20, 20])

        local = train_per_cluster(S(), ds, ClassifierSpec(kind="logreg",
                                                          l2_penalty=0.0,
                                                          epochs=2000))
        for j, rows in ((0, slice(0, 20)), (1, slice(20, 40))):
            probs = predict_proba_batch(local[j], feats[rows])
            assert (((probs >= 0.5).astype(int)) == labels[rows]).all()

    def test_stalled_logreg_clusters_are_named_in_one_warning(self, rng):
        labels = np.array([0, 1] * 5 + [1] * 5 + [0, 1, 1] * 5)
        ds = LabeledDataset.from_arrays(rng.normal(size=(30, 3)), labels)

        class S:  # cluster 1 holds one class only, so it is constant and never stalls
            assignments = np.array([0] * 10 + [1] * 5 + [2] * 15)
            sizes = np.array([10, 5, 15])

        stalled = ClassifierSpec(kind="logreg", learning_rate=1e30, epochs=5)
        with pytest.warns(RuntimeWarning, match=r"logreg clusters \[0, 2\] accepted no step") as seen:
            local = train_per_cluster(S(), ds, stalled)
        assert len(seen) == 1
        assert [clf.kind for clf in local] == ["logreg", "constant", "logreg"]
        for j in (0, 2):
            assert not local[j].weights.any()
            assert local[j].training_log == pytest.approx(S.sizes[j] * math.log(2.0), rel=1e-12)
        # a cluster that steps at all is not named
        train_per_cluster(S(), ds, ClassifierSpec(kind="logreg", epochs=5))

    def test_empty_cluster_rejected(self, rng):
        feats, labels = binary_blobs(rng, n=10)
        ds = LabeledDataset.from_arrays(feats, labels)

        class S:
            assignments = np.zeros(10, dtype=int)
            sizes = np.array([10, 0])

        with pytest.raises(EmptyCluster):
            train_per_cluster(S(), ds, ClassifierSpec(kind="logreg"))


class TestClusterThenPredict:
    """The km baseline: k-means on the training features, one local
    classifier per cluster, nearest-centroid routing."""

    @staticmethod
    def config(k, kind="logreg", epochs=100, **synthetic):
        synth = dict(n_samples=400, n_features=4, n_clusters=2, ics=1.0, ocs=2.0)
        synth.update(synthetic)
        return validate_config({
            "task": "baseline",
            "dataset": {"synthetic": synth},
            "split": {"train_frac": 0.6, "val_frac": 0.15, "test_frac": 0.25},
            "model": {"k": k, "baseline": "km",
                      "classifier": {"kind": kind, "epochs": epochs}},
        })

    def test_k_one_equals_bare_classifier(self):
        cfg = self.config(k=1)
        report, model_json = run_baseline(cfg, 1)
        train, _, test = prepare_data(cfg, 1)
        bare = train_logreg(train.features, train.labels, ClassifierSpec(kind="logreg", epochs=100))
        scores = predict_proba_batch(bare, test.features)
        assert report["metrics"]["auc"] == pytest.approx(auc(scores, test.labels), abs=1e-12)
        assert model_json is None

    def test_same_seed_is_deterministic(self):
        cfg = self.config(k=3, epochs=50)
        assert run_baseline(cfg, 7) == run_baseline(cfg, 7)

    def test_clustering_first_helps_on_multi_cluster_data(self):
        cfg = self.config(k=3, epochs=200, n_clusters=3, n_samples=600)
        bare_cfg = validate_config(dict(cfg, model=dict(cfg["model"], baseline="bare")))
        km_aucs = [run_baseline(cfg, seed)[0]["metrics"]["auc"] for seed in range(5)]
        bare_aucs = [run_baseline(bare_cfg, seed)[0]["metrics"]["auc"] for seed in range(5)]
        assert np.mean(km_aucs) >= np.mean(bare_aucs)

    @pytest.mark.parametrize("kind,k", [("logreg", 1), ("logreg", 3), ("knn", 2)])
    def test_metrics_equal_the_inline_pipeline(self, kind, k):
        # the baseline as written out before it became a zero-round CAC fit
        cfg = self.config(k=k, kind=kind)
        seed = 3
        report, _ = run_baseline(cfg, seed)
        train, _, test = prepare_data(cfg, seed)
        spec = ClassifierSpec(**cfg["model"]["classifier"])
        km = lloyd(train.features, kmeanspp_init(train.features, k, seed))
        local = []
        for j in range(k):
            rows = km.assignments == j
            yj = train.labels[rows]
            local.append(constant_classifier(int(yj[0])) if (yj == yj[0]).all()
                         else train_classifier(train.features[rows], yj, spec))
        d2 = ((test.features[:, None, :] - km.centroids[None, :, :]) ** 2).sum(axis=2)
        routes = d2.argmin(axis=1)
        scores = np.empty(test.n_samples)
        for j in np.unique(routes):
            scores[routes == j] = predict_proba_batch(local[j], test.features[routes == j])
        sil = silhouette(train.features, km.assignments) if k >= 2 else None
        assert report["metrics"] == evaluate_binary(scores, test.labels, silhouette=sil).to_dict()


class TestSerialization:
    def test_round_trip_every_kind(self, rng):
        feats, labels = binary_blobs(rng, n=30, d=2)
        probe = rng.normal(size=(5, 2))
        kinds = [ClassifierSpec(kind="logreg", epochs=20),
                 ClassifierSpec(kind="ridge"),
                 ClassifierSpec(kind="perceptron", epochs=50),
                 ClassifierSpec(kind="knn", k_neighbors=3)]
        for spec in kinds:
            clf = train_classifier(feats, labels, spec)
            back = classifier_from_dict(classifier_to_dict(clf))
            np.testing.assert_array_equal(predict_proba_batch(clf, probe),
                                          predict_proba_batch(back, probe))
        const = constant_classifier(1)
        back = classifier_from_dict(classifier_to_dict(const))
        assert back.constant_proba == const.constant_proba
