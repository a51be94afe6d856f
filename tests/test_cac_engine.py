"""The separation-augmented clustering engine: costs, incremental move
arithmetic, the descent loop, prediction and serialization.

Every closed-form quantity is checked against the from-scratch oracles in
conftest, which recompute cluster scores directly from member rows.
"""

import hashlib

import numpy as np
import pytest

from cackit.cac_engine import (
    CacModel,
    ClusterState,
    apply_move,
    assign_cluster,
    cac_fit,
    cac_model_from_json,
    cac_model_to_json,
    cac_predict,
    cac_predict_batch,
    can_remove,
    cluster_cost,
    merge_cost_change,
    move_cost_change,
    removal_cost_change,
    total_cost,
)
from cackit.classifiers import ClassifierSpec, constant_classifier, train_per_cluster
from cackit.cluster_core import kmeanspp_init, lloyd
from cackit.dataset import LabeledDataset, SyntheticSpec, make_classification
from cackit.errors import (
    EmptyCluster,
    IllegalMove,
    InfeasibleInit,
    NotBinary,
    PointAlreadyInCluster,
    WouldCreateOneClassCluster,
    WouldEmptyCluster,
)

from conftest import (
    cluster_score_oracle,
    gamma_minus_oracle,
    gamma_plus_oracle,
    random_instance,
    rel_err,
    total_score_oracle,
)


def two_point_state(alpha):
    ds = LabeledDataset.from_arrays(np.array([[0.0, 0.0], [2.0, 0.0]]),
                                    np.array([1, 0]))
    return ds, ClusterState.from_assignments(ds, [0, 0], 1, alpha)


class TestClusterCost:
    def test_two_point_hand_value(self):
        ds, state = two_point_state(alpha=0.25)
        # SSE 2, separation 4: 2 - 0.25 * 2 * 4 = 0
        assert cluster_cost(state, ds, 0) == pytest.approx(0.0, abs=1e-12)

    def test_alpha_zero_is_plain_sse(self, rng):
        feats = rng.normal(size=(40, 5))
        labels = rng.integers(0, 2, size=40)
        labels[:2] = [0, 1]
        ds = LabeledDataset.from_arrays(feats, labels)
        state = ClusterState.from_assignments(ds, np.zeros(40, dtype=int), 1, 0.0)
        sse = ((feats - feats.mean(axis=0)) ** 2).sum()
        assert cluster_cost(state, ds, 0) == pytest.approx(sse, rel=1e-12)

    def test_matches_oracle_on_random_cluster(self, rng):
        feats = rng.normal(size=(50, 4))
        labels = rng.integers(0, 2, size=50)
        labels[:2] = [0, 1]
        ds = LabeledDataset.from_arrays(feats, labels)
        state = ClusterState.from_assignments(ds, np.zeros(50, dtype=int), 1, 1.0)
        want = cluster_score_oracle(feats, labels, 1.0)
        assert rel_err(cluster_cost(state, ds, 0), want) < 1e-10

    def test_single_class_cluster_has_no_separation_term(self):
        ds = LabeledDataset.from_arrays(np.array([[0.0], [2.0], [5.0], [7.0]]),
                                        np.array([1, 1, 0, 1]))
        state = ClusterState.from_assignments(ds, [0, 0, 1, 1], 2, 3.0)
        members = ds.features[:2]
        assert cluster_cost(state, ds, 0) == pytest.approx(
            ((members - members.mean(axis=0)) ** 2).sum())

    def test_empty_cluster_raises(self):
        ds, _ = two_point_state(0.5)
        state = ClusterState.from_assignments(ds, [0, 0], 2, 0.5)
        with pytest.raises(EmptyCluster):
            cluster_cost(state, ds, 1)


class TestTotalCost:
    def test_k_one_equals_single_cluster_cost(self, rng):
        ds, state = two_point_state(0.1)
        assert total_cost(state, ds) == cluster_cost(state, ds, 0)

    def test_alpha_zero_equals_kmeans_sse(self, rng):
        feats = rng.normal(size=(60, 3))
        labels = rng.integers(0, 2, size=60)
        labels[:2] = [0, 1]
        ds = LabeledDataset.from_arrays(feats, labels)
        km = lloyd(feats, kmeanspp_init(feats, 3, seed=1))
        state = ClusterState.from_assignments(ds, km.assignments, 3, 0.0)
        assert rel_err(total_cost(state, ds), km.sse) < 1e-9

    def test_matches_summed_oracle(self, rng):
        ds, assign, k = random_instance(rng, max_n=120)
        state = ClusterState.from_assignments(ds, assign, k, 0.7)
        want = total_score_oracle(ds.features, ds.labels, assign, k, 0.7)
        assert rel_err(total_cost(state, ds), want) < 1e-9


class TestMergeCost:
    def test_merging_the_centroid_at_alpha_zero(self):
        feats = np.array([[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]])
        ds = LabeledDataset.from_arrays(feats, np.array([1, 0, 1]))
        state = ClusterState.from_assignments(ds, [0, 0, 1], 2, 0.0)
        # point 2 sits exactly on cluster 0's centroid
        assert merge_cost_change(state, ds, 0, 2) == pytest.approx(0.0, abs=1e-12)

    def test_three_point_hand_case_on_axis(self):
        # adding (1,0) to {(0,0):1, (2,0):0} at alpha=0 leaves the centroid
        # in place and contributes nothing
        feats = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
        ds = LabeledDataset.from_arrays(feats, np.array([1, 0, 1]))
        state = ClusterState.from_assignments(ds, [0, 0, 1], 2, 0.0)
        got = merge_cost_change(state, ds, 0, 2)
        want = gamma_plus_oracle(feats[:2], ds.labels[:2], feats[2], 1, 0.0)
        assert want == pytest.approx(0.0, abs=1e-12)
        assert got == pytest.approx(want, abs=1e-12)

    def test_three_point_hand_case_off_axis(self):
        # adding (1,1) shifts the centroid to (1, 1/3):
        # 4/9 + 2 * 1/9 = 2/3
        feats = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
        ds = LabeledDataset.from_arrays(feats, np.array([1, 0, 1]))
        state = ClusterState.from_assignments(ds, [0, 0, 1], 2, 0.0)
        got = merge_cost_change(state, ds, 0, 2)
        want = gamma_plus_oracle(feats[:2], ds.labels[:2], feats[2], 1, 0.0)
        assert got == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert got == pytest.approx(want, abs=1e-12)

    def test_random_trials_match_oracle(self, rng):
        for _ in range(100):
            ds, assign, k = random_instance(rng, max_n=30, max_d=6)
            state = ClusterState.from_assignments(ds, assign, k, float(rng.uniform(0, 3)))
            i = int(rng.integers(ds.n_samples))
            p = assign[i]
            q = int(rng.choice([j for j in range(k) if j != p]))
            members = assign == q
            want = gamma_plus_oracle(ds.features[members], ds.labels[members],
                                     ds.features[i], int(ds.labels[i]), state.alpha)
            assert rel_err(merge_cost_change(state, ds, q, i), want) < 1e-8

    def test_merge_into_empty_cluster_is_free(self):
        ds, _ = two_point_state(0.5)
        state = ClusterState.from_assignments(ds, [0, 0], 2, 0.5)
        assert merge_cost_change(state, ds, 1, 0) == 0.0

    def test_rejects_own_cluster(self):
        ds, state = two_point_state(0.5)
        with pytest.raises(PointAlreadyInCluster):
            merge_cost_change(state, ds, 0, 0)


class TestRemovalCost:
    def test_removing_a_point_at_the_centroid_at_alpha_zero(self):
        feats = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        ds = LabeledDataset.from_arrays(feats, np.array([0, 0, 1, 1]))
        state = ClusterState.from_assignments(ds, [0, 0, 0, 0], 1, 0.0)
        assert removal_cost_change(state, ds, 0, 2) == pytest.approx(0.0, abs=1e-12)

    def test_random_trials_match_oracle(self, rng):
        for _ in range(100):
            ds, assign, k = random_instance(rng, max_n=30, max_d=6)
            state = ClusterState.from_assignments(ds, assign, k, float(rng.uniform(0, 3)))
            i = int(rng.integers(ds.n_samples))
            p = int(assign[i])
            members = assign == p
            idx_in_cluster = int(np.flatnonzero(np.flatnonzero(members) == i)[0])
            want = gamma_minus_oracle(ds.features[members], ds.labels[members],
                                      idx_in_cluster, state.alpha)
            assert rel_err(removal_cost_change(state, ds, p, i), want) < 1e-8

    def test_guards(self):
        feats = np.array([[0.0], [1.0], [5.0], [6.0]])
        ds = LabeledDataset.from_arrays(feats, np.array([1, 0, 1, 0]))
        state = ClusterState.from_assignments(ds, [0, 0, 1, 1], 2, 0.5)
        with pytest.raises(WouldCreateOneClassCluster):
            removal_cost_change(state, ds, 0, 0)
        solo = ClusterState.from_assignments(ds, [0, 1, 1, 1], 2, 0.5)
        with pytest.raises(WouldEmptyCluster):
            removal_cost_change(solo, ds, 0, 0)


class TestMoveCost:
    def test_same_cluster_move_is_zero(self, rng):
        ds, assign, k = random_instance(rng, max_n=40)
        state = ClusterState.from_assignments(ds, assign, k, 1.0)
        assert move_cost_change(state, ds, 0, int(assign[0]), int(assign[0])) == 0.0

    def test_equals_total_cost_difference(self, rng):
        for _ in range(50):
            ds, assign, k = random_instance(rng, max_n=40, max_d=5)
            alpha = float(rng.uniform(0, 2))
            state = ClusterState.from_assignments(ds, assign, k, alpha)
            i = int(rng.integers(ds.n_samples))
            p = int(assign[i])
            q = int(rng.choice([j for j in range(k) if j != p]))
            phi = move_cost_change(state, ds, i, p, q)
            before = total_score_oracle(ds.features, ds.labels, assign, k, alpha)
            moved = assign.copy()
            moved[i] = q
            after = total_score_oracle(ds.features, ds.labels, moved, k, alpha)
            assert rel_err(phi, after - before) < 1e-8


class TestApplyMove:
    def test_move_and_move_back_is_identity(self, rng):
        ds, assign, k = random_instance(rng, max_n=60, max_d=4)
        state = ClusterState.from_assignments(ds, assign, k, 0.8)
        i = 0
        p = int(assign[0])
        q = (p + 1) % k
        apply_move(state, ds, i, p, q)
        apply_move(state, ds, i, q, p)
        fresh = ClusterState.from_assignments(ds, assign, k, 0.8)
        assert rel_err(state.centroids, fresh.centroids) < 1e-9
        assert rel_err(state.pos_centroids, fresh.pos_centroids) < 1e-9
        assert rel_err(state.neg_centroids, fresh.neg_centroids) < 1e-9
        np.testing.assert_array_equal(state.sizes, fresh.sizes)

    def test_thousand_random_moves_track_scratch_rebuild(self, rng):
        ds, assign, k = random_instance(rng, max_n=200, max_d=6)
        state = ClusterState.from_assignments(ds, assign, k, 1.3)
        current = assign.copy()
        for _ in range(1000):
            i = int(rng.integers(ds.n_samples))
            p = int(current[i])
            q = int(rng.choice([j for j in range(k) if j != p]))
            members = current == p
            y = ds.labels[members]
            own = (y == ds.labels[i]).sum()
            if members.sum() <= 1 or own <= 1:
                continue
            apply_move(state, ds, i, p, q)
            current[i] = q
        fresh = ClusterState.from_assignments(ds, current, k, 1.3)
        assert rel_err(state.centroids, fresh.centroids) < 1e-9
        assert rel_err(state.pos_centroids, fresh.pos_centroids) < 1e-9
        assert rel_err(state.neg_centroids, fresh.neg_centroids) < 1e-9
        np.testing.assert_array_equal(state.assignments, fresh.assignments)
        np.testing.assert_array_equal(state.pos_counts, fresh.pos_counts)

    def test_positive_move_leaves_negative_centroids_untouched(self, rng):
        ds, assign, k = random_instance(rng, max_n=50, max_d=4)
        state = ClusterState.from_assignments(ds, assign, k, 0.5)
        pos_points = np.flatnonzero(ds.labels == 1)
        i = None
        for cand in pos_points:
            p = int(assign[cand])
            members = assign == p
            if (ds.labels[members] == 1).sum() >= 2 and (ds.labels[members] == 0).sum() >= 1:
                i = int(cand)
                break
        assert i is not None
        before = state.neg_centroids.copy()
        p = int(assign[i])
        apply_move(state, ds, i, p, (p + 1) % k)
        np.testing.assert_array_equal(state.neg_centroids, before)

    def test_illegal_moves_rejected(self):
        feats = np.array([[0.0], [1.0], [5.0], [6.0]])
        ds = LabeledDataset.from_arrays(feats, np.array([1, 0, 1, 0]))
        state = ClusterState.from_assignments(ds, [0, 0, 1, 1], 2, 0.5)
        with pytest.raises(IllegalMove):
            apply_move(state, ds, 0, 1, 0)  # wrong source
        with pytest.raises(IllegalMove):
            apply_move(state, ds, 0, 0, 0)  # no-op move
        with pytest.raises(IllegalMove):
            apply_move(state, ds, 0, 0, 1)  # would leave cluster 0 one-class


class TestStateInvariants:
    def test_centroid_decomposition(self, rng):
        ds, assign, k = random_instance(rng, max_n=100)
        state = ClusterState.from_assignments(ds, assign, k, 0.4)
        np.testing.assert_array_equal(state.sizes, state.pos_counts + state.neg_counts)
        assert int(state.sizes.sum()) == ds.n_samples
        recomposed = (state.pos_counts[:, None] * state.pos_centroids
                      + state.neg_counts[:, None] * state.neg_centroids)
        assert rel_err(state.sizes[:, None] * state.centroids, recomposed) < 1e-9


class TestCacFit:
    def make_ds(self, seed=0, ics=1.0, n=300, k_true=2):
        return make_classification(SyntheticSpec(n_samples=n, n_features=4,
                                                 n_clusters=k_true, ics=ics,
                                                 ocs=1.0, seed=seed))

    def test_alpha_zero_descends_below_lloyd_sse(self):
        ds = self.make_ds(seed=1)
        km = lloyd(ds.features, kmeanspp_init(ds.features, 2, seed=1))
        run = cac_fit(ds, 2, 0.0, seed=1)
        assert run.cost_trace[-1] <= km.sse + 1e-9

    def test_fixed_point_makes_no_moves(self):
        ds = self.make_ds(seed=2)
        run = cac_fit(ds, 2, 0.3, seed=2)
        again = cac_fit(ds, 2, 0.3, init_assignments=run.state.assignments)
        assert again.rounds == 1
        assert again.moves_per_round == [0]

    def test_trace_non_increasing(self):
        for seed in range(5):
            ds = self.make_ds(seed=seed)
            run = cac_fit(ds, 3, 0.5, seed=seed)
            diffs = np.diff(run.cost_trace)
            assert (diffs <= 1e-9).all()

    def test_every_move_strictly_decreases_recomputed_cost(self):
        ds = self.make_ds(seed=3, n=200)
        costs = []

        def watch(state, i, p, q, delta):
            costs.append(total_cost(state, ds))

        run = cac_fit(ds, 2, 0.5, seed=3, on_move=watch)
        seq = [run.cost_trace[0]] + costs
        assert all(b < a for a, b in zip(seq, seq[1:]))

    def test_guards_hold_at_every_move(self):
        ds = self.make_ds(seed=4)

        def check(state, i, p, q, delta):
            assert (state.sizes >= 1).all()
            assert (state.pos_counts + state.neg_counts == state.sizes).all()

        cac_fit(ds, 3, 1.0, seed=4, on_move=check)

    def test_separation_grows_at_moderate_alpha(self):
        gains = []
        for seed in range(5):
            ds = self.make_ds(seed=seed, ics=2.0, n=400)
            run = cac_fit(ds, 2, 0.5, seed=seed)
            init_state = ClusterState.from_assignments(ds, run.init_assignments, 2, 0.5)
            before = np.mean([np.sqrt(init_state.separation_sq(j)) for j in range(2)])
            after = np.mean([np.sqrt(run.state.separation_sq(j)) for j in range(2)])
            gains.append(after - before)
        assert np.mean(gains) >= 0.0

    def test_single_class_initial_cluster_is_tolerated(self):
        feats = np.vstack([np.zeros((4, 2)), np.ones((4, 2)) * 5])
        labels = np.array([1, 1, 1, 1, 0, 0, 0, 1])
        ds = LabeledDataset.from_arrays(feats, labels)
        run = cac_fit(ds, 2, 0.5, init_assignments=[0, 0, 0, 0, 1, 1, 1, 1])
        assert run.rounds >= 1

    def test_input_validation(self):
        ds = self.make_ds(seed=5)
        with pytest.raises(InfeasibleInit):
            cac_fit(ds, 0, 0.5)
        one_class = LabeledDataset.from_arrays(np.zeros((4, 2)),
                                               np.ones(4, dtype=int), n_classes=2)
        with pytest.raises(NotBinary):
            cac_fit(one_class, 2, 0.5)

    def test_op_counter_tracks_vector_lengths(self):
        # at a fixed point nothing moves, so the one round scores every point
        # that passes the class guard against all k clusters, d entries each
        ds = self.make_ds(seed=6, n=100)
        run = cac_fit(ds, 3, 0.5, seed=6)
        again = cac_fit(ds, 3, 0.5, init_assignments=run.state.assignments)
        guarded_in = sum(can_remove(again.state, ds, int(p), i)
                         for i, p in enumerate(again.state.assignments))
        assert again.moves_per_round == [0]
        assert again.ops_per_round == [guarded_in * 3 * ds.n_features]


# (n, d, k, alpha, seed), moves_per_round, sha256 of the final assignments as
# little-endian int64: recorded before any rewrite of the descent, which must
# reproduce them exactly
GOLDEN_TRAJECTORIES = [
    ((400, 4, 2, 0.5, 0), [14, 12, 8, 3, 2, 5, 2, 0],
     "482c32c8dd6f14d9d2dd90ef4b5c180fe9ef0f9aacc9b4aefa2dedd69a33e312"),
    ((600, 10, 4, 3.0, 1), [480, 153, 44, 12, 5, 0],
     "fb06a7c130879f35744eca2a01a51a27257b8672666ad7fb4cf8068169382f33"),
    ((500, 8, 3, 0.0, 2), [6, 2, 0],
     "0a3d0f2d6cea32149c10f8f11b488ba19ef6b1025c9eaf1c1f320ba05a551035"),
    ((600, 64, 16, 0.5, 3), [545, 450, 236, 97, 53, 41, 26, 19, 6, 5, 2, 1, 0],
     "be620909e5237d4566763995fc5feaedfb4fb03df0fc3c54c7c35b0ffac05a42"),
    ((800, 64, 16, 3.0, 4), [751, 591, 436, 33, 22, 9, 3, 4, 8, 3, 5, 1, 0],
     "28a156a3b7ad557e5783df84f71843acd6776c72544594c8112d0be20998c9d0"),
]


class TestGoldenTrajectory:
    @pytest.mark.parametrize("case,moves,digest", GOLDEN_TRAJECTORIES,
                             ids=["n{}-d{}-k{}-a{}-s{}".format(*c) for c, _, _ in GOLDEN_TRAJECTORIES])
    def test_fit_reproduces_recorded_trajectory(self, case, moves, digest):
        n, d, k, alpha, seed = case
        ds = make_classification(SyntheticSpec(n_samples=n, n_features=d, n_clusters=2,
                                               ics=1.0, ocs=2.0, seed=seed))
        run = cac_fit(ds, k, alpha, seed=seed)
        assert run.moves_per_round == moves
        final = np.ascontiguousarray(run.state.assignments, dtype="<i8").tobytes()
        assert hashlib.sha256(final).hexdigest() == digest


class TestPrediction:
    def build_model(self, ds, k=2, alpha=0.5, seed=0):
        run = cac_fit(ds, k, alpha, seed=seed)
        spec = ClassifierSpec(kind="logreg")
        local = train_per_cluster(run.state, ds, spec)
        return CacModel(run.state.centroids.copy(), local, alpha, run.cost_trace)

    def test_assign_cluster_exact_centroid(self):
        model = CacModel(np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 9.0]]),
                         [constant_classifier(0)] * 3, 0.5, [0.0])
        assert assign_cluster(model, np.array([9.0, 9.0])) == 2

    def test_assign_cluster_tie_breaks_low(self):
        model = CacModel(np.array([[-1.0, 0.0], [1.0, 0.0]]),
                         [constant_classifier(0)] * 2, 0.5, [0.0])
        assert assign_cluster(model, np.array([0.0, 0.0])) == 0

    def test_assign_cluster_matches_brute_force(self, rng):
        cents = rng.normal(size=(4, 3))
        model = CacModel(cents, [constant_classifier(0)] * 4, 0.5, [0.0])
        for _ in range(50):
            x = rng.normal(size=3)
            want = int(np.argmin(((cents - x) ** 2).sum(axis=1)))
            assert assign_cluster(model, x) == want

    def test_constant_classifiers_predict_constant(self, rng):
        model = CacModel(rng.normal(size=(2, 3)), [constant_classifier(0)] * 2,
                         0.5, [0.0])
        label, score = cac_predict(model, rng.normal(size=3))
        assert label == 0
        assert score < 0.5

    def test_batch_agrees_with_single(self, tiny_binary_ds):
        model = self.build_model(tiny_binary_ds, k=2, alpha=0.1)
        feats = tiny_binary_ds.features
        labels, scores = cac_predict_batch(model, feats)
        for i in range(feats.shape[0]):
            lab, sc = cac_predict(model, feats[i])
            assert lab == labels[i]
            assert sc == pytest.approx(scores[i], abs=1e-12)


class TestSerialization:
    def test_round_trip_is_bit_exact(self, rng):
        spec = SyntheticSpec(n_samples=200, n_features=3, n_clusters=2,
                             ics=1.0, ocs=1.0, seed=9)
        ds = make_classification(spec)
        run = cac_fit(ds, 2, 0.5, seed=9)
        local = train_per_cluster(run.state, ds, ClassifierSpec(kind="logreg"))
        model = CacModel(run.state.centroids.copy(), local, 0.5, run.cost_trace)
        text = cac_model_to_json(model)
        back = cac_model_from_json(text)
        assert cac_model_to_json(back) == text
        np.testing.assert_array_equal(back.centroids, model.centroids)
        x = rng.normal(size=3)
        assert cac_predict(back, x) == cac_predict(model, x)
