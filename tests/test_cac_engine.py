"""The separation-augmented clustering engine: costs, incremental move
arithmetic, the descent loop, prediction and serialization.

Every closed-form quantity is checked against the from-scratch oracles in
conftest, which recompute cluster scores directly from member rows. The
one-point move wrappers around the block scorer live in oracles.py.
"""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cackit import classifiers
from cackit.cac_engine import (
    MOVE_TOL,
    CacModel,
    ClusterState,
    _Descent,
    _separations,
    apply_move,
    cac_fit,
    cac_model_from_json,
    cac_model_to_json,
    cac_predict,
    cac_predict_batch,
    can_remove,
    cluster_cost,
    total_cost,
)
from cackit.classifiers import (
    ClassifierSpec,
    _predict_proba_routed,
    _routed_scoring,
    constant_classifier,
    predict_proba_batch,
    train_per_cluster,
)
from cackit.cluster_core import kmeanspp_init, lloyd, nearest_centroids
from cackit.dataset import LabeledDataset, SyntheticSpec, make_classification
from cackit.errors import (
    DimensionMismatch,
    EmptyCluster,
    IllegalMove,
    InfeasibleInit,
    NotBinary,
    SchemaMismatch,
    UntrainedModel,
)

from conftest import (
    cluster_score_oracle,
    gamma_minus_oracle,
    gamma_plus_oracle,
    random_instance,
    rel_err,
    total_score_oracle,
)
from oracles import merge_cost_change, move_cost_change, removal_cost_change


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
        with pytest.raises(IllegalMove, match="point 0 is already in cluster 0"):
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
        with pytest.raises(IllegalMove, match="would leave cluster 0 one-class"):
            removal_cost_change(state, ds, 0, 0)
        solo = ClusterState.from_assignments(ds, [0, 1, 1, 1], 2, 0.5)
        with pytest.raises(IllegalMove, match="cluster 0 has a single member"):
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
        assert rel_err(state.class_centroids[1], fresh.class_centroids[1]) < 1e-9
        assert rel_err(state.class_centroids[0], fresh.class_centroids[0]) < 1e-9
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
        assert rel_err(state.class_centroids[1], fresh.class_centroids[1]) < 1e-9
        assert rel_err(state.class_centroids[0], fresh.class_centroids[0]) < 1e-9
        np.testing.assert_array_equal(state.assignments, fresh.assignments)
        np.testing.assert_array_equal(state.class_counts[1], fresh.class_counts[1])

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
        before = state.class_centroids[0].copy()
        p = int(assign[i])
        apply_move(state, ds, i, p, (p + 1) % k)
        np.testing.assert_array_equal(state.class_centroids[0], before)

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
        # a target outside [0, k), for a point 0 that may leave its cluster
        ds = LabeledDataset.from_arrays(np.arange(12.0)[:, None], np.tile([1, 0], 6))
        state = ClusterState.from_assignments(ds, np.repeat([0, 1, 2], 4), 3, 0.5)
        assert can_remove(state, ds, 0, 0)
        for q in (-1, 3):
            with pytest.raises(IllegalMove, match="outside"):
                apply_move(state, ds, 0, 0, q)
        np.testing.assert_array_equal(state.sizes, [4, 4, 4])
        assert state.assignments[0] == 0

    def test_replayed_fit_moves_rebuild_the_live_state_byte_for_byte(self):
        # the descent and apply_move share one move update: replaying a fit's
        # moves from its start gives the live state's bytes before the fit's
        # final rebuild
        ds = make_classification(SyntheticSpec(n_samples=300, n_features=10, n_clusters=2,
                                               ics=1.0, ocs=2.0, seed=7))
        applied, live = [], []

        def watch(state, i, p, q, delta):
            applied.append((i, p, q))
            live.append(state)

        run = cac_fit(ds, 4, 3.0, seed=7, on_move=watch)
        assert len(applied) > 100
        replay = ClusterState.from_assignments(ds, run.init_assignments, 4, 3.0)
        for i, p, q in applied:
            apply_move(replay, ds, i, p, q)
        for field in ("sizes", "class_counts", "centroids", "class_centroids", "assignments"):
            assert getattr(replay, field).tobytes() == getattr(live[-1], field).tobytes(), field


class TestSeparation:
    @pytest.mark.parametrize("d", [2, 10, 64])
    def test_cluster_cost_reads_the_descents_separation_bits(self, d):
        # cost_trace and the descent's cached separation terms are one formula:
        # with the separation term weighted far above the SSE, cluster_cost is
        # exactly the SSE minus alpha * size * sep[j]
        rng = np.random.default_rng(d)
        alpha = 2.0**20 + 1.0
        for _ in range(20):
            k = int(rng.integers(2, 9))
            ds = LabeledDataset.from_arrays(rng.normal(size=(60, d)) * rng.uniform(0.1, 10.0),
                                            np.tile([0, 1], 30))
            assign = rng.integers(0, k, size=60)
            assign[:k] = np.arange(k)
            state = ClusterState.from_assignments(ds, assign, k, alpha)
            sse = ClusterState.from_assignments(ds, assign, k, 0.0)
            sep = _Descent(state, ds, 1).sep
            for j in range(k):
                want = cluster_cost(sse, ds, j) - alpha * float(state.sizes[j]) * sep[j]
                assert cluster_cost(state, ds, j) == want


class TestStateInvariants:
    def test_centroid_decomposition(self, rng):
        ds, assign, k = random_instance(rng, max_n=100)
        state = ClusterState.from_assignments(ds, assign, k, 0.4)
        np.testing.assert_array_equal(state.sizes, state.class_counts[1] + state.class_counts[0])
        assert int(state.sizes.sum()) == ds.n_samples
        recomposed = (state.class_counts[1][:, None] * state.class_centroids[1]
                      + state.class_counts[0][:, None] * state.class_centroids[0])
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
            assert (state.class_counts[1] + state.class_counts[0] == state.sizes).all()

        cac_fit(ds, 3, 1.0, seed=4, on_move=check)

    def test_separation_grows_at_moderate_alpha(self):
        gains = []
        for seed in range(5):
            ds = self.make_ds(seed=seed, ics=2.0, n=400)
            run = cac_fit(ds, 2, 0.5, seed=seed)
            init_state = ClusterState.from_assignments(ds, run.init_assignments, 2, 0.5)
            before = np.mean(np.sqrt(_separations(init_state)))
            after = np.mean(np.sqrt(_separations(run.state)))
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
    # the shape of fit-cac with alpha auto: a training split of 2280 rows
    ((2280, 10, 4, 3.0, 5), [1943, 509, 87, 66, 28, 1, 0],
     "5189808f7e0b77cea8ae2fc327b40dd618a4f18f27d59dd457f33f60a4fa69d0"),
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


def reference_descent(ds, k, alpha, init, max_rounds):
    """The descent one point and one candidate cluster at a time, through the
    one-point oracles and `apply_move`: what `cac_fit` must reproduce bit for bit."""
    state = ClusterState.from_assignments(ds, init, k, alpha)
    trace = [total_cost(state, ds)]
    moves_per_round, applied = [], []
    for _ in range(max_rounds):
        moves = 0
        for i in range(ds.n_samples):
            p = int(state.assignments[i])
            if not can_remove(state, ds, p, i):
                continue
            deltas = [np.inf if q == p else move_cost_change(state, ds, i, p, q)
                      for q in range(k)]
            q = int(np.argmin(deltas))
            if deltas[q] < -MOVE_TOL:
                apply_move(state, ds, i, p, q)
                applied.append((i, p, q, deltas[q]))
                moves += 1
        moves_per_round.append(moves)
        trace.append(total_cost(state, ds))
        if moves == 0:
            break
    return state.assignments, moves_per_round, trace, applied


def screening_case(n, d, k_pick, pos_frac, duplicates, seed):
    """A small dataset, k and a shuffled start, with every cluster non-empty."""
    rng = np.random.default_rng(seed)
    k = 1 + int(k_pick * (n - 1))
    if duplicates:
        # few distinct rows: exact ties between candidate clusters
        feats = rng.integers(0, 3, size=(n, d)).astype(np.float64)
    else:
        feats = rng.normal(size=(n, d)) + 3.0 * rng.integers(0, 3, size=(n, 1))
    labels = (rng.random(n) < pos_frac).astype(np.int64)
    labels[rng.choice(n, 2, replace=False)] = [0, 1]
    init = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    rng.shuffle(init)
    return LabeledDataset.from_arrays(feats, labels), k, init


class TestBlockScreening:
    # every explicit example has an odd n, never a multiple of a block size
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 90), d=st.integers(1, 5), k_pick=st.floats(0.0, 1.0),
           alpha=st.sampled_from([0.0, 0.5, 3.0]), pos_frac=st.sampled_from([0.5, 0.15, 0.03]),
           duplicates=st.booleans(), seed=st.integers(0, 10**6))
    @example(n=61, d=3, k_pick=0.0, alpha=0.5, pos_frac=0.5, duplicates=False, seed=1)  # k=1
    @example(n=45, d=2, k_pick=0.96, alpha=0.5, pos_frac=0.5, duplicates=False, seed=2)  # k near n
    @example(n=89, d=4, k_pick=0.1, alpha=3.0, pos_frac=0.03, duplicates=False, seed=3)
    @example(n=77, d=2, k_pick=0.06, alpha=0.0, pos_frac=0.5, duplicates=True, seed=4)
    @example(n=83, d=3, k_pick=0.05, alpha=3.0, pos_frac=0.15, duplicates=True, seed=5)
    # long runs of consecutive moves, scored one row at a time: k=16, 10 and 15,
    # the last with runs that end at rows the class guard holds in place
    @example(n=89, d=4, k_pick=0.171, alpha=3.0, pos_frac=0.5, duplicates=False, seed=2)
    @example(n=91, d=3, k_pick=0.1, alpha=0.0, pos_frac=0.5, duplicates=False, seed=2)
    @example(n=85, d=5, k_pick=0.171, alpha=3.0, pos_frac=0.15, duplicates=False, seed=1)
    def test_fit_equals_the_one_point_reference(self, n, d, k_pick, alpha, pos_frac,
                                                duplicates, seed):
        ds, k, init = screening_case(n, d, k_pick, pos_frac, duplicates, seed)
        applied = []
        run = cac_fit(ds, k, alpha, max_rounds=8, init_assignments=init,
                      on_move=lambda state, i, p, q, delta: applied.append((i, p, q, delta)))
        assign, moves, trace, want = reference_descent(ds, k, alpha, init, 8)
        assert applied == want  # the same moves with bit-identical deltas
        assert run.moves_per_round == moves
        np.testing.assert_array_equal(run.state.assignments, assign)
        assert run.cost_trace == trace

    def test_runs_of_moves_switch_between_one_row_and_block_scoring(self, monkeypatch):
        # the k=15 example above: the one-row scorer finds moves and quiet
        # rows, a run ends at a row the class guard holds in place, and
        # blocks take over after a run
        events = []
        alone, block, move = _Descent.best_move, _Descent.best_moves, _Descent.move

        def log_alone(self, i, p, y):
            q, best = alone(self, i, p, y)
            events.append(("moved" if best < -MOVE_TOL else "quiet", i))
            return q, best

        def log_block(self, start, stop):
            events.append(("block", start))
            return block(self, start, stop)

        def log_move(self, i, p, q, y):
            events.append(("move", i))
            move(self, i, p, q, y)

        monkeypatch.setattr(_Descent, "best_move", log_alone)
        monkeypatch.setattr(_Descent, "best_moves", log_block)
        monkeypatch.setattr(_Descent, "move", log_move)
        ds, k, init = screening_case(85, 5, 0.171, 0.15, False, 1)
        run = cac_fit(ds, k, 3.0, max_rounds=8, init_assignments=init)
        assert run.moves_per_round == reference_descent(ds, k, 3.0, init, 8)[1]
        kinds = [kind for kind, _ in events]
        assert kinds.count("moved") > 10 and kinds.count("quiet") > 0
        assert ("quiet", "block") in zip(kinds, kinds[1:])
        # a move scored alone at row i, then a block from i + 2: row i + 1 was guarded out
        assert any(a == ("moved", b[1]) and b[0] == "move" and c == ("block", b[1] + 2)
                   for a, b, c in zip(events, events[1:], events[2:]))

    @pytest.mark.parametrize("d, seed", [(16, 0), (64, 1)])
    def test_wide_rows_move_with_the_reference_deltas_on_both_paths(self, monkeypatch, d, seed):
        # at d >= 8 einsum's sum-of-products kernel runs its unrolled loop; the
        # moves found by the one-row scorer and by blocks both carry the
        # reference's deltas bit for bit
        scored_by = []
        alone, block = _Descent.best_move, _Descent.best_moves

        def log_alone(self, i, p, y):
            scored_by.append("one-row")
            return alone(self, i, p, y)

        def log_block(self, start, stop):
            scored_by.append("block")
            return block(self, start, stop)

        monkeypatch.setattr(_Descent, "best_move", log_alone)
        monkeypatch.setattr(_Descent, "best_moves", log_block)
        applied, paths = [], []

        def watch(state, i, p, q, delta):
            applied.append((i, p, q, delta))
            paths.append(scored_by[-1])

        ds, k, init = screening_case(85, d, 0.171, 0.5, False, seed)
        cac_fit(ds, k, 3.0, max_rounds=8, init_assignments=init, on_move=watch)
        assert applied == reference_descent(ds, k, 3.0, init, 8)[3]
        assert paths.count("one-row") > 30 and paths.count("block") > 30

    @pytest.mark.parametrize("from_fixed_point", [False, True])
    def test_fit_memory_stays_bounded(self, from_fixed_point):
        # scoring a block of rows against every cluster must not grow with n;
        # from a fixed point nothing moves, so the blocks grow to their cap
        ds = make_classification(SyntheticSpec(n_samples=1140, n_features=64, n_clusters=2,
                                               ics=1.0, ocs=2.0, seed=0))
        init = cac_fit(ds, 16, 0.5, seed=0).state.assignments if from_fixed_point else None
        tracemalloc.start()
        try:
            run = cac_fit(ds, 16, 0.5, max_rounds=2, seed=0, init_assignments=init)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        if from_fixed_point:
            assert run.moves_per_round == [0]


class TestDrift:
    def test_live_state_tracks_scratch_rebuild_over_a_full_fit(self):
        # the fifth golden case: 1866 moves over 13 rounds, all applied
        # incrementally to one live state
        n, d, k, alpha, seed = 800, 64, 16, 3.0, 4
        ds = make_classification(SyntheticSpec(n_samples=n, n_features=d, n_clusters=2,
                                               ics=1.0, ocs=2.0, seed=seed))
        seen = []  # the live state, once per applied move

        def compare(state):
            fresh = ClusterState.from_assignments(ds, state.assignments, k, alpha)
            np.testing.assert_array_equal(state.sizes, fresh.sizes)
            np.testing.assert_array_equal(state.class_counts, fresh.class_counts)
            for got, want in ((state.centroids, fresh.centroids),
                              (state.class_centroids[1], fresh.class_centroids[1]),
                              (state.class_centroids[0], fresh.class_centroids[0])):
                assert rel_err(got, want) < 1e-8

        def watch(state, i, p, q, delta):
            seen.append(state)
            if len(seen) % 100 == 0:
                compare(state)

        run = cac_fit(ds, k, alpha, seed=seed, on_move=watch)
        assert len(seen) == sum(run.moves_per_round) > 1000
        np.testing.assert_array_equal(seen[-1].assignments, run.state.assignments)
        compare(seen[-1])


class TestPrediction:
    def build_model(self, ds, k=2, alpha=0.5, seed=0):
        run = cac_fit(ds, k, alpha, seed=seed)
        spec = ClassifierSpec(kind="logreg")
        local = train_per_cluster(run.state, ds, spec)
        return CacModel(run.state.centroids.copy(), local, alpha, run.cost_trace)

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
            assert sc == scores[i]
            assert (lab, sc) == tuple(v[0] for v in cac_predict_batch(model, feats[i][None]))

    @pytest.mark.parametrize("kind", ["logreg", "ridge", "perceptron", "knn"])
    def test_score_is_the_same_bits_in_any_batch(self, kind):
        # at k=16, d=64 the whole matrix and the 64-row chunks are screened by
        # nearest_centroids, while the 1-row and 7-row chunks are not
        for n_features, k in ((5, 4), (64, 16)):
            spec = SyntheticSpec(n_samples=300, n_features=n_features, n_clusters=4, ics=1.0,
                                 ocs=1.5, seed=3)
            ds = make_classification(spec)
            run = cac_fit(ds, k, 0.5, seed=3)
            local = train_per_cluster(run.state, ds, ClassifierSpec(kind=kind, epochs=50))
            local[1], local[3] = constant_classifier(0), constant_classifier(1)
            model = CacModel(run.state.centroids.copy(), local, 0.5, run.cost_trace)
            x = ds.features
            labels, scores = cac_predict_batch(model, x)
            assert set(nearest_centroids(x, model.centroids)) == set(range(k))
            for step in (1, 7, 64):
                parts = [cac_predict_batch(model, x[i:i + step]) for i in range(0, len(x), step)]
                np.testing.assert_array_equal(np.concatenate([s for _, s in parts]), scores)
                np.testing.assert_array_equal(np.concatenate([lab for lab, _ in parts]), labels)
            np.testing.assert_array_equal(cac_predict_batch(model, np.asfortranarray(x))[1], scores)
            singles = [cac_predict(model, row) for row in x]
            np.testing.assert_array_equal([sc for _, sc in singles], scores)
            np.testing.assert_array_equal([lab for lab, _ in singles], labels)

    @pytest.mark.parametrize("kind", ["logreg", "ridge", "perceptron"])
    def test_linear_classifier_scores_as_the_routed_pass(self, kind, rng):
        spec = SyntheticSpec(n_samples=300, n_features=5, n_clusters=3, ics=1.0, ocs=1.5, seed=4)
        ds = make_classification(spec)
        run = cac_fit(ds, 3, 0.5, seed=4)
        local = train_per_cluster(run.state, ds, ClassifierSpec(kind=kind, epochs=50))
        x = rng.normal(size=(200, 5))
        routes = rng.integers(0, 3, 200)
        routed = _predict_proba_routed(_routed_scoring(local, 5), x, routes)
        for j, clf in enumerate(local):
            np.testing.assert_array_equal(predict_proba_batch(clf, x[routes == j]), routed[routes == j])

    def test_scoring_state_is_built_once(self, monkeypatch, rng):
        spec = SyntheticSpec(n_samples=300, n_features=5, n_clusters=3, ics=1.0, ocs=1.5, seed=4)
        ds = make_classification(spec)
        run = cac_fit(ds, 4, 0.5, seed=4)
        local = train_per_cluster(run.state, ds, ClassifierSpec(kind="logreg", epochs=50))
        local[1] = train_per_cluster(run.state, ds, ClassifierSpec(kind="knn"))[1]
        local[2] = constant_classifier(1)
        calls = {"builds": 0, "widths": 0}
        build, check = classifiers._routed_scoring, classifiers._check_width

        def counted_build(*args):
            calls["builds"] += 1
            return build(*args)

        def counted_check(*args):
            calls["widths"] += 1
            return check(*args)

        monkeypatch.setattr(classifiers, "_routed_scoring", counted_build)
        monkeypatch.setattr(classifiers, "_check_width", counted_check)
        model = CacModel(run.state.centroids.copy(), local, 0.5, run.cost_trace)
        assert calls == {"builds": 1, "widths": 3}  # the constant cluster has no width
        x = rng.normal(size=(40, 5))
        for i in range(0, 40, 8):
            cac_predict_batch(model, x[i:i + 8])
        singles = [cac_predict(model, row) for row in x]
        assert calls == {"builds": 1, "widths": 3}
        routes = nearest_centroids(x, model.centroids)
        assert set(routes) == set(range(4))
        want = [predict_proba_batch(local[j], row[None])[0] for j, row in zip(routes, x)]
        np.testing.assert_array_equal([sc for _, sc in singles], want)

    @pytest.mark.parametrize("x", [np.zeros(3), np.zeros((1, 2))], ids=["wrong-length", "two-d"])
    def test_point_of_wrong_shape_rejected(self, x):
        model = CacModel(np.zeros((2, 2)), [constant_classifier(0)] * 2, 0.5, [0.0])
        with pytest.raises(DimensionMismatch):
            cac_predict(model, x)


class TestSerialization:
    def tiny_model(self):
        spec = SyntheticSpec(n_samples=200, n_features=3, n_clusters=2, ics=1.0, ocs=1.0, seed=9)
        ds = make_classification(spec)
        run = cac_fit(ds, 2, 0.5, seed=9)
        local = train_per_cluster(run.state, ds, ClassifierSpec(kind="logreg", epochs=50))
        return CacModel(run.state.centroids.copy(), local, 0.5, run.cost_trace)

    @pytest.mark.parametrize("keep, message", [(1, "cluster 1 has no classifier"),
                                               (3, "classifier 2 has no cluster")])
    def test_classifier_count_must_match_the_centroids(self, keep, message):
        model = self.tiny_model()
        payload = json.loads(cac_model_to_json(model))
        payload["classifiers"] = (payload["classifiers"] * 2)[:keep]
        with pytest.raises(SchemaMismatch, match=f"^cac model payload is malformed: {message}$"):
            cac_model_from_json(json.dumps(payload))
        with pytest.raises(DimensionMismatch, match=f"^{message}$"):
            CacModel(model.centroids, (model.classifiers * 2)[:keep], 0.5, [0.0])

    def test_classifier_width_must_match_the_centroids(self):
        model = self.tiny_model()
        payload = json.loads(cac_model_to_json(model))
        payload["classifiers"][1]["weights"].append(0.0)
        message = "cluster 1's classifier expected 4 features, got 3"
        with pytest.raises(SchemaMismatch, match=f"^cac model payload is malformed: {message}$"):
            cac_model_from_json(json.dumps(payload))
        wide = classifiers.classifier_from_dict(payload["classifiers"][1])
        with pytest.raises(DimensionMismatch, match=f"^{message}$"):
            CacModel(model.centroids, [model.classifiers[0], wide], 0.5, [0.0])

    def test_model_without_classifiers_loads_but_does_not_predict(self):
        payload = json.loads(cac_model_to_json(self.tiny_model()))
        payload["classifiers"] = []
        model = cac_model_from_json(json.dumps(payload))
        with pytest.raises(UntrainedModel):
            cac_predict(model, np.zeros(3))
        with pytest.raises(UntrainedModel):
            cac_predict_batch(model, np.zeros((2, 3)))

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
