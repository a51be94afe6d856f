"""k-means++ seeding, Lloyd iteration, nearest-centroid routing and the silhouette score."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cackit import cluster_core
from cackit.classifiers import ClassifierSpec, predict_proba_batch, train_classifier
from cackit.cluster_core import kmeanspp_init, lloyd, nearest_centroids, silhouette
from cackit.errors import DimensionMismatch, InfeasibleInit, OneCluster

from oracles import _score_by_route


def brute_routes(x, cents):
    """The difference-form argmin nearest_centroids must reproduce bit for bit."""
    return ((x[:, None, :] - cents[None]) ** 2).sum(axis=2).argmin(axis=1)


def routing_case(n, k, d, scale_exp, offset, kind, seed):
    """Rows and centroids of one kind, scaled by 2**scale_exp, then offset."""
    rng = np.random.default_rng(seed)
    if kind == "midpoints":
        # integer data, half the rows on the exact midpoint of two centroids
        cents = rng.integers(-3, 4, size=(k, d)).astype(np.float64)
        x = rng.integers(-3, 4, size=(n, d)).astype(np.float64)
        x[:n // 2] = (cents[0] + cents[-1]) / 2.0
    else:
        cents = rng.normal(size=(k, d))
        x = rng.normal(size=(n, d)) * rng.uniform(0.1, 3.0)
    if kind == "duplicates":
        cents[-1] = cents[0]
    if kind == "nonfinite":
        x[rng.integers(n)] = np.nan
        x[rng.integers(n), rng.integers(d)] = np.inf
        x[rng.integers(n), rng.integers(d)] = -np.inf
    shift = rng.uniform(-offset, offset, size=d)
    return x * 2.0**scale_exp + shift, cents * 2.0**scale_exp + shift


def blob_pair(n_per=50, gap=10.0, d=2, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_per, d))
    b = rng.normal(size=(n_per, d)) + gap
    return np.vstack([a, b])


def three_blobs(rng, n, d):
    """n rows around three centres 8 apart on the diagonal, and each row's blob."""
    blob = np.arange(n) % 3
    return rng.normal(size=(n, d)) + 8.0 * blob[:, None], blob


def difference_form_silhouette(x, assign):
    """The silhouette from difference-form distances, one point at a time."""
    dist = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
    scores = []
    for i in range(x.shape[0]):
        own = assign == assign[i]
        if own.sum() == 1:
            scores.append(0.0)
            continue
        a = dist[i, own].sum() / (own.sum() - 1)
        b = min(dist[i, assign == j].mean() for j in set(assign.tolist()) - {assign[i]})
        scores.append((b - a) / max(a, b))
    return float(np.mean(scores))


class TestKmeansppInit:
    def test_k_equals_n_returns_permutation_of_rows(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(12, 3))
        cents = kmeanspp_init(x, 12, seed=5)
        got = sorted(map(tuple, cents))
        want = sorted(map(tuple, x))
        assert got == want

    def test_k_one_is_a_data_row(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(20, 4))
        c = kmeanspp_init(x, 1, seed=0)
        assert any(np.array_equal(c[0], row) for row in x)

    def test_duplicate_heavy_data_yields_the_distinct_rows(self):
        base = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        x = np.repeat(base, 7, axis=0)
        cents = kmeanspp_init(x, 3, seed=3)
        assert sorted(map(tuple, cents)) == sorted(map(tuple, base))

    def test_k_too_large(self):
        with pytest.raises(InfeasibleInit, match=r"k=4 outside \[1, 3\]"):
            kmeanspp_init(np.zeros((3, 2)), 4)

    def test_deterministic(self):
        x = blob_pair()
        a = kmeanspp_init(x, 4, seed=9)
        b = kmeanspp_init(x, 4, seed=9)
        np.testing.assert_array_equal(a, b)


class TestLloyd:
    def test_square_corners_sse_zero_in_one_iteration(self):
        corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        res = lloyd(corners, corners.copy())
        assert res.sse == 0.0
        assert res.iterations == 1

    def test_two_blobs_recovered(self):
        x = blob_pair(gap=10.0)
        res = lloyd(x, kmeanspp_init(x, 2, seed=0))
        first_half = res.assignments[:50]
        second_half = res.assignments[50:]
        assert len(set(first_half)) == 1
        assert len(set(second_half)) == 1
        assert first_half[0] != second_half[0]

    def test_k_one_closed_form(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 3))
        res = lloyd(x, x[:1].copy())
        np.testing.assert_allclose(res.centroids[0], x.mean(axis=0))
        np.testing.assert_allclose(res.sse, ((x - x.mean(axis=0)) ** 2).sum(), rtol=1e-12)

    def test_sse_matches_assignments(self):
        x = blob_pair(gap=3.0, seed=7)
        res = lloyd(x, kmeanspp_init(x, 3, seed=7))
        direct = sum(((x[res.assignments == j] - res.centroids[j]) ** 2).sum()
                     for j in range(3))
        assert abs(res.sse - direct) <= 1e-6 * max(1.0, direct)

    def test_output_is_a_fixed_point(self):
        x = blob_pair(gap=2.0, seed=8)
        res = lloyd(x, kmeanspp_init(x, 4, seed=8))
        again = lloyd(x, res.centroids.copy(), max_iter=1)
        np.testing.assert_array_equal(again.assignments, res.assignments)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lloyd(np.zeros((5, 3)), np.zeros((2, 4)))

    @settings(max_examples=40, deadline=None)
    @given(offset=st.floats(-1e8, 1e8), k=st.integers(1, 5), d=st.integers(1, 10),
           seed=st.integers(0, 10**6))
    @example(offset=1e6, k=5, d=1, seed=1)
    @example(offset=1e7, k=4, d=2, seed=0)
    @example(offset=-1e7, k=4, d=10, seed=2)
    @example(offset=1e8, k=4, d=1, seed=0)
    def test_offset_features_end_on_their_own_routes(self, offset, k, d, seed):
        # the expanded form loses every digit of the distances at these offsets;
        # routing through nearest_centroids keeps the difference form's
        rng = np.random.default_rng(seed)
        x = three_blobs(rng, 200, d)[0] + offset * rng.uniform(0.5, 1.0, size=d)
        res = lloyd(x, kmeanspp_init(x, k, seed=seed), tol=0.0)
        np.testing.assert_array_equal(res.assignments, nearest_centroids(x, res.centroids))

    @settings(max_examples=30, deadline=None)
    @given(e=st.integers(-200, 200), seed=st.integers(0, 10**6))
    @example(e=-200, seed=0)
    @example(e=200, seed=0)
    def test_power_of_two_scaling_keeps_the_assignments(self, e, seed):
        # scaling by 2**e is exact in every distance, mean and SSE ratio
        rng = np.random.default_rng(seed)
        x = three_blobs(rng, 150, 3)[0]
        init = kmeanspp_init(x, 4, seed=seed)
        want = lloyd(x, init)
        got = lloyd(x * 2.0**e, init * 2.0**e)
        np.testing.assert_array_equal(got.assignments, want.assignments)
        assert got.iterations == want.iterations


class TestNearestIndex:
    def test_picks_closest(self):
        cents = np.array([[0.0, 0.0], [10.0, 0.0]])
        np.testing.assert_array_equal(nearest_centroids(np.array([[9.0, 0.0], [10.0, 0.0]]), cents),
                                      [1, 1])

    def test_tie_goes_to_lowest_index(self):
        cents = np.array([[-1.0, 0.0], [1.0, 0.0]])
        assert nearest_centroids(np.array([[0.0, 0.0]]), cents)[0] == 0

    def test_single_rows_match_brute_force(self, rng):
        cents = rng.normal(size=(4, 3))
        for _ in range(50):
            x = rng.normal(size=3)
            want = int(np.argmin(((cents - x) ** 2).sum(axis=1)))
            assert nearest_centroids(x[None], cents)[0] == want

    def test_chunked_routes_match_one_block(self):
        rng = np.random.default_rng(12)
        k, d = 64, 512
        step = cluster_core.ROUTE_BLOCK_ELEMENTS // (k * d)
        cents = rng.integers(-50, 50, size=(k, d)).astype(np.float64)
        cents[5] = cents[3]
        cents[5, 0] += 2.0
        x = rng.integers(-50, 50, size=(3 * step + 7, d)).astype(np.float64)
        # exact ties between clusters 3 and 5 on both sides of the first boundary
        x[step - 1] = x[step] = (cents[3] + cents[5]) / 2.0
        want = ((x[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        got = nearest_centroids(x, cents)
        assert want[step - 1] == want[step] == 3
        np.testing.assert_array_equal(got, want)

    def test_routes_and_knn_votes_do_not_depend_on_the_block_budget(self, monkeypatch):
        # each row's distances are summed on their own, so any chunking gives
        # the same routes and the same kNN scores
        rng = np.random.default_rng(15)
        cents = rng.normal(size=(16, 64))
        x = rng.normal(size=(1800, 64))
        knn = train_classifier(x[:300], (x[:300, 0] > 0).astype(np.int64),
                               ClassifierSpec(kind="knn", k_neighbors=5))
        got = []
        for budget in (2**10, 2**16, 2**20):
            monkeypatch.setattr(cluster_core, "ROUTE_BLOCK_ELEMENTS", budget)
            got.append((nearest_centroids(x, cents), predict_proba_batch(knn, x[300:600])))
        for routes, votes in got[1:]:
            np.testing.assert_array_equal(routes, got[0][0])
            np.testing.assert_array_equal(votes, got[0][1])

    # chunks of n * k * d entries fall on both sides of ROUTE_SCREEN_ELEMENTS
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 299), k=st.integers(1, 19), d=st.integers(1, 69),
           scale_exp=st.integers(-500, 500), offset=st.sampled_from([0.0, 1e3, 1e9]),
           kind=st.sampled_from(["normal", "duplicates", "midpoints", "nonfinite"]),
           seed=st.integers(0, 10**6))
    @example(n=200, k=1, d=64, scale_exp=0, offset=0.0, kind="normal", seed=1)
    @example(n=1, k=1, d=1, scale_exp=0, offset=0.0, kind="nonfinite", seed=2)
    @example(n=250, k=16, d=64, scale_exp=0, offset=1e9, kind="normal", seed=3)
    @example(n=250, k=16, d=64, scale_exp=0, offset=0.0, kind="duplicates", seed=4)
    @example(n=251, k=12, d=40, scale_exp=0, offset=0.0, kind="midpoints", seed=5)
    @example(n=180, k=16, d=64, scale_exp=500, offset=0.0, kind="nonfinite", seed=6)
    @example(n=180, k=16, d=64, scale_exp=-500, offset=0.0, kind="normal", seed=7)
    def test_routes_equal_the_difference_form_argmin(self, n, k, d, scale_exp, offset, kind,
                                                     seed):
        x, cents = routing_case(n, k, d, scale_exp, offset, kind, seed)
        np.testing.assert_array_equal(nearest_centroids(x, cents), brute_routes(x, cents))

    def test_screened_routes_equal_unscreened_routes(self, monkeypatch):
        # a duplicated centroid and rows near a midpoint must fall back
        rng = np.random.default_rng(16)
        cents = rng.normal(size=(16, 64))
        cents[9] = cents[2]
        x = rng.normal(size=(700, 64))
        x[:50] = (cents[0] + cents[1]) / 2.0
        got = []
        for threshold in (0, x.shape[0] * cents.size + 1):
            monkeypatch.setattr(cluster_core, "ROUTE_SCREEN_ELEMENTS", threshold)
            got.append(nearest_centroids(x, cents))
        np.testing.assert_array_equal(got[0], got[1])
        np.testing.assert_array_equal(got[0], brute_routes(x, cents))

    @pytest.mark.parametrize("n, k, d, screened", [(127, 3, 43, False), (128, 4, 32, True)])
    def test_one_block_below_the_screen_threshold(self, monkeypatch, n, k, d, screened):
        # n * k * d is 2**14 - 1, routed in one difference block, or 2**14, screened
        assert (n * k * d < cluster_core.ROUTE_SCREEN_ELEMENTS) != screened
        calls = []
        screen = cluster_core._screened_routes
        monkeypatch.setattr(cluster_core, "_screened_routes",
                            lambda *args: calls.append(1) or screen(*args))
        rng = np.random.default_rng(n)
        cents = rng.integers(-3, 4, size=(k, d)).astype(np.float64)
        cents[-1] = cents[0]  # a duplicated centroid: its nearest rows tie
        x = rng.normal(size=(n, d))
        x[:10] = (cents[0] + cents[1]) / 2.0  # exact ties
        x[10:13] = np.nan
        x[13, 0] = np.nan
        for rows in (x, x[:0]):
            got = nearest_centroids(rows, cents)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, brute_routes(rows, cents))
        assert bool(calls) == screened

    def test_shape_mismatch_rejected(self):
        cents = np.zeros((3, 4))
        for x in (np.zeros(4), np.zeros((2, 5))):
            with pytest.raises(DimensionMismatch):
                nearest_centroids(x, cents)


class TestScoreByRoute:
    def test_each_present_cluster_scores_its_own_rows_once(self):
        x = np.arange(12.0).reshape(6, 2)
        routes = np.array([2, 0, 2, 2, 0, 3])  # cluster 1 is absent
        visited = []

        def score(j, rows):
            visited.append(int(j))
            return 100.0 * j + rows[:, 0]

        got = _score_by_route(x, routes, score, np.full(6, np.nan))
        assert visited == [0, 2, 3]
        np.testing.assert_array_equal(got, 100.0 * routes + x[:, 0])


class TestSilhouette:
    def test_two_tight_far_pairs(self):
        x = np.array([[0.0, 0.0], [0.1, 0.0], [9.0, 9.0], [9.1, 9.0]])
        score = silhouette(x, np.array([0, 0, 1, 1]))
        assert score > 0.9

    def test_random_assignment_near_zero(self):
        scores = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(80, 3))
            scores.append(silhouette(x, rng.integers(0, 2, size=80)))
        assert abs(np.mean(scores)) < 0.1

    def test_two_singletons_score_zero(self):
        x = np.array([[0.0, 0.0], [5.0, 5.0]])
        assert silhouette(x, np.array([0, 1])) == 0.0

    def test_range(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(40, 2))
        for seed in range(5):
            a = np.random.default_rng(seed).integers(0, 3, size=40)
            if len(set(a.tolist())) < 2:
                continue
            s = silhouette(x, a)
            assert -1.0 <= s <= 1.0

    def test_one_cluster_rejected(self):
        with pytest.raises(OneCluster):
            silhouette(np.zeros((4, 2)), np.zeros(4, dtype=int))

    @pytest.mark.parametrize("rows_per_block", [1, 7])
    def test_chunked_rows_match_one_block(self, monkeypatch, rows_per_block):
        # integer features keep every Gram entry exact whichever BLAS kernel
        # a block shape selects, so any chunking must give the same bits
        rng = np.random.default_rng(13)
        n = 150
        x = rng.integers(-20, 20, size=(n, 5)).astype(np.float64)
        x[40] = x[41]  # a duplicate pair, each other's nearest neighbour
        assign = rng.integers(0, 4, size=n)
        assign[[40, 41]] = 1
        assign[0] = 9  # a singleton cluster, which scores 0
        monkeypatch.setattr(cluster_core, "ROUTE_BLOCK_ELEMENTS", n * n)
        want = silhouette(x, assign)
        monkeypatch.setattr(cluster_core, "ROUTE_BLOCK_ELEMENTS", rows_per_block * n)
        assert silhouette(x, assign) == want
        assert want == pytest.approx(difference_form_silhouette(x, assign), abs=1e-12)

    def test_chunked_rows_on_real_valued_features(self, monkeypatch):
        # on real-valued features block shapes may round Gram entries
        # differently in the last bit; the score must still agree closely
        rng = np.random.default_rng(14)
        n = 150
        x = rng.normal(size=(n, 5))
        assign = rng.integers(0, 4, size=n)
        monkeypatch.setattr(cluster_core, "ROUTE_BLOCK_ELEMENTS", n * n)
        want = silhouette(x, assign)
        monkeypatch.setattr(cluster_core, "ROUTE_BLOCK_ELEMENTS", 7 * n)
        assert silhouette(x, assign) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("rows_per_block", [1, 7, 150])
    def test_several_assignments_equal_separate_calls(self, monkeypatch, rows_per_block):
        rng = np.random.default_rng(19)
        n = 150
        x = rng.normal(size=(n, 6))
        stack = rng.integers(0, 4, size=(3, n))
        stack[1, 0] = 9  # a singleton cluster
        stack[2] = np.arange(n) % 2
        monkeypatch.setattr(cluster_core, "ROUTE_BLOCK_ELEMENTS", rows_per_block * n)
        want = [silhouette(x, assign) for assign in stack]
        assert silhouette(x, stack) == want
        assert silhouette(x, list(stack[:2])) == want[:2]

    def test_own_distance_contributes_exactly_zero(self):
        # the expanded form leaves a row's distance to itself at the square root
        # of its roundoff, about 1e-8 of the row's norm, and a(i) counted it:
        # here that moved the score by about 1e-10
        rng = np.random.default_rng(18)
        assign = np.repeat(np.arange(3), 20)
        x = rng.normal(size=(60, 5)) + 3.0 * rng.normal(size=(3, 5))[assign]
        assert silhouette(x, assign) == pytest.approx(difference_form_silhouette(x, assign),
                                                      abs=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(offset=st.floats(-1e8, 1e8), d=st.integers(1, 12), seed=st.integers(0, 10**6))
    @example(offset=1e8, d=10, seed=0)
    def test_common_offset_cancels(self, offset, d, seed):
        # at 1e8 the shifted features themselves round at about 1e-8
        rng = np.random.default_rng(seed)
        x, blob = three_blobs(rng, 90, d)
        want = silhouette(x, blob)
        shifted = x + offset * rng.uniform(0.5, 1.0, size=d)
        assert silhouette(shifted, blob) == pytest.approx(want, rel=1e-6)

    def test_peak_memory_is_a_few_blocks(self):
        # n and d of a cac_auto training set; one (rows, n) block is 0.5 MB
        rng = np.random.default_rng(20)
        x = rng.normal(size=(2280, 10))
        assign = rng.integers(0, 4, size=2280)
        tracemalloc.start()
        try:
            silhouette(x, assign)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
