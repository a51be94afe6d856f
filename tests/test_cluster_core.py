"""k-means++ seeding, Lloyd iteration, nearest-centroid routing and the silhouette score."""

import numpy as np
import pytest

from cackit import cluster_core
from cackit.cluster_core import kmeanspp_init, lloyd, nearest_centroids, silhouette
from cackit.errors import DimensionMismatch, InfeasibleInit, OneCluster


def blob_pair(n_per=50, gap=10.0, d=2, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_per, d))
    b = rng.normal(size=(n_per, d)) + gap
    return np.vstack([a, b])


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

        got = cluster_core._score_by_route(x, routes, score, np.full(6, np.nan))
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
        dist = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
        scores = []
        for i in range(n):
            own = assign == assign[i]
            if own.sum() == 1:
                scores.append(0.0)
                continue
            a = dist[i, own].sum() / (own.sum() - 1)
            b = min(dist[i, assign == j].mean() for j in set(assign.tolist()) - {assign[i]})
            scores.append((b - a) / max(a, b))
        assert want == pytest.approx(np.mean(scores), abs=1e-12)

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
