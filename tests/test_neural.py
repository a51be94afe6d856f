"""The deep variant: autoencoder, margin head, latent clustering and the
three-stage fit.

The combined-loss gradients are checked against central finite differences
over every parameter; the margin cross-entropy has a closed-form per-point
oracle in the binary case that the sandwich-bound tests reuse.
"""

import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cackit.dataset import LabeledDataset, SplitSpec, SyntheticSpec, make_classification, split
from cackit.cac_engine import CacModel, cac_predict_batch
from cackit.classifiers import constant_classifier
from cackit.cluster_core import kmeanspp_init, lloyd, nearest_centroids
from cackit.errors import (
    DimensionMismatch,
    NotBinary,
    OneClassOnly,
    TrainingDiverged,
    UntrainedModel,
)
from cackit.neural import (
    AmsHead,
    _local_proba,
    _train_local_nets,
    DeepCacModel,
    LatentClusterState,
    ams_bounds,
    ams_forward_backward,
    deepcac_fit,
    deepcac_model_from_json,
    deepcac_model_to_json,
    deepcac_predict,
    deepcac_predict_batch,
    encode,
    init_dense,
    forward_backward,
    init_head,
    init_latent_clusters,
    init_params,
    kmz_fit,
    net_forward,
    pretrain,
    update_assignments,
    update_centroids_online,
)

from conftest import central_difference, rel_err
from oracles import reference_local_proba, reference_train_local_nets


def _unit_rows(rng, n, d):
    v = rng.normal(size=(n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _binary_margin_oracle(z, y, head):
    """Per-point cross-entropy of the two-class margin head, computed from
    the closed form softplus(s*m + s*zhat.(w_other - w_true))."""
    zn = z / np.linalg.norm(z, axis=1, keepdims=True)
    wn = head.weight / np.linalg.norm(head.weight, axis=1, keepdims=True)
    gamma = wn[1] - wn[0]
    proj = zn @ gamma
    side = np.where(np.asarray(y) == 1, -1.0, 1.0)
    t = head.scale * head.margin + head.scale * side * proj
    return np.log1p(np.exp(-np.abs(t))) + np.maximum(t, 0.0)


def _flatten(params, head):
    arrs = (params.encoder.weights + params.encoder.biases
            + params.decoder.weights + params.decoder.biases + [head.weight])
    return np.concatenate([a.ravel() for a in arrs])


def _write_back(params, head, theta):
    arrs = (params.encoder.weights + params.encoder.biases
            + params.decoder.weights + params.decoder.biases + [head.weight])
    pos = 0
    for a in arrs:
        a[...] = theta[pos:pos + a.size].reshape(a.shape)
        pos += a.size


def _grad_vector(grads):
    (ew, eb), (dw, db) = grads["encoder"], grads["decoder"]
    arrs = ew + eb + dw + db + [grads["head"]]
    return np.concatenate([a.ravel() for a in arrs])


def _online_loop(state, z, indices):
    """The streaming centroid rule one point at a time in batch order: the
    reference that the closed-form batch update is held to."""
    for row, i in enumerate(indices):
        j = int(state.assignments[i])
        state.centroids[j] += (z[row] - state.centroids[j]) / float(state.counts[j])
        state.counts[j] += 1
    return state


def _hidden_preact_margin(params, x):
    """Smallest |pre-activation| on any hidden unit of either net."""
    z, enc_caches = net_forward(params.encoder, x)
    _, dec_caches = net_forward(params.decoder, z)
    vals = [np.abs(c[1]).min() for c in enc_caches[:-1] + dec_caches[:-1]]
    return min(vals)


class TestForwardBackward:
    def setup_case(self, seed, n=12, d=5, hidden=4, latent=3, k=2):
        rng = np.random.default_rng(seed)
        params = init_params(d, hidden, latent, seed=seed)
        head = init_head(2, latent, seed=seed, scale=4.0, margin=0.2)
        x = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n)
        y[:2] = [0, 1]
        assign = rng.integers(0, k, size=n)
        assign[:k] = np.arange(k)
        cent = rng.normal(size=(k, latent))
        return params, head, x, y, assign, cent

    def test_switched_off_terms_leave_plain_autoencoder(self):
        params, head, x, y, assign, cent = self.setup_case(0)
        parts, grads = forward_backward(params, head, x, y, assign, cent,
                                        alpha=0.0, beta=0.0, delta=1.0)
        assert parts.clustering == 0.0
        assert parts.margin_weighted == 0.0
        assert parts.total == parts.reconstruction

        from cackit.neural import net_backward
        z, enc_caches = net_forward(params.encoder, x)
        x_hat, dec_caches = net_forward(params.decoder, z)
        resid = x_hat - x
        dec_grads, dz = net_backward(params.decoder, dec_caches, 2.0 * resid)
        enc_grads, _ = net_backward(params.encoder, enc_caches, dz)
        assert parts.reconstruction == pytest.approx(float((resid ** 2).sum()), rel=1e-12)
        for got, want in zip(grads["encoder"][0], enc_grads[0]):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for got, want in zip(grads["decoder"][0], dec_grads[0]):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_zero_scale_head_costs_log_two_per_point(self):
        params, head, x, y, assign, cent = self.setup_case(1)
        head.scale = 0.0
        parts, _ = forward_backward(params, head, x, y, assign, cent,
                                    alpha=1.0, beta=0.0, delta=1.0)
        assert parts.margin_raw == pytest.approx(x.shape[0] * math.log(2.0), rel=1e-12)

    def test_cluster_term_uses_batch_local_counts(self):
        params, head, x, y, assign, cent = self.setup_case(2, n=4, k=2)
        assign = np.array([0, 0, 0, 1])
        beta, delta = 3.0, 1.0
        parts, _ = forward_backward(params, head, x, y, assign, cent,
                                    alpha=0.0, beta=beta, delta=delta)
        z = encode(params, x)
        want = 0.0
        for i in range(4):
            n_j = 3.0 if assign[i] == 0 else 1.0
            diff = z[i] - cent[assign[i]]
            want += beta * float(diff @ diff) / (n_j - 1.0 + delta)
        assert parts.clustering == pytest.approx(want, rel=1e-12)

    def test_singleton_cluster_penalty_is_bounded(self):
        params, head, x, y, assign, cent = self.setup_case(3, n=5, k=5)
        assign = np.arange(5)
        beta = 7.0
        parts, _ = forward_backward(params, head, x, y, assign, cent,
                                    alpha=0.0, beta=beta, delta=1.0)
        z = encode(params, x)
        cap = beta * max(float((z[i] - cent[assign[i]]) @ (z[i] - cent[assign[i]]))
                         for i in range(5))
        assert parts.clustering <= 5 * cap + 1e-12

    def test_gradients_match_finite_differences(self):
        checked = 0
        seed = 0
        while checked < 5:
            seed += 1
            params, head, x, y, assign, cent = self.setup_case(seed)
            if _hidden_preact_margin(params, x) < 1e-4:
                continue
            alpha, beta, delta = 2.0, 3.0, 1.0

            def total(theta):
                p2, h2 = params.copy(), head.copy()
                _write_back(p2, h2, theta)
                parts, _ = forward_backward(p2, h2, x, y, assign, cent,
                                            alpha, beta, delta)
                return parts.total

            theta0 = _flatten(params, head)
            _, grads = forward_backward(params, head, x, y, assign, cent,
                                        alpha, beta, delta)
            fd = central_difference(total, theta0, h=1e-6)
            assert rel_err(_grad_vector(grads), fd) < 1e-4
            checked += 1

    def test_two_calls_return_independent_grads(self):
        params, head, x, y, assign, cent = self.setup_case(5)
        _, first = forward_backward(params, head, x, y, assign, cent, 2.0, 3.0, 1.0)
        kept = _grad_vector(first)
        _, second = forward_backward(params, head, x[::-1].copy(), y[::-1].copy(), assign,
                                     cent, 2.0, 3.0, 1.0)
        assert _grad_vector(first).tobytes() == kept.tobytes()
        assert not np.shares_memory(first["head"], second["head"])
        assert not (_grad_vector(second) == kept).all()

    def test_shape_mismatches_rejected(self):
        params, head, x, y, assign, cent = self.setup_case(4)
        with pytest.raises(DimensionMismatch, match="must agree on the batch size"):
            forward_backward(params, head, x, y[:-1], assign, cent, 1.0, 1.0, 1.0)
        with pytest.raises(DimensionMismatch, match="latent dim 3 vs centroid dim 2"):
            forward_backward(params, head, x, y, assign, cent[:, :-1], 1.0, 1.0, 1.0)


class TestAmsForwardBackward:
    def test_cross_entropy_matches_closed_form(self, rng):
        z = rng.normal(size=(20, 6))
        y = rng.integers(0, 2, size=20)
        y[:2] = [0, 1]
        head = init_head(2, 6, seed=5, scale=10.0, margin=0.3)
        ce, _, _ = ams_forward_backward(head, z, y, np.ones(20))
        np.testing.assert_allclose(ce, _binary_margin_oracle(z, y, head),
                                   rtol=1e-9, atol=1e-12)

    def test_gradients_match_finite_differences(self, rng):
        z0 = rng.normal(size=(8, 4))
        y = rng.integers(0, 2, size=8)
        y[:2] = [0, 1]
        head = init_head(2, 4, seed=6, scale=5.0, margin=0.25)
        weights = rng.uniform(0.2, 2.0, size=8)
        _, dz, dw = ams_forward_backward(head, z0, y, weights)

        def loss_of_z(flat):
            ce, _, _ = ams_forward_backward(head, flat.reshape(8, 4), y, weights)
            return float((weights * ce).sum())

        def loss_of_w(flat):
            h2 = AmsHead(flat.reshape(2, 4), head.scale, head.margin)
            ce, _, _ = ams_forward_backward(h2, z0, y, weights)
            return float((weights * ce).sum())

        assert rel_err(dz.ravel(), central_difference(loss_of_z, z0.ravel(), h=1e-6)) < 1e-6
        assert rel_err(dw.ravel(), central_difference(loss_of_w, head.weight.ravel(), h=1e-6)) < 1e-6

    def test_latent_width_checked(self, rng):
        head = init_head(2, 4, seed=0)
        with pytest.raises(DimensionMismatch, match="latent dim 5 vs head dim 4"):
            ams_forward_backward(head, rng.normal(size=(3, 5)),
                                 np.array([0, 1, 1]), np.ones(3))


class TestAmsBounds:
    def test_zero_scale_zero_margin_collapse(self, rng):
        z = _unit_rows(rng, 12, 5)
        y = np.array([0, 1] * 6)
        head = AmsHead(_unit_rows(rng, 2, 5), scale=0.0, margin=0.0)
        b = ams_bounds(z, y, head)
        assert b.actual == pytest.approx(12 * math.log(2.0), rel=1e-12)
        assert b.lower == pytest.approx(12 * math.log(2.0), rel=1e-12)
        assert b.upper is None

    def test_antipodal_aligned_classes(self):
        w = np.array([[1.0, 0.0], [-1.0, 0.0]])
        head = AmsHead(w, scale=1.0, margin=0.0)
        y = np.array([0, 0, 1, 1, 1])
        z = w[y]
        b = ams_bounds(z, y, head)
        assert b.actual == pytest.approx(5 * math.log(1.0 + math.exp(-2.0)), rel=1e-12)
        assert b.upper is None
        assert b.lower <= b.actual

    def test_bounds_on_random_trials(self, rng):
        upper_seen = 0
        for _ in range(300):
            n = int(rng.integers(4, 30))
            d = int(rng.integers(2, 6))
            z = _unit_rows(rng, n, d)
            y = rng.integers(0, 2, size=n)
            y[:2] = [0, 1]
            head = AmsHead(_unit_rows(rng, 2, d),
                           scale=float(rng.uniform(0.1, 8.0)),
                           margin=float(rng.uniform(0.0, 0.6)))
            b = ams_bounds(z, y, head)
            assert b.lower <= b.actual + 1e-9
            if b.upper is not None:
                upper_seen += 1
                assert b.actual <= b.upper + 1e-9
        assert upper_seen > 0

    def test_upper_bound_present_when_classes_misaligned(self, rng):
        w = _unit_rows(rng, 2, 4)
        head = AmsHead(w, scale=2.0, margin=0.1)
        y = np.array([0, 1, 0, 1])
        z = w[1 - y] * 3.0  # every point sits on the wrong class direction
        b = ams_bounds(z, y, head)
        assert b.upper is not None
        assert b.lower - 1e-9 <= b.actual <= b.upper + 1e-9

    def test_binary_only(self, rng):
        head = init_head(3, 4, seed=1)
        with pytest.raises(NotBinary, match="bounds are defined for the binary head"):
            ams_bounds(rng.normal(size=(5, 4)), np.array([0, 1, 2, 0, 1]), head)
        head2 = init_head(2, 4, seed=1)
        with pytest.raises(OneClassOnly, match="both classes are required"):
            ams_bounds(rng.normal(size=(3, 4)), np.array([1, 1, 1]), head2)


class TestPretrain:
    def toy_ds(self, rng, n=120, d=2):
        feats = rng.normal(size=(n, d)) @ np.array([[2.0, 0.3], [0.3, 0.5]])
        labels = (feats[:, 0] > 0).astype(int)
        return LabeledDataset.from_arrays(feats, labels)

    def test_reconstruction_halves_on_toy_data(self, rng):
        ds = self.toy_ds(rng)
        params = init_params(2, 8, 2, seed=0)
        _, history = pretrain(ds, params, epochs=200, lr=2e-3, seed=0, batch_size=32)
        assert history[-1] <= 0.5 * history[0]

    def test_zero_epochs_change_nothing(self, rng):
        ds = self.toy_ds(rng)
        params = init_params(2, 8, 2, seed=1)
        out, history = pretrain(ds, params, epochs=0, lr=2e-3, seed=0)
        assert history == []
        for a, b in zip(out.encoder.weights, params.encoder.weights):
            np.testing.assert_array_equal(a, b)

    def test_seeded_runs_are_bitwise_identical(self, rng):
        ds = self.toy_ds(rng)
        params = init_params(2, 8, 2, seed=2)
        out1, h1 = pretrain(ds, params, epochs=5, lr=2e-3, seed=3)
        out2, h2 = pretrain(ds, params, epochs=5, lr=2e-3, seed=3)
        assert h1 == h2
        for a, b in zip(out1.encoder.weights, out2.encoder.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(out1.decoder.weights, out2.decoder.weights):
            np.testing.assert_array_equal(a, b)


class TestLatentClusters:
    def embedded(self, rng, n=60, d=4, latent=3):
        feats = rng.normal(size=(n, d))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        ds = LabeledDataset.from_arrays(feats, labels)
        params = init_params(d, 5, latent, seed=7)
        return ds, params

    def test_k_one_centroid_is_latent_mean(self, rng):
        ds, params = self.embedded(rng)
        state = init_latent_clusters(params, ds, 1, seed=0)
        z = encode(params, ds.features)
        np.testing.assert_allclose(state.centroids[0], z.mean(axis=0), rtol=1e-9)
        assert state.counts.tolist() == [ds.n_samples]

    def test_matches_lloyd_composition(self, rng):
        ds, params = self.embedded(rng)
        state = init_latent_clusters(params, ds, 3, seed=4)
        z = encode(params, ds.features)
        km = lloyd(z, kmeanspp_init(z, 3, seed=4))
        np.testing.assert_array_equal(state.assignments, km.assignments)
        np.testing.assert_allclose(state.centroids, km.centroids, rtol=1e-12)

    def test_duplicate_rows_share_assignment(self, rng):
        feats = np.repeat(rng.normal(size=(5, 3)), 4, axis=0)
        labels = np.tile([0, 1, 0, 1], 5)
        ds = LabeledDataset.from_arrays(feats, labels)
        params = init_params(3, 4, 2, seed=0)
        state = init_latent_clusters(params, ds, 2, seed=0)
        for g in range(5):
            block = state.assignments[4 * g: 4 * g + 4]
            assert (block == block[0]).all()

    def test_update_assignments_brute_force(self, rng):
        cents = rng.normal(size=(4, 3))
        state = LatentClusterState(cents.copy(), np.zeros(10, dtype=int),
                                   np.ones(4, dtype=int))
        z = rng.normal(size=(10, 3))
        update_assignments(state, z, np.arange(10))
        for i in range(10):
            want = int(np.argmin(((cents - z[i]) ** 2).sum(axis=1)))
            assert state.assignments[i] == want

    def test_update_assignments_trivials(self):
        cents = np.array([[-1.0, 0.0], [1.0, 0.0]])
        state = LatentClusterState(cents.copy(), np.zeros(2, dtype=int),
                                   np.ones(2, dtype=int))
        z = np.array([[1.0, 0.0], [0.0, 5.0]])  # exact centroid 1; equidistant
        update_assignments(state, z, np.array([0, 1]))
        assert state.assignments.tolist() == [1, 0]

    def test_centroid_update_trivials(self):
        cents = np.array([[2.0, 2.0], [5.0, 5.0]])
        state = LatentClusterState(cents.copy(), np.array([0, 1]),
                                   np.array([4, 1]))
        update_centroids_online(state, np.array([[2.0, 2.0]]), np.array([0]))
        np.testing.assert_array_equal(state.centroids[0], [2.0, 2.0])
        assert state.counts[0] == 5
        np.testing.assert_array_equal(state.centroids[1], [5.0, 5.0])
        update_centroids_online(state, np.array([[9.0, 1.0]]), np.array([1]))
        np.testing.assert_array_equal(state.centroids[1], [9.0, 1.0])
        assert state.counts[1] == 2

    def test_streaming_update_tracks_running_mean(self, rng):
        state = LatentClusterState(np.array([[10.0, -10.0]]),
                                   np.zeros(1000, dtype=int),
                                   np.ones(1, dtype=int))
        target = np.array([1.0, 2.0])
        draws = target + rng.normal(size=(1000, 2))
        d_start = np.linalg.norm(state.centroids[0] - target)
        for i in range(1000):
            update_centroids_online(state, draws[i][None, :], np.array([i]))
        d_end = np.linalg.norm(state.centroids[0] - target)
        assert d_end < d_start
        assert d_end < 0.2


class TestClosedFormCentroidUpdate:
    @settings(max_examples=150, deadline=None)
    @given(sizes=st.lists(st.integers(0, 7), min_size=1, max_size=6),
           counts=st.lists(st.one_of(st.integers(1, 3), st.integers(1, 10**6)),
                           min_size=6, max_size=6),
           d=st.integers(1, 5), scale_exp=st.integers(-32, 32), offset=st.floats(-3.0, 3.0),
           seed=st.integers(0, 10**6))
    @example(sizes=[0], counts=[1] * 6, d=2, scale_exp=0, offset=0.0, seed=0)  # empty batch
    @example(sizes=[1, 0, 1, 5], counts=[1, 1, 7, 1, 1, 1], d=3, scale_exp=24, offset=2.0, seed=1)
    def test_matches_the_per_point_loop(self, sizes, counts, d, scale_exp, offset, seed):
        rng = np.random.default_rng(seed)
        k = len(sizes)
        scale = 2.0 ** scale_exp
        centroids = scale * (rng.normal(size=(k, d)) + offset)
        n_rows = sum(sizes)
        # batch rows sit among other rows whose assignments the update must ignore
        indices = rng.permutation(n_rows + 5)[:n_rows]
        assignments = rng.integers(0, k, n_rows + 5)
        assignments[indices] = rng.permutation(np.repeat(np.arange(k), sizes))
        z = scale * (rng.normal(size=(n_rows, d)) + offset)

        def fresh():
            return LatentClusterState(centroids.copy(), assignments.copy(),
                                      np.array(counts[:k], dtype=np.int64))

        got = update_centroids_online(fresh(), z, indices)
        want = _online_loop(fresh(), z, indices)
        magnitude = max(np.abs(centroids).max(), np.abs(z).max(initial=0.0))
        assert np.abs(got.centroids - want.centroids).max() <= 1e-12 * magnitude
        np.testing.assert_array_equal(got.counts, want.counts)
        np.testing.assert_array_equal(got.assignments, assignments)
        for j in range(k):
            if sizes[j] == 0:
                assert got.centroids[j].tobytes() == centroids[j].tobytes()
            elif sizes[j] == 1 and counts[j] == 1:
                row = int(np.flatnonzero(assignments[indices] == j)[0])
                assert got.centroids[j].tobytes() == z[row].tobytes()

    def test_idle_clusters_keep_their_bits_and_a_lone_point_lands_exactly(self):
        # values where the per-point rule, c + (z - c) / 1, loses the point to roundoff
        cents = np.array([[1e20, -3.0], [0.1, 0.2], [7.0, 1e-300]])
        state = LatentClusterState(cents.copy(), np.array([0, 2, 0]), np.array([1, 4, 9]))
        z = np.array([[1.0, 0.3]])
        update_centroids_online(state, z, np.array([0]))
        assert state.centroids[0].tobytes() == z[0].tobytes()
        assert state.centroids[1:].tobytes() == cents[1:].tobytes()
        np.testing.assert_array_equal(state.counts, [2, 4, 9])
        assert _online_loop(LatentClusterState(cents.copy(), np.array([0, 2, 0]),
                                               np.array([1, 4, 9])), z, [0]).centroids[0, 0] == 0.0

    def test_batch_shape_must_match(self):
        state = LatentClusterState(np.zeros((2, 3)), np.zeros(4, dtype=np.int64),
                                   np.ones(2, dtype=np.int64))
        with pytest.raises(DimensionMismatch, match=r"batch shape \(2, 2\) vs 2 indices"):
            update_centroids_online(state, np.zeros((2, 2)), np.array([0, 1]))
        with pytest.raises(DimensionMismatch, match=r"batch shape \(3, 3\) vs 2 indices"):
            update_centroids_online(state, np.zeros((3, 3)), np.array([0, 1]))


def small_fit(seed=0, k=2, ics=2.0, n=300, alpha=5.0, beta=20.0, epochs=5,
              fit=deepcac_fit, **kw):
    ds = make_classification(SyntheticSpec(n_samples=n, n_features=6,
                                           n_clusters=2, ics=ics, ocs=2.0,
                                           seed=seed))
    train, val, _ = split(ds, SplitSpec(0.6, 0.2, 0.2, seed=seed))
    kw.setdefault("hidden", 10)
    kw.setdefault("latent", 4)
    kw.setdefault("pretrain_epochs", 15)
    kw.setdefault("local_epochs", 30)
    kw.setdefault("batch_size", 64)
    if fit is deepcac_fit:
        kw.update(alpha=alpha, beta=beta, epochs=epochs)
    return fit(train, val, k, seed=seed, **kw), train, val


class TestDeepCacFit:
    def test_default_hyperparameters(self):
        sig = inspect.signature(deepcac_fit)
        assert sig.parameters["beta"].default == 20.0
        assert sig.parameters["alpha"].default == 5.0
        assert sig.parameters["lr"].default == 2e-3

    def test_k_one_routes_everything_to_the_lone_network(self):
        model, train, _ = small_fit(seed=1, k=1)
        assert model.k == 1
        assert len(model.local_nets) == 1
        from cackit.neural import _softmax
        z = net_forward(model.encoder, train.features)[0]
        want = _softmax(net_forward(model.local_nets[0], z)[0])
        _, probs = deepcac_predict_batch(model, train.features)
        np.testing.assert_allclose(probs, want, rtol=1e-12)

    def test_seeded_fit_is_deterministic(self):
        m1, train, _ = small_fit(seed=2, epochs=3)
        m2, _, _ = small_fit(seed=2, epochs=3)
        assert deepcac_model_to_json(m1) == deepcac_model_to_json(m2)

    def test_class_cosine_drops_with_strong_margin_weight(self):
        drops = 0
        for seed in range(5):
            model, _, _ = small_fit(seed=seed, alpha=50.0, epochs=25,
                                    hidden=16, latent=8)
            pre = model.history["class_cosine_pretrain"]
            post = model.history["class_cosine_final"]
            if post < pre:
                drops += 1
        assert drops >= 3

    def test_clusters_survive_within_bounds(self):
        model, _, _ = small_fit(seed=3, k=3)
        assert 1 <= model.history["clusters_kept"] <= 3
        assert model.k == model.history["clusters_kept"]

    def test_pruning_empty_clusters_reroutes_no_row(self):
        ds = make_classification(SyntheticSpec(400, 4, 2, 1.0, 2.0, seed=3))
        train, val, _ = split(ds, SplitSpec(seed=3))
        params = init_params(4, 8, 3, seed=1)
        z = encode(params, train.features)
        live = np.vstack([z[:3], z[5:6]])
        far = np.full((1, 3), 1e3)
        padded = np.vstack([far, live[:3], -far, live[3:]])

        def train_nets(centroids):
            return _train_local_nets(params.encoder, centroids, z, train.labels, val, 2,
                                     np.random.default_rng(0), 4, 5, 0.05, 32, 3)

        nets, kept, trace = train_nets(padded)
        want_nets, want_kept, want_trace = train_nets(live)
        np.testing.assert_array_equal(kept, live)
        assert trace == want_trace
        for net, want in zip(nets, want_nets, strict=True):
            for a, b in zip(net.weights + net.biases, want.weights + want.biases):
                np.testing.assert_array_equal(a, b)

    def test_kmz_shares_the_pretraining_stage(self):
        deep, _, _ = small_fit(seed=4, epochs=2)
        base, _, _ = small_fit(seed=4, fit=kmz_fit)
        assert base.history["pretrain_recon"] == deep.history["pretrain_recon"]
        assert base.history["class_cosine_pretrain"] == deep.history["class_cosine_pretrain"]
        assert base.history["stage2_loss"] == []
        assert base.alpha == 0.0 and base.beta == 0.0

    @pytest.mark.parametrize("pretrain_epochs,stage", [(50, "pretrain"), (0, "stage-2")])
    def test_diverging_fit_fails_fast(self, pretrain_epochs, stage):
        # lr=5 overflows within two epochs; without the check the fit returned
        # NaN probabilities and a single kept cluster
        ds = make_classification(SyntheticSpec(n_samples=600, n_features=6, n_clusters=2,
                                               ics=2.0, ocs=2.0, seed=0, warp="sin"))
        train, val, _ = split(ds, SplitSpec(0.6, 0.2, 0.2, seed=0))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDiverged) as err:
            deepcac_fit(train, val, 3, lr=5.0, seed=0, pretrain_epochs=pretrain_epochs,
                        local_epochs=30, epochs=5)
        assert (err.value.stage, err.value.epoch) == (stage, 2)
        assert f"{stage} loss is non-finite at epoch 2" in str(err.value)


def _nets_bytes(nets):
    return [a.tobytes() for net in nets for a in net.weights + net.biases]


class TestLockstepLocalNets:
    """Every local net trains and scores in one routed pass, and must give the bits
    of the one-cluster-at-a-time reference in `tests/oracles.py`."""

    def setup_case(self, seed, n=400, k=3, d=5, latent=4):
        ds = make_classification(SyntheticSpec(n, d, 3, 1.0, 2.0, seed=seed, warp="sin"))
        train, val, _ = split(ds, SplitSpec(seed=seed))
        params = init_params(d, 8, latent, seed=seed)
        z = encode(params, train.features)
        centroids = lloyd(z, kmeanspp_init(z, k, seed)).centroids
        return params.encoder, centroids, z, train, val

    def run_both(self, encoder, centroids, z, train, val, **kw):
        args = dict(n_classes=2, hidden=7, epochs=12, lr=0.3, batch_size=32, patience=100)
        args.update(kw)
        got = _train_local_nets(encoder, centroids, z, train.labels, val,
                                rng=np.random.default_rng(5), **args)
        want = reference_train_local_nets(encoder, centroids, z, train.labels, val,
                                          rng=np.random.default_rng(5), **args)
        assert _nets_bytes(got[0]) == _nets_bytes(want[0])
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2] == want[2]
        return got

    def cluster_sizes(self, centroids, z):
        return np.bincount(nearest_centroids(z, centroids), minlength=centroids.shape[0])

    def test_ragged_last_batches(self):
        encoder, centroids, z, train, val = self.setup_case(0, k=4)
        sizes = self.cluster_sizes(centroids, z)
        assert (sizes % 32 != 0).all() and len(set((sizes + 31) // 32)) > 1
        self.run_both(encoder, centroids, z, train, val)

    def test_a_cluster_smaller_than_one_batch(self):
        encoder, centroids, z, train, val = self.setup_case(1)
        sizes = self.cluster_sizes(centroids, z)
        batch_size = int(sizes.min()) + 1
        assert batch_size < sizes.max()
        self.run_both(encoder, centroids, z, train, val, batch_size=batch_size)

    def test_a_pruned_empty_cluster(self):
        encoder, centroids, z, train, val = self.setup_case(2)
        padded = np.vstack([centroids[:1], np.full((1, centroids.shape[1]), 1e3), centroids[1:]])
        _, kept, _ = self.run_both(encoder, padded, z, train, val)
        np.testing.assert_array_equal(kept, centroids)

    def test_early_stop(self):
        encoder, centroids, z, train, val = self.setup_case(3)
        _, _, trace = self.run_both(encoder, centroids, z, train, val, epochs=60, patience=2,
                                    lr=0.05)
        assert len(trace) < 60

    def test_one_cluster_and_three_classes(self):
        encoder, centroids, z, train, _ = self.setup_case(4, k=1)
        labels = np.arange(train.n_samples) % 3
        train3 = LabeledDataset.from_arrays(train.features, labels)
        val3 = LabeledDataset.from_arrays(train.features[:50], labels[:50])
        self.run_both(encoder, centroids, z, train3, val3, n_classes=3)

    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(1, 6), n=st.integers(1, 200), one_cluster=st.booleans(),
           seed=st.integers(0, 10**6))
    @example(k=3, n=1, one_cluster=False, seed=0)
    @example(k=4, n=90, one_cluster=True, seed=1)
    @example(k=5, n=7, one_cluster=False, seed=2)
    def test_scores_equal_the_per_cluster_reference(self, k, n, one_cluster, seed):
        rng = np.random.default_rng(seed)
        sizes = [int(rng.integers(1, 9)), int(rng.integers(1, 33)), int(rng.integers(2, 4))]
        nets = [init_dense(sizes, rng) for _ in range(k)]
        for net in nets:  # biases of their own, so that a bias added to the wrong rows shows
            for b in net.biases:
                b += rng.normal(size=b.shape)
        z = 3.0 * rng.normal(size=(n, sizes[0]))
        routes = (np.full(n, int(rng.integers(0, k))) if one_cluster
                  else rng.integers(0, k, size=n))  # some clusters absent at small n
        got = _local_proba(nets, z, routes)
        assert got.tobytes() == reference_local_proba(nets, z, routes, sizes[-1]).tobytes()


class TestPredict:
    def test_probabilities_sum_to_one(self):
        model, train, _ = small_fit(seed=5, k=2, epochs=2)
        _, probs = deepcac_predict_batch(model, train.features)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_routing_matches_brute_force(self):
        model, train, _ = small_fit(seed=6, k=3, epochs=2)
        z = net_forward(model.encoder, train.features)[0]
        routes = nearest_centroids(z, model.centroids)
        for i in range(0, train.n_samples, 7):
            want = int(np.argmin(((model.centroids - z[i]) ** 2).sum(axis=1)))
            assert routes[i] == want

    def test_single_matches_batch(self):
        model, train, _ = small_fit(seed=7, epochs=2)
        labels, probs = deepcac_predict_batch(model, train.features[:6])
        for i in range(6):
            lab, p = deepcac_predict(model, train.features[i])
            assert lab == labels[i]
            np.testing.assert_allclose(p, probs[i], rtol=1e-12, atol=1e-15)

    def test_one_dimensional_batch_rejected(self):
        deep, train, _ = small_fit(seed=10, epochs=1)
        d = train.n_features
        cac = CacModel(np.zeros((2, d)), [constant_classifier(0)] * 2, 0.5, [0.0])
        with pytest.raises(DimensionMismatch):
            cac_predict_batch(cac, np.zeros(d))
        with pytest.raises(DimensionMismatch, match=r"input shape \(6,\) vs layer dim 6"):
            deepcac_predict_batch(deep, np.zeros(d))

    def test_untrained_model_rejected(self):
        model, _, _ = small_fit(seed=8, epochs=2)
        bare = DeepCacModel(model.encoder, model.centroids, [], model.alpha,
                            model.beta, model.delta, model.head, model.n_classes)
        with pytest.raises(UntrainedModel):
            deepcac_predict(bare, np.zeros(6))


class TestSerialization:
    def test_json_round_trip(self):
        model, train, _ = small_fit(seed=9, epochs=2)
        text = deepcac_model_to_json(model)
        back = deepcac_model_from_json(text)
        assert deepcac_model_to_json(back) == text
        l1, p1 = deepcac_predict_batch(model, train.features)
        l2, p2 = deepcac_predict_batch(back, train.features)
        np.testing.assert_array_equal(l1, l2)
        np.testing.assert_array_equal(p1, p2)
