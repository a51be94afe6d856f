"""Acceptance suite: fourteen numbered criteria covering oracle equivalence,
descent and scaling behavior, both loss-bound theorems, gradient exactness,
synthetic benchmark trends, the neural variant's separation mechanism, CLI
reproducibility and the silhouette trade-off.

Each test appends one `criterion NN PASS/FAIL` line to the session log that
pytest prints in its terminal summary, then asserts. Tolerances and runtime
budgets are part of each criterion.
"""

import filecmp
import json
import math
import time
from pathlib import Path

import numpy as np
import yaml

from cackit.cac_engine import ClusterState, cac_fit, apply_move, total_cost
from cackit.classifiers import ClassifierSpec, logloss_bounds, train_logreg
from cackit.cli import main as cli_main
from cackit.cluster_core import silhouette
from cackit.config import validate_config
from cackit.dataset import SplitSpec, SyntheticSpec, make_classification, split
from cackit.experiments import run_baseline, run_fit_cac
from cackit.neural import (
    AmsHead,
    ams_bounds,
    deepcac_fit,
    forward_backward,
    init_head,
    init_params,
    kmz_fit,
    net_forward,
    deepcac_predict_batch,
)
from cackit.metrics import auprc

from conftest import (
    central_difference,
    gamma_minus_oracle,
    gamma_plus_oracle,
    random_instance,
    rel_err,
    total_score_oracle,
)
from oracles import merge_cost_change, move_cost_change, removal_cost_change


def _record(log, num, ok, detail):
    log.append(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"


def _ranks(values):
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size)
    i = 0
    sorted_v = v[order]
    while i < v.size:
        j = i
        while j + 1 < v.size and sorted_v[j + 1] == sorted_v[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _spearman(x, y):
    rx, ry = _ranks(x), _ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx @ ry) / math.sqrt((rx @ rx) * (ry @ ry)))


def _cac_config(**overrides):
    raw = {
        "dataset": {"synthetic": {"n_samples": 2000, "n_features": 10,
                                  "n_clusters": 2, "ics": 1.0, "ocs": 2.0,
                                  "seed": 0}},
        "model": {"k": 2, "alpha": "auto"},
    }
    for key, value in overrides.items():
        node = raw
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return validate_config(raw)


def _trend_dataset(seed, ics=1.0, ocs=2.0, n_clusters=2, n=2000, d=10, warp="none"):
    ds = make_classification(SyntheticSpec(n_samples=n, n_features=d,
                                           n_clusters=n_clusters, ics=ics,
                                           ocs=ocs, seed=seed, warp=warp))
    return split(ds, SplitSpec(seed=seed))


class TestOracleEquivalence:
    def test_criterion_01_incremental_matches_scratch(self, acceptance_log, rng):
        start = time.perf_counter()
        worst = 0.0
        trials = 500
        for _ in range(trials):
            ds, assign, k = random_instance(rng, max_n=300, max_d=20, max_k=5)
            alpha = float(rng.uniform(0.0, 3.0))
            state = ClusterState.from_assignments(ds, assign, k, alpha)
            i = int(rng.integers(ds.n_samples))
            p = int(assign[i])
            q = int(rng.choice([j for j in range(k) if j != p]))

            members_q = assign == q
            gp = merge_cost_change(state, ds, q, i)
            want_gp = gamma_plus_oracle(ds.features[members_q], ds.labels[members_q],
                                        ds.features[i], int(ds.labels[i]), alpha)
            members_p = assign == p
            idx_in_p = int(np.flatnonzero(np.flatnonzero(members_p) == i)[0])
            gm = removal_cost_change(state, ds, p, i)
            want_gm = gamma_minus_oracle(ds.features[members_p], ds.labels[members_p],
                                         idx_in_p, alpha)
            phi = move_cost_change(state, ds, i, p, q)
            before = total_score_oracle(ds.features, ds.labels, assign, k, alpha)
            moved = assign.copy()
            moved[i] = q
            after = total_score_oracle(ds.features, ds.labels, moved, k, alpha)

            apply_move(state, ds, i, p, q)
            fresh = ClusterState.from_assignments(ds, moved, k, alpha)
            worst = max(worst,
                        rel_err(gp, want_gp),
                        rel_err(gm, want_gm),
                        rel_err(phi, after - before),
                        rel_err(state.centroids, fresh.centroids),
                        rel_err(state.class_centroids[1], fresh.class_centroids[1]),
                        rel_err(state.class_centroids[0], fresh.class_centroids[0]))
        elapsed = time.perf_counter() - start
        ok = worst < 1e-8 and elapsed < 30.0
        _record(acceptance_log, 1, ok,
                f"move arithmetic vs scratch oracles, {trials} trials, "
                f"max rel err {worst:.2e}, {elapsed:.1f}s")


class TestMonotoneDescent:
    def test_criterion_02_every_move_strictly_decreases_cost(self, acceptance_log):
        start = time.perf_counter()
        violations = 0
        total_moves = 0
        for seed in range(50):
            ds = make_classification(SyntheticSpec(
                n_samples=300, n_features=6, n_clusters=2,
                ics=float(seed % 3), ocs=1.0 + (seed % 2), seed=seed))
            k = 2 + seed % 3
            alpha = (0.1, 0.5, 2.5)[seed % 3]
            costs = []

            def watch(state, i, p, q, delta):
                costs.append(total_cost(state, ds))

            run = cac_fit(ds, k, alpha, seed=seed, on_move=watch)
            seq = [run.cost_trace[0]] + costs
            total_moves += len(costs)
            violations += sum(1 for a, b in zip(seq, seq[1:]) if not b < a)
        elapsed = time.perf_counter() - start
        ok = violations == 0 and elapsed < 60.0
        _record(acceptance_log, 2, ok,
                f"monotone descent, 50 runs, {total_moves} moves, "
                f"{violations} violations, {elapsed:.1f}s")


class TestComplexityScaling:
    def _slope(self, xs, ops):
        return float(np.polyfit(np.log(np.asarray(xs, float)),
                                np.log(np.asarray(ops, float)), 1)[0])

    def test_criterion_03_per_round_ops_scale_linearly(self, acceptance_log):
        start = time.perf_counter()

        def ops_for(n, d, k):
            ds = make_classification(SyntheticSpec(n_samples=n, n_features=d,
                                                   n_clusters=2, ics=1.0,
                                                   ocs=2.0, seed=11))
            run = cac_fit(ds, k, 0.5, max_rounds=1, seed=11)
            return run.ops_per_round[0]

        n_grid = [1000, 2000, 4000, 8000]
        d_grid = [8, 16, 32, 64]
        k_grid = [2, 4, 8, 16]
        slope_n = self._slope(n_grid, [ops_for(n, 8, 2) for n in n_grid])
        slope_d = self._slope(d_grid, [ops_for(1000, d, 2) for d in d_grid])
        slope_k = self._slope(k_grid, [ops_for(1000, 8, k) for k in k_grid])
        elapsed = time.perf_counter() - start
        ok = all(0.8 <= s <= 1.2 for s in (slope_n, slope_d, slope_k)) and elapsed < 300.0
        _record(acceptance_log, 3, ok,
                f"per-round op scaling, slopes n={slope_n:.3f} d={slope_d:.3f} "
                f"k={slope_k:.3f}, {elapsed:.1f}s")


class TestLoglossSandwich:
    def test_criterion_04_bounds_hold_on_random_and_fitted_weights(self, acceptance_log, rng):
        start = time.perf_counter()
        violations = 0
        for _ in range(1000):
            n = int(rng.integers(4, 60))
            d = int(rng.integers(1, 10))
            feats = rng.normal(size=(n, d)) * rng.uniform(0.1, 4.0)
            labels = rng.integers(0, 2, size=n)
            labels[:2] = [0, 1]
            beta = rng.normal(size=d) * rng.uniform(0.1, 4.0)
            lower, upper, actual = logloss_bounds(feats, labels, beta)
            if not (lower - 1e-9 <= actual <= upper + 1e-9):
                violations += 1
        for seed in range(5):
            ds = make_classification(SyntheticSpec(n_samples=300, n_features=6,
                                                   n_clusters=2, ics=2.0,
                                                   ocs=1.0, seed=seed))
            clf = train_logreg(ds.features, ds.labels, ClassifierSpec(kind="logreg"))
            xa = np.hstack([ds.features, np.ones((ds.n_samples, 1))])
            lower, upper, actual = logloss_bounds(xa, ds.labels, clf.weights)
            if not (lower - 1e-9 <= actual <= upper + 1e-9):
                violations += 1
        elapsed = time.perf_counter() - start
        ok = violations == 0 and elapsed < 30.0
        _record(acceptance_log, 4, ok,
                f"log-loss sandwich, 1000 random + 5 fitted trials, "
                f"{violations} violations, {elapsed:.1f}s")


class TestMarginBounds:
    def test_criterion_05_bounds_hold_on_random_heads(self, acceptance_log, rng):
        start = time.perf_counter()
        lower_violations = 0
        upper_violations = 0
        upper_present = 0
        for _ in range(1000):
            n = int(rng.integers(4, 40))
            d = int(rng.integers(2, 8))
            z = rng.normal(size=(n, d))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            w = rng.normal(size=(2, d))
            w /= np.linalg.norm(w, axis=1, keepdims=True)
            y = rng.integers(0, 2, size=n)
            y[:2] = [0, 1]
            head = AmsHead(w, scale=float(rng.uniform(0.1, 10.0)),
                           margin=float(rng.uniform(0.0, 0.6)))
            b = ams_bounds(z, y, head)
            if b.lower > b.actual + 1e-9:
                lower_violations += 1
            if b.upper is not None:
                upper_present += 1
                if b.actual > b.upper + 1e-9:
                    upper_violations += 1
        elapsed = time.perf_counter() - start
        ok = (lower_violations == 0 and upper_violations == 0
              and upper_present > 0 and elapsed < 30.0)
        _record(acceptance_log, 5, ok,
                f"margin-loss bounds, 1000 trials ({upper_present} with upper), "
                f"{lower_violations}+{upper_violations} violations, {elapsed:.1f}s")


class TestGradientExactness:
    def test_criterion_06_combined_loss_gradient_vs_finite_differences(self, acceptance_log):
        """Twenty random draws on a d=8, latent=4 net with a 16-point batch.

        Draws whose hidden pre-activations sit within 1e-4 of a rectifier
        kink are redrawn: the central-difference oracle itself is invalid
        across the kink, not the analytic gradient.
        """
        start = time.perf_counter()
        worst = 0.0
        checked = 0
        seed = 0
        while checked < 20:
            seed += 1
            r = np.random.default_rng(1000 + seed)
            params = init_params(8, 6, 4, seed=1000 + seed)
            head = init_head(2, 4, seed=2000 + seed,
                             scale=float(r.uniform(1.0, 8.0)),
                             margin=float(r.uniform(0.0, 0.5)))
            x = r.normal(size=(16, 8))
            y = r.integers(0, 2, size=16)
            y[:2] = [0, 1]
            assign = r.integers(0, 2, size=16)
            assign[:2] = [0, 1]
            cent = r.normal(size=(2, 4))
            z, enc_caches = net_forward(params.encoder, x)
            _, dec_caches = net_forward(params.decoder, z)
            kink = min(np.abs(c[1]).min() for c in enc_caches[:-1] + dec_caches[:-1])
            if kink < 1e-4:
                continue
            alpha = float(r.uniform(0.5, 4.0))
            beta = float(r.uniform(0.5, 4.0))

            arrays = (params.encoder.weights + params.encoder.biases
                      + params.decoder.weights + params.decoder.biases
                      + [head.weight])
            theta0 = np.concatenate([a.ravel() for a in arrays])

            def total(theta):
                p2, h2 = params.copy(), head.copy()
                arrs = (p2.encoder.weights + p2.encoder.biases
                        + p2.decoder.weights + p2.decoder.biases + [h2.weight])
                pos = 0
                for a in arrs:
                    a[...] = theta[pos:pos + a.size].reshape(a.shape)
                    pos += a.size
                parts, _ = forward_backward(p2, h2, x, y, assign, cent,
                                            alpha, beta, 1.0)
                return parts.total

            _, grads = forward_backward(params, head, x, y, assign, cent,
                                        alpha, beta, 1.0)
            (ew, eb), (dw, db) = grads["encoder"], grads["decoder"]
            grad_vec = np.concatenate([a.ravel() for a in ew + eb + dw + db
                                       + [grads["head"]]])
            fd = central_difference(total, theta0, h=1e-6)
            worst = max(worst, rel_err(grad_vec, fd))
            checked += 1
        elapsed = time.perf_counter() - start
        ok = worst < 1e-4 and elapsed < 60.0
        _record(acceptance_log, 6, ok,
                f"combined-loss gradients vs finite differences, 20 draws, "
                f"max rel err {worst:.2e}, {elapsed:.1f}s")


def _cac_auc(cfg, seed):
    report, _ = run_fit_cac(cfg, seed)
    return report["metrics"]["auc"]


class TestSeparationTrend:
    def test_criterion_07_auc_rises_with_class_separation(self, acceptance_log):
        start = time.perf_counter()
        ics_grid = [0.0, 0.2, 0.5, 1.0, 1.5, 2.0]
        means = []
        for ics in ics_grid:
            cfg = _cac_config(**{"dataset.synthetic.ics": ics})
            means.append(float(np.mean([_cac_auc(cfg, s) for s in range(5)])))
        rho = _spearman(ics_grid, means)
        elapsed = time.perf_counter() - start
        ok = rho >= 0.8 and elapsed < 300.0
        _record(acceptance_log, 7, ok,
                f"AUC vs inner-class separation, means "
                f"{[round(m, 3) for m in means]}, spearman {rho:.2f}, {elapsed:.1f}s")


class TestOuterSeparationFlatness:
    def test_criterion_08_auc_flat_across_cluster_spacing(self, acceptance_log):
        start = time.perf_counter()
        means = []
        for ocs in (1.0, 1.5, 2.0):
            cfg = _cac_config(**{"dataset.synthetic.ocs": ocs})
            means.append(float(np.mean([_cac_auc(cfg, s) for s in range(5)])))
        spread = max(means) - min(means)
        elapsed = time.perf_counter() - start
        ok = spread <= 0.05 and elapsed < 180.0
        _record(acceptance_log, 8, ok,
                f"AUC vs cluster spacing, means {[round(m, 3) for m in means]}, "
                f"spread {spread:.4f}, {elapsed:.1f}s")


class TestClusterBudgetOrdering:
    def test_criterion_09_matching_k_beats_underprovisioned_k(self, acceptance_log):
        start = time.perf_counter()
        means = {}
        for k in (2, 4):
            cfg = _cac_config(**{"dataset.synthetic.n_clusters": 4, "model.k": k})
            means[k] = float(np.mean([_cac_auc(cfg, s) for s in range(5)]))
        elapsed = time.perf_counter() - start
        ok = means[4] > means[2] and elapsed < 180.0
        _record(acceptance_log, 9, ok,
                f"k=4 mean AUC {means[4]:.4f} vs k=2 {means[2]:.4f} "
                f"on 4-cluster data, {elapsed:.1f}s")


class TestVersusClusterThenPredict:
    def test_criterion_10_separation_aware_fit_beats_plain_kmeans(self, acceptance_log):
        start = time.perf_counter()
        cac_cfg = _cac_config(**{"dataset.synthetic.ics": 2.0,
                                 "dataset.synthetic.ocs": 1.0})
        km_cfg = _cac_config(**{"dataset.synthetic.ics": 2.0,
                                "dataset.synthetic.ocs": 1.0,
                                "model.baseline": "km"})
        cac_aucs, km_aucs = [], []
        for seed in range(5):
            cac_aucs.append(_cac_auc(cac_cfg, seed))
            report, _ = run_baseline(km_cfg, seed)
            km_aucs.append(report["metrics"]["auc"])
        wins = sum(1 for a, b in zip(cac_aucs, km_aucs) if a > b)
        mean_cac, mean_km = float(np.mean(cac_aucs)), float(np.mean(km_aucs))
        elapsed = time.perf_counter() - start
        ok = mean_cac >= mean_km - 0.01 and wins >= 3 and elapsed < 180.0
        _record(acceptance_log, 10, ok,
                f"separation-aware {mean_cac:.4f} vs k-means-first {mean_km:.4f}, "
                f"{wins}/5 seed wins, {elapsed:.1f}s")


def _neural_auprc(model, test):
    _, probs = deepcac_predict_batch(model, test.features)
    return auprc(probs[:, 1], test.labels)


class TestDeepVariantVersusPretrainedBaseline:
    def test_criterion_11_joint_training_beats_pretrain_then_cluster(self, acceptance_log):
        start = time.perf_counter()
        deep_scores, base_scores = [], []
        for seed in range(5):
            train, val, test = _trend_dataset(seed, ics=1.0, n_clusters=3,
                                              warp="sin")
            deep = deepcac_fit(train, val, 3, alpha=50.0, beta=20.0, epochs=50,
                               seed=seed, hidden=16, latent=8)
            base = kmz_fit(train, val, 3, seed=seed, hidden=16, latent=8)
            deep_scores.append(_neural_auprc(deep, test))
            base_scores.append(_neural_auprc(base, test))
        mean_deep = float(np.mean(deep_scores))
        mean_base = float(np.mean(base_scores))
        elapsed = time.perf_counter() - start
        ok = mean_deep >= mean_base and elapsed < 1200.0
        _record(acceptance_log, 11, ok,
                f"joint training AUPRC {mean_deep:.4f} vs pretrain-then-cluster "
                f"{mean_base:.4f} on warped 3-cluster data, {elapsed:.1f}s")


class TestSeparationMechanism:
    def test_criterion_12_latent_class_centroids_spread_apart(self, acceptance_log):
        start = time.perf_counter()
        drops = 0
        pairs = []
        for seed in range(5):
            train, val, _ = _trend_dataset(seed, ics=1.0)
            model = deepcac_fit(train, val, 2, alpha=50.0, beta=20.0, epochs=50,
                                seed=seed, hidden=16, latent=8)
            pre = model.history["class_cosine_pretrain"]
            post = model.history["class_cosine_final"]
            pairs.append((round(pre, 3), round(post, 3)))
            if post < pre:
                drops += 1
        elapsed = time.perf_counter() - start
        ok = drops >= 4 and elapsed < 600.0
        _record(acceptance_log, 12, ok,
                f"latent class-centroid cosine fell in {drops}/5 seeds "
                f"(pre, post): {pairs}, {elapsed:.1f}s")


class TestReproducibility:
    def _run_twice(self, tmp_path, name, argv_tail):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}"
            assert cli_main(argv_tail + ["--out", str(out)]) == 0
            outs.append(out)
        return outs

    def _identical_artifacts(self, a: Path, b: Path) -> bool:
        names_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()
                         and p.name != "manifest.json")
        names_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file()
                         and p.name != "manifest.json")
        if names_a != names_b:
            return False
        return all(filecmp.cmp(a / rel, b / rel, shallow=False) for rel in names_a)

    def test_criterion_13_cli_reports_are_byte_identical(self, acceptance_log, tmp_path):
        start = time.perf_counter()
        base_cfg = {
            "dataset": {"synthetic": {"n_samples": 240, "n_features": 4,
                                      "n_clusters": 2, "ics": 1.0, "ocs": 2.0,
                                      "seed": 0}},
            "model": {"k": 2, "alpha": 0.5, "classifier": {"epochs": 100},
                      "deepcac": {"hidden": 8, "latent": 4, "pretrain_epochs": 5,
                                  "epochs": 2, "local_epochs": 10,
                                  "batch_size": 64}},
            "seeds": [0, 1],
        }
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(base_cfg), encoding="utf-8")
        sweep_cfg = dict(base_cfg, sweep={"axes": {"ics": [0.5, 1.0]}},
                         seeds=[0, 1])
        sweep_path = tmp_path / "sweep.yaml"
        sweep_path.write_text(yaml.safe_dump(sweep_cfg), encoding="utf-8")

        checks = []
        for name, argv in (
            ("fit", ["fit-cac", "--config", str(cfg_path)]),
            ("deep", ["fit-deepcac", "--config", str(cfg_path), "--seed", "0"]),
            ("sweep", ["sweep", "--config", str(sweep_path)]),
        ):
            a, b = self._run_twice(tmp_path, name, argv)
            checks.append(self._identical_artifacts(a, b))
        elapsed = time.perf_counter() - start
        ok = all(checks) and elapsed < 120.0
        _record(acceptance_log, 13, ok,
                f"repeated CLI runs byte-identical (fit, deep fit, sweep): "
                f"{checks}, {elapsed:.1f}s")


class TestSilhouetteTradeoff:
    def test_criterion_14_silhouette_does_not_improve_on_init(self, acceptance_log):
        start = time.perf_counter()
        deltas = []
        for seed in range(5):
            ds = make_classification(SyntheticSpec(n_samples=1000, n_features=10,
                                                   n_clusters=2, ics=1.0,
                                                   ocs=2.0, seed=seed))
            run = cac_fit(ds, 2, 0.5, seed=seed)
            before = silhouette(ds.features, run.init_assignments)
            after = silhouette(ds.features, run.state.assignments)
            deltas.append(after - before)
        elapsed = time.perf_counter() - start
        ok = all(d <= 0.02 for d in deltas) and elapsed < 120.0
        _record(acceptance_log, 14, ok,
                f"silhouette change vs k-means init per seed "
                f"{[round(d, 4) for d in deltas]}, {elapsed:.1f}s")
