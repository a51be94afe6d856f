"""Ranking metrics, F1 variants and the serializable evaluation report."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cackit.errors import NoPositives, OneClassOnly
from cackit.metrics import (
    auc,
    auprc,
    confusion,
    evaluate_binary,
    evaluate_multiclass,
    f1,
    macro_auprc,
)

# scores on a coarse grid so affine transforms cannot merge distinct values
# through float rounding
score_label_sets = st.lists(
    st.tuples(st.integers(0, 1000).map(lambda v: v / 1000.0), st.integers(0, 1)),
    min_size=4, max_size=60,
).filter(lambda rows: len({y for _, y in rows}) == 2)


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties_give_half(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_hand_enumerated_pairs(self):
        # pairs (pos, neg): (0.35, 0.1) win, (0.35, 0.4) loss,
        # (0.8, 0.1) win, (0.8, 0.4) win -> 3/4
        assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_one_class_rejected(self):
        with pytest.raises(OneClassOnly):
            auc([0.1, 0.9], [1, 1])

    @given(score_label_sets)
    @settings(max_examples=60, deadline=None)
    def test_invariant_to_monotone_transform(self, rows):
        scores = np.array([s for s, _ in rows])
        labels = np.array([y for _, y in rows])
        stretched = 3.0 * scores + 1.0
        assert auc(scores, labels) == pytest.approx(auc(stretched, labels), abs=1e-12)

    @given(score_label_sets, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariant(self, rows, rnd):
        rnd.shuffle(rows)
        scores = np.array([s for s, _ in rows])
        labels = np.array([y for _, y in rows])
        base = sorted(rows)
        assert auc(scores, labels) == pytest.approx(
            auc([s for s, _ in base], [y for _, y in base]), abs=1e-12)

    def test_label_flip_complements_for_tie_free_scores(self):
        rng = np.random.default_rng(0)
        scores = rng.permutation(20) / 20.0  # all distinct
        labels = rng.integers(0, 2, size=20)
        labels[:2] = [0, 1]
        assert auc(scores, labels) == pytest.approx(1.0 - auc(scores, 1 - labels), abs=1e-12)


class TestAuprc:
    def test_perfect_ranking(self):
        assert auprc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_hand_enumeration(self):
        # precision at the two positives: 1/1 and 2/3; AP = mean = 5/6
        assert auprc([0.9, 0.8, 0.7], [1, 0, 1]) == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_random_scores_approach_positive_rate(self):
        vals = []
        p = 0.3
        for seed in range(5):
            rng = np.random.default_rng(seed)
            labels = (rng.random(10000) < p).astype(int)
            vals.append(auprc(rng.random(10000), labels))
        assert abs(np.mean(vals) - p) < 0.05

    def test_no_positives_rejected(self):
        with pytest.raises(NoPositives):
            auprc([0.5, 0.6], [0, 0])

    @given(score_label_sets, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariant(self, rows, rnd):
        base = sorted(rows)
        rnd.shuffle(rows)
        a = auprc([s for s, _ in rows], [y for _, y in rows])
        b = auprc([s for s, _ in base], [y for _, y in base])
        assert a == pytest.approx(b, abs=1e-12)

    def test_tied_scores_enter_together(self):
        # both orderings of the tied block must give the same value
        a = auprc([0.9, 0.5, 0.5, 0.1], [1, 1, 0, 0])
        b = auprc([0.9, 0.5, 0.5, 0.1], [1, 0, 1, 0])
        assert a == b


class TestF1:
    def test_equal_predictions_perfect(self):
        assert f1([1, 0, 1, 0], [1, 0, 1, 0]) == 1.0

    def test_no_predicted_positives_scores_zero(self):
        assert f1([0, 0, 0], [1, 1, 0]) == 0.0

    def test_hand_count(self):
        assert f1([1, 1, 0, 0], [1, 0, 1, 0]) == 0.5

    def test_macro_over_three_classes(self):
        pred = [0, 1, 2, 2, 1, 0]
        labels = [0, 1, 2, 2, 0, 1]
        per_class = []
        for c in range(3):
            p = np.asarray(pred) == c
            y = np.asarray(labels) == c
            tp = (p & y).sum()
            prec = tp / p.sum() if p.sum() else 0.0
            rec = tp / y.sum() if y.sum() else 0.0
            per_class.append(0.0 if prec + rec == 0 else 2 * prec * rec / (prec + rec))
        assert f1(pred, labels, n_classes=3) == pytest.approx(np.mean(per_class))


def test_confusion_counts_sum_to_n():
    pred = [0, 1, 1, 0, 1]
    labels = [0, 1, 0, 0, 1]
    m = confusion(pred, labels, 2)
    assert m.sum() == 5
    assert m[0, 0] == 2 and m[0, 1] == 1 and m[1, 1] == 2


class TestEvalReport:
    def test_threshold_half_rule(self):
        report = evaluate_binary([0.5, 0.49, 0.9, 0.1], [1, 0, 1, 0])
        # 0.5 rounds up to the positive label
        assert report.f1 == 1.0

    def test_json_round_trip(self):
        report = evaluate_binary([0.9, 0.2, 0.7, 0.4], [1, 0, 1, 0], silhouette=0.5)
        assert json.loads(json.dumps(report.to_dict())) == report.to_dict()

    def test_counts_sum_to_n_test(self):
        report = evaluate_binary([0.9, 0.2, 0.7, 0.4, 0.6], [1, 0, 1, 0, 0])
        assert sum(report.support) == report.n_test == 5
        assert int(np.sum(report.confusion)) == 5


def test_macro_auprc_averages_one_vs_rest():
    proba = np.array([
        [0.8, 0.1, 0.1],
        [0.2, 0.6, 0.2],
        [0.1, 0.2, 0.7],
        [0.5, 0.3, 0.2],
    ])
    labels = np.array([0, 1, 2, 0])
    per = [auprc(proba[:, c], (labels == c).astype(int)) for c in range(3)]
    assert macro_auprc(proba, labels, 3) == pytest.approx(np.mean(per))


# --- per-group loops kept as references for the vectorized metrics ----------

def _loop_ranks(scores):
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    ranks = np.empty(scores.size, dtype=np.float64)
    start = 0
    for stop in range(1, scores.size + 1):
        if stop == scores.size or sorted_scores[stop] != sorted_scores[start]:
            ranks[order[start:stop]] = 0.5 * (start + stop + 1)
            start = stop
    return ranks


def _loop_auc(s, y):
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    pos_rank_sum = _loop_ranks(s)[y == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _loop_auprc(s, y):
    n_pos = int((y == 1).sum())
    order = np.argsort(-s, kind="mergesort")
    s_sorted = s[order]
    y_sorted = y[order]
    ap = 0.0
    tp = fp = 0
    prev_tp = 0
    start = 0
    for stop in range(1, s.size + 1):
        if stop == s.size or s_sorted[stop] != s_sorted[start]:
            group = y_sorted[start:stop]
            tp += int((group == 1).sum())
            fp += int((group == 0).sum())
            precision = tp / (tp + fp)
            ap += precision * (tp - prev_tp) / n_pos
            prev_tp = tp
            start = stop
    return float(ap)


def _loop_f1(pred, y, n_classes):
    def one(c):
        tp = int(((pred == c) & (y == c)).sum())
        fp = int(((pred == c) & (y != c)).sum())
        fn = int(((pred != c) & (y == c)).sum())
        denom = 2 * tp + fp + fn
        return 0.0 if denom == 0 else 2.0 * tp / denom
    if n_classes == 2:
        return one(1)
    return float(np.mean([one(c) for c in range(n_classes)]))


def _score_cases():
    cases = [
        (np.full(6, 0.3), np.array([0, 1, 0, 1, 1, 0])),  # all tied
        (np.array([0.2, 0.9, 0.4, 0.4, 0.1]), np.array([0, 0, 1, 0, 0])),  # one positive
        (np.array([0.7]), np.array([1])),  # n = 1
        (np.array([0.0, -0.0, 0.0, -0.0, 0.5]), np.array([1, 0, 0, 1, 1])),  # signed zeros tie
    ]
    rng = np.random.default_rng(6)
    for i in range(400):
        n = int(rng.integers(1, 300))
        s = rng.normal(size=n)
        if i % 3 == 1:
            s = np.round(s, 1)
        elif i % 3 == 2:
            s = rng.choice([-0.0, 0.0, 0.5, 1.0], size=n)
        y = (rng.random(n) < rng.uniform(0.02, 0.98)).astype(np.int64)
        cases.append((s, y))
    return cases


def test_binary_metrics_match_the_group_loops_bit_for_bit():
    for s, y in _score_cases():
        pred = (s >= 0.5).astype(np.int64)
        assert f1(pred, y) == _loop_f1(pred, y, 2)
        if y.any():
            # the in-order sum matters: a pairwise sum differs in the last bits
            assert auprc(s, y) == _loop_auprc(s, y)
        if 0 < y.sum() < y.size:
            assert auc(s, y) == _loop_auc(s, y)
            report = evaluate_binary(s, y)
            assert report.f1 == _loop_f1(pred, y, 2)
            assert report.support == [int((y == c).sum()) for c in (0, 1)]


def test_macro_f1_and_support_match_the_mask_counts():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 80))
        n_classes = int(rng.integers(2, 6))
        pred = rng.integers(0, n_classes, size=n)
        y = rng.integers(0, n_classes, size=n)
        assert f1(pred, y, n_classes) == _loop_f1(pred, y, n_classes)
    proba = np.round(rng.random((60, 3)), 1)
    y = rng.integers(0, 3, size=60)
    report = evaluate_multiclass(proba, y, 3)
    assert report.f1 == _loop_f1(proba.argmax(axis=1), y, 3)
    assert report.support == [int((y == c).sum()) for c in range(3)]
