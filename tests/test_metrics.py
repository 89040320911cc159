"""Accuracy, selection quality, AUROC, and FPR95."""

import numpy as np
import pytest

from noisylab import metrics
from noisylab.errors import ParameterError, ShapeError


class TestAccuracy:
    def test_all_correct(self):
        preds = np.eye(4)
        assert metrics.accuracy(preds, np.arange(4)) == 1.0

    def test_all_wrong(self):
        preds = np.eye(4)
        assert metrics.accuracy(preds, (np.arange(4) + 1) % 4) == 0.0

    def test_matches_brute_force_count(self):
        rng = np.random.default_rng(0)
        preds = rng.normal(size=(500, 7))
        labels = rng.integers(0, 7, size=500)
        correct = sum(1 for i in range(500) if int(np.argmax(preds[i])) == labels[i])
        assert metrics.accuracy(preds, labels) == correct / 500

    def test_tie_breaks_to_lowest_index(self):
        preds = np.array([[1.0, 1.0, 0.0]])
        assert metrics.accuracy(preds, np.array([0])) == 1.0
        assert metrics.accuracy(preds, np.array([1])) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            metrics.accuracy(np.eye(3), np.zeros(2, dtype=int))


class TestSelectionMetrics:
    def test_exact_clean_set_is_perfect(self):
        clean = np.array([True, False, True, True])
        m = metrics.selection_metrics(clean.copy(), clean)
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_empty_selection_flags_precision(self):
        clean = np.array([True, False])
        m = metrics.selection_metrics(np.zeros(2, dtype=bool), clean)
        assert m.precision is None
        assert m.recall == 0.0 and m.f1 == 0.0

    def test_matches_confusion_matrix_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            selected = rng.random(200) < 0.3
            clean = rng.random(200) < 0.6
            m = metrics.selection_metrics(selected, clean)
            tp = sum(1 for i in range(200) if selected[i] and clean[i])
            fp = sum(1 for i in range(200) if selected[i] and not clean[i])
            fn = sum(1 for i in range(200) if not selected[i] and clean[i])
            if tp + fp:
                assert np.isclose(m.precision, tp / (tp + fp))
            if tp + fn:
                assert np.isclose(m.recall, tp / (tp + fn))
            if m.precision and m.precision + m.recall > 0:
                assert np.isclose(m.f1, 2 * m.precision * m.recall / (m.precision + m.recall))


def brute_force_auroc(id_scores, ood_scores):
    wins = 0.0
    for a in id_scores:
        for b in ood_scores:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(id_scores) * len(ood_scores))


class TestAuroc:
    def test_perfect_separation(self):
        assert metrics.auroc(np.array([2.0, 3.0]), np.array([0.0, 1.0])) == 1.0

    def test_identical_multisets_give_half(self):
        s = np.array([0.1, 0.5, 0.5, 0.9])
        assert metrics.auroc(s, s.copy()) == 0.5

    def test_matches_pairwise_oracle_on_random_sets(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = np.round(rng.normal(size=10), 1)  # rounding forces ties
            b = np.round(rng.normal(size=10), 1)
            assert abs(metrics.auroc(a, b) - brute_force_auroc(a, b)) < 1e-12

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=30), rng.normal(size=40)
        base = metrics.auroc(a, b)
        for f in (np.exp, np.tanh, lambda x: 3 * x + 7, lambda x: x ** 3):
            assert np.isclose(metrics.auroc(f(a), f(b)), base, atol=1e-12)

    def test_negation_flips(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=25), rng.normal(size=25)
        assert np.isclose(metrics.auroc(-a, -b), 1.0 - metrics.auroc(a, b), atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            metrics.auroc(np.array([]), np.array([1.0]))


class TestFpr95:
    def test_perfect_separation_gives_zero(self):
        id_s = np.linspace(1.0, 2.0, 100)
        ood_s = np.linspace(-1.0, 0.0, 100)
        assert metrics.fpr_at_95_tpr(id_s, ood_s) == 0.0

    def test_identical_distributions_give_about_ninety_five(self):
        s = np.linspace(0.0, 1.0, 100)
        out = metrics.fpr_at_95_tpr(s, s.copy())
        assert abs(out - 0.95) <= 0.02

    def test_matches_threshold_scan_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(40):
            id_s = rng.normal(1.0, 1.0, size=40)
            ood_s = rng.normal(0.0, 1.0, size=40)
            if trial % 2:  # rounding forces ties within and across the sets
                id_s, ood_s = np.round(id_s, 1), np.round(ood_s, 1)
            got = metrics.fpr_at_95_tpr(id_s, ood_s)
            # oracle: scan all observed thresholds, keep the largest with
            # TPR >= 0.95, report its FPR
            best_t = None
            for t in np.concatenate([id_s, ood_s]):
                if (id_s >= t).mean() >= 0.95 and (best_t is None or t > best_t):
                    best_t = t
            assert got == (ood_s >= best_t).mean()

    def test_nonincreasing_as_distributions_separate(self):
        rng = np.random.default_rng(6)
        id_s = rng.normal(0.0, 1.0, size=200)
        ood_s = rng.normal(0.0, 1.0, size=200)
        values = [metrics.fpr_at_95_tpr(id_s, ood_s - shift) for shift in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))
